package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ell

/** Table 1 — the complexity comparison, checked empirically: AMC/GEER's
  * realized walk counts vs TP's formula count `40 ℓ³ ln(8ℓ/δ)/ε²` and
  * the §3.3.2 remark that TP exceeds AMC by at least
  * `20ℓ / (1/d(s) + 1/d(t))²`.
  */
class T1_WalkCountsBench extends AnyFunSuite {

  test("Table 1: realized walk counts — AMC and GEER vs TP's formula") {
    val h = BenchShared.harness()
    val eps = 0.1
    Seq("facebook-lite", "dblp-lite", "orkut-lite").foreach { name =>
      val g = h.graph(name)
      val lam = h.lambda(name)
      val pairs = h.randomPairs(name, 5)
      Tables.header(
        s"Table 1 (empirical) — $name, eps = $eps: walks per query",
        Seq(f"${"pair"}%-14s", f"${"TP formula"}%14s", f"${"AMC walks"}%12s",
            f"${"GEER walks"}%12s", f"${"TP/AMC"}%10s"))
      pairs.foreach { case (s, t) =>
        val ellPeng = Ell.peng(eps, lam)
        val tpWalks = 40.0 * math.pow(ellPeng, 3) * math.log(8.0 * ellPeng / h.delta) / (eps * eps)
        val amcR = h.amc(name).query(s, t, eps)
        val geerR = h.geer(name).query(s, t, eps)
        val ratio = tpWalks / math.max(1.0, amcR.walks.toDouble)
        Tables.row(Seq(f"($s%d,$t%d)", f"$tpWalks%14.3e", f"${amcR.walks}%12d",
          f"${geerR.walks}%12d", f"$ratio%10.1f"))
        assert(amcR.walks < tpWalks, "AMC must need fewer walks than TP's formula")
        assert(geerR.walks <= amcR.walks * 2,
          "GEER walks must not exceed AMC's (up to batch rounding)")
        val dInv = 1.0 / g.degree(s) + 1.0 / g.degree(t)
        assert(ratio > 20.0 * ellPeng / (dInv * dInv) / 100.0,
          "remark factor should hold within 2 orders (constants differ)")
      }
      Tables.footer()
    }
  }
}
