package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ell

/** Fig. 11 — SMM with our refined ℓ (Eq. 6) vs Peng et al.'s ℓ (Eq. 5),
  * at ε = 0.5 and ε = 0.05, on the five non-Friendster analogs.
  *
  * Reproduced shape claims: refined ℓ is never larger; the speedup is
  * biggest on high-average-degree graphs (facebook/orkut analogs) —
  * paper: 3.3× / 6.7× at ε = 0.5, 2.4× / 3.8× at ε = 0.05, 1.2–2.1×
  * on the low-degree graphs.
  */
class F11_EllCompareBench extends AnyFunSuite {

  private val datasets = Seq("facebook-lite", "dblp-lite", "youtube-lite",
    "orkut-lite", "livejournal-lite")

  test("Fig. 11: our ell vs Peng et al.'s ell in SMM") {
    val h = BenchShared.harness()
    Seq(0.5, 0.05).foreach { eps =>
      Tables.header(
        f"Fig. 11 — SMM runtime, refined ell (Eq. 6) vs Peng ell (Eq. 5), eps = $eps%.2f",
        Seq(f"${"dataset"}%-17s", f"${"ell(peng)"}%9s", f"${"avg ell(ours)"}%13s",
            f"${"ms(peng)"}%12s", f"${"ms(ours)"}%12s", f"${"speedup"}%8s"))
      datasets.foreach { name =>
        val g = h.graph(name)
        val lam = h.lambda(name)
        val pairs = h.randomPairs(name, 8)
        val truth = h.groundTruth(name, pairs)
        val (pengMs, pengErr, _) = h.measure(h.smmPengEll(name), pairs, eps, truth)
        val (ourMs, ourErr, _) = h.measure(h.smm(name), pairs, eps, truth)
        val ellPeng = Ell.peng(eps, lam)
        val avgOurs = pairs.map { case (s, t) =>
          Ell.refined(eps, lam, g.degree(s), g.degree(t)) }.sum.toDouble / pairs.size
        Tables.row(Seq(f"$name%-17s", f"$ellPeng%9d", f"$avgOurs%13.1f",
          h.fmtMs(pengMs), h.fmtMs(ourMs), f"${pengMs / ourMs}%8.2f"))
        assert(pengErr <= eps / 2 + 1e-9 && ourErr <= eps / 2 + 1e-9,
          s"$name: SMM must be eps/2-accurate (truncation only)")
        assert(ourMs <= pengMs * 1.15 + 0.5,
          s"$name eps=$eps: refined ell must not be slower (ours=$ourMs peng=$pengMs)")
        pairs.foreach { case (s, t) =>
          assert(Ell.refined(eps, lam, g.degree(s), g.degree(t)) <= ellPeng)
        }
      }
      Tables.footer()
    }
  }
}
