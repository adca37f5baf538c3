package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Amc
import repro.graph.GraphGen

/** Fig. 2 (right-hand table) — the running example: walk counts #path(s),
  * #path(t) and AMC's η* on the 11-node toy graph for ℓ_f = 1..8 with
  * ε = 0.5, δ = 0.1.
  *
  * The exact toy topology is unpublished (we reconstruct d(s)=2, d(t)=7;
  * DESIGN.md §3), and the paper's η* column uses a `ln(1/δ)` constant
  * (reverse-engineered from its values) where our Eq. (8) carries
  * `ln(2τ/δ)`; we print both. The claims under reproduction are the
  * *shape* ones: η* exceeds #path(s)+#path(t) for small ℓ_f (traversal
  * wins) and is dwarfed by it once ℓ_f grows (sampling wins).
  */
class F2_RunningExampleBench extends AnyFunSuite {

  test("Fig. 2 table: #paths vs eta* on the toy graph") {
    val g = GraphGen.toyFig2
    val (s, t) = (0, 1)
    val eps = 0.5; val delta = 0.1

    // #path(u, l): number of length-l walks from u = (A^l 1)(u).
    def walkCounts(u: Int, maxL: Int): Seq[Long] = {
      var x = Array.fill(g.n)(1L)
      (1 to maxL).map { _ =>
        val y = new Array[Long](g.n)
        (0 until g.n).foreach { v =>
          g.neighborsOf(v).foreach(w => y(v) += x(w))
        }
        x = y
        x(u)
      }
    }

    val ps = walkCounts(s, 8)
    val pt = walkCounts(t, 8)
    val sVec = new Array[Double](g.n); sVec(s) = 1.0
    val tVec = new Array[Double](g.n); tVec(t) = 1.0

    val paperPathS = Seq(2, 4, 8, 26, 42, 184, 268, 1346)
    val paperPathT = Seq(7, 9, 53, 71, 397, 539, 2963, 4041)
    val paperEta   = Seq(31, 122, 275, 488, 762, 1097, 1493, 1949)

    Tables.header(
      "Fig. 2 table — running example (eps=0.5, delta=0.1; paper values in parens)",
      Seq("l_f", "#path(s)", "#path(t)", "sum", "eta* (Eq.8, tau=1)", "eta* (ln(1/d) form)", "paper sum", "paper eta*"))
    (1 to 8).foreach { l =>
      val psi = Amc.psi(sVec, tVec, g.degree(s), g.degree(t), l)
      val etaOurs = Amc.etaStar(psi, eps, tau = 1, delta = delta)
      val etaPaperForm = math.ceil(2.0 * psi * psi * math.log(1.0 / delta) / (eps * eps)).toLong
      Tables.row(Seq(
        f"$l%3d", f"${ps(l - 1)}%8d (${paperPathS(l - 1)}%4d)", f"${pt(l - 1)}%8d (${paperPathT(l - 1)}%4d)",
        f"${ps(l - 1) + pt(l - 1)}%8d (${paperPathS(l - 1) + paperPathT(l - 1)}%4d)",
        f"$etaOurs%10d", f"$etaPaperForm%10d", f"${paperPathS(l - 1) + paperPathT(l - 1)}%9d", f"${paperEta(l - 1)}%10d"))
    }
    Tables.footer("shape claims: eta* > sum for small l_f; sum >> eta* for large l_f")

    // Shape assertions (the quantitative content of the figure).
    def etaAt(l: Int): Long = {
      val psi = Amc.psi(sVec, tVec, g.degree(s), g.degree(t), l)
      Amc.etaStar(psi, eps, 1, delta)
    }
    assert(etaAt(1) > ps(0) + pt(0), "traversal beats sampling at l_f = 1")
    assert(ps(7) + pt(7) > etaAt(8), "sampling beats traversal at l_f = 8")
    // walk counts from t must explode faster than from s (d(t) >> d(s))
    assert(pt(7).toDouble / pt(0) > ps(7).toDouble / ps(0))
  }
}
