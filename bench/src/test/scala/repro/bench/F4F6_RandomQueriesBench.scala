package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PerEstimator

/** Figs. 4 and 6 — query efficiency (avg ms) and accuracy (avg abs error)
  * for random pair queries, per dataset and ε.
  *
  * One run produces both tables (time and error columns of the same
  * measurements), mirroring the paper's setup of §5.1: random pairs,
  * ground truth from SMM-1000, δ = 0.01, τ = 5. TP/TPC run with the
  * recorded down-scaled walk constants (Harness.baselineScale) and on a
  * smaller query set; on friendster-lite they are skipped entirely — the
  * analogue of the paper's "cannot terminate within one day" entries.
  * RP and EXACT run on facebook-lite only (they OOM/explode beyond it in
  * the paper; here EXACT's O(n³) is feasible only there too).
  */
class F4F6_RandomQueriesBench extends AnyFunSuite {

  test("Fig. 4 + Fig. 6: running time and abs error vs eps, random queries") {
    val h = BenchShared.harness()
    val fastPairs = 20
    val slowPairs = 2

    BenchShared.allAnalogs.foreach { name =>
      val pairs = h.randomPairs(name, fastPairs)
      val slow = pairs.take(slowPairs)
      val truth = h.groundTruth(name, pairs)

      val isSmall = name == "facebook-lite"
      val skipTp = name == "friendster-lite"

      Tables.header(
        s"Fig. 4/6 — $name (random queries; ms and abs-err per method)",
        Seq(f"${"eps"}%5s", f"${"method"}%-14s", f"${"avg ms"}%12s", f"${"avg err"}%10s",
            f"${"avg walks"}%12s", f"${"pairs"}%5s"))

      BenchShared.epsGrid.foreach { eps =>
        // Accuracy is asserted only for the methods running with faithful
        // constants (GEER/AMC/SMM, plus RP/EXACT); TP/TPC run down-scaled
        // and capped, so their error is reported but not gated — the
        // paper itself notes TPC's heuristic forfeits the ε guarantee.
        def report(est: PerEstimator, ps: Seq[(Int, Int)], gate: Boolean = true): Unit = {
          val (ms, err, walks) = h.measure(est, ps, eps, truth)
          Tables.row(Seq(f"$eps%5.2f", f"${est.name}%-14s", h.fmtMs(ms), h.fmtErr(err),
            f"$walks%12.0f", f"${ps.size}%5d"))
          if (gate) assert(err <= eps, s"$name ${est.name} eps=$eps: avg err $err above threshold")
        }
        report(h.geer(name), pairs)
        report(h.amc(name), pairs)
        report(h.smm(name), pairs)
        if (!skipTp) {
          report(h.tp(name), slow, gate = false)
          report(h.tpc(name), slow, gate = false)
        } else {
          Tables.row(Seq(f"$eps%5.2f", f"${"TP"}%-14s", f"${"skipped"}%12s", "  (>budget)", "", ""))
          Tables.row(Seq(f"$eps%5.2f", f"${"TPC"}%-14s", f"${"skipped"}%12s", "  (>budget)", "", ""))
        }
        if (isSmall) {
          // RP's guarantee is (1±ε)-multiplicative with the full k; ours
          // caps k at 1500 rows — report, gate loosely via EXACT instead.
          report(h.rp(name, eps), pairs, gate = false)
          report(h.exact(name), pairs)
        }
      }
      Tables.footer(s"TP/TPC walk constants scaled by ${h.baselineScale(name)} (see EXPERIMENTS.md)")
    }
  }

  test("Fig. 4 headline: GEER beats AMC at eps = 0.02 on friendster-lite") {
    val h = BenchShared.harness()
    val name = "friendster-lite"
    val pairs = h.randomPairs(name, 5)
    val truth = h.groundTruth(name, pairs)
    val eps = 0.02
    val (geerMs, geerErr, _) = h.measure(h.geer(name), pairs, eps, truth)
    val (amcMs, amcErr, _) = h.measure(h.amc(name), pairs, eps, truth)
    Tables.header(
      "Fig. 4 headline — friendster-lite, eps = 0.02 (paper: GEER 1.3 s vs AMC 23 s)",
      Seq(f"${"method"}%-8s", f"${"avg ms"}%12s", f"${"avg err"}%10s"))
    Tables.row(Seq(f"${"GEER"}%-8s", h.fmtMs(geerMs), h.fmtErr(geerErr)))
    Tables.row(Seq(f"${"AMC"}%-8s", h.fmtMs(amcMs), h.fmtErr(amcErr)))
    Tables.footer()
    assert(geerErr <= eps && amcErr <= eps)
    assert(geerMs < amcMs, s"GEER ($geerMs ms) must beat AMC ($amcMs ms)")
  }
}
