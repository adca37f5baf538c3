package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Figs. 8 and 9 — sensitivity of AMC and GEER to the batch count τ, at
  * ε = 0.2 (Fig. 8) and ε = 0.02 (Fig. 9), on dblp-lite, youtube-lite,
  * orkut-lite (the paper's DBLP / Youtube / Orkut).
  *
  * Reproduced shape claims: running time drops sharply from τ = 1 and
  * then flattens (adaptive early stop pays off), more pronounced at
  * small ε; on the high-degree Orkut analog GEER's time *grows* with τ
  * (sampling is already cheap there, extra batches are overhead).
  */
class F8F9_VaryTauBench extends AnyFunSuite {

  private val taus = Seq(1, 2, 3, 5, 8)

  test("Fig. 8: varying tau at eps = 0.2") {
    runSweep(eps = 0.2, pairsPerDs = 8,
      Seq("dblp-lite", "youtube-lite", "orkut-lite"))
  }

  test("Fig. 9: varying tau at eps = 0.02") {
    // youtube-lite's tau = 1 column costs ~7 min/query at eps = 0.02 (the
    // faithful non-adaptive Hoeffding budget); the same shape is shown on
    // dblp-lite, so youtube is dropped here — our one-day-cutoff analogue.
    runSweep(eps = 0.02, pairsPerDs = 2, Seq("dblp-lite", "orkut-lite"))
  }

  private def runSweep(eps: Double, pairsPerDs: Int, datasets: Seq[String]): Unit = {
    val h = BenchShared.harness()
    datasets.foreach { name =>
      val pairs = h.randomPairs(name, pairsPerDs)
      val truth = h.groundTruth(name, pairs)
      Tables.header(
        f"Fig. ${if (eps > 0.1) 8 else 9} — $name, eps = $eps%.2f: avg ms vs tau",
        Seq(f"${"tau"}%4s", f"${"AMC ms"}%12s", f"${"AMC err"}%10s",
            f"${"GEER ms"}%12s", f"${"GEER err"}%10s"))
      val amcMs = scala.collection.mutable.Map.empty[Int, Double]
      taus.foreach { tau =>
        val (ams, aerr, _) = h.measure(h.amcWithTau(name, tau), pairs, eps, truth)
        val (gms, gerr, _) = h.measure(h.geerWithTau(name, tau), pairs, eps, truth)
        amcMs(tau) = ams
        Tables.row(Seq(f"$tau%4d", h.fmtMs(ams), h.fmtErr(aerr), h.fmtMs(gms), h.fmtErr(gerr)))
        assert(aerr <= eps && gerr <= eps, s"$name tau=$tau accuracy")
      }
      Tables.footer()
      if (eps < 0.1 && name != "orkut-lite") {
        // Fig. 9 shape: at small eps adaptive batching must help AMC.
        assert(amcMs(5) < amcMs(1),
          s"$name: AMC tau=5 (${amcMs(5)} ms) should beat tau=1 (${amcMs(1)} ms) at eps=$eps")
      }
    }
  }
}
