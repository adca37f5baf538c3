package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class TpcSpec extends AnyFunSuite {

  test("TPC is eps-accurate on the toy graph (scaled-down constant)") {
    val f = TestGraphs.toy
    val tpc = new TpcEstimator(f.g, f.lambda, 0.01, seed = 2,
      scale = 1e-4, minWalks = 8000, maxWalksPerLen = 80000)
    for {
      eps <- Seq(0.5, 0.2)
      (s, t) <- TestGraphs.pairs(f.g, 4)
    } {
      val r = tpc.query(s, t, eps)
      // §5.1: TPC's heuristic β_i settings "do not ensure the returned
      // value is an ε-approximate PER" — hold it to 1.5ε here.
      assert(math.abs(r.estimate - f.exactEr(s, t)) <= 1.5 * eps,
        s"($s,$t) eps=$eps: ${r.estimate} vs ${f.exactEr(s, t)}")
    }
  }

  test("TPC is eps-accurate on K10") {
    val f = TestGraphs.complete10
    val tpc = new TpcEstimator(f.g, f.lambda, 0.01, seed = 4,
      scale = 1e-4, minWalks = 3000, maxWalksPerLen = 50000)
    TestGraphs.pairs(f.g, 3).foreach { case (s, t) =>
      val r = tpc.query(s, t, 0.3)
      assert(math.abs(r.estimate - f.exactEr(s, t)) <= 0.3,
        s"($s,$t): ${r.estimate} vs ${f.exactEr(s, t)}")
    }
  }

  test("TPC walk budget grows as eps shrinks (per the 40000(...) formula)") {
    val f = TestGraphs.complete10
    val tpc = new TpcEstimator(f.g, f.lambda, 0.01, seed = 6,
      scale = 1e-4, minWalks = 100, maxWalksPerLen = Long.MaxValue)
    val loose = tpc.query(0, 5, 0.5).walks
    val tight = tpc.query(0, 5, 0.05).walks
    assert(tight > loose, s"loose=$loose tight=$tight")
  }

  test("TPC returns 0 for s = t and accounts walks") {
    val f = TestGraphs.toy
    val tpc = new TpcEstimator(f.g, f.lambda, 0.01, seed = 2, scale = 1e-5, minWalks = 100)
    assert(tpc.query(3, 3, 0.5).estimate == 0.0)
    assert(tpc.query(0, 1, 0.5).walks > 0)
  }

  test("TPC rejects node ids outside [0, n) and delta outside (0, 1)") {
    val f = TestGraphs.toy
    val tpc = new TpcEstimator(f.g, f.lambda, 0.01, seed = 2, scale = 1e-5)
    InputChecks.rejectsIds(f.g.n)(tpc.query(_, _, 0.5))
    InputChecks.rejectsDelta(new TpcEstimator(f.g, f.lambda, _, seed = 2))
  }
}
