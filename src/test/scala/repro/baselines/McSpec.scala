package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.WalkEngine

class McSpec extends AnyFunSuite {

  test("MC (escape probability form) is eps-accurate on small graphs") {
    Seq(TestGraphs.toy, TestGraphs.complete10, TestGraphs.cycle9).foreach { f =>
      val eng = new WalkEngine(f.g)
      val mc = new McEstimator(f.g, 0.01, eng, seed = 1, gamma = 2.0, scale = 1.0)
      TestGraphs.pairs(f.g, 3).foreach { case (s, t) =>
        val r = mc.query(s, t, 0.3)
        assert(math.abs(r.estimate - f.exactEr(s, t)) <= 0.3,
          s"${f.name} ($s,$t): ${r.estimate} vs ${f.exactEr(s, t)}")
      }
    }
  }

  test("MC returns 0 for s = t") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val mc = new McEstimator(f.g, 0.01, eng, seed = 1)
    assert(mc.query(5, 5, 0.5).estimate == 0.0)
  }

  test("MC walk accounting matches eta formula") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val gamma = 1.0; val delta = 0.01; val eps = 0.5
    val mc = new McEstimator(f.g, delta, eng, seed = 1, gamma = gamma)
    val r = mc.query(0, 1, eps)
    val expect = math.ceil(3.0 * gamma * f.g.degree(0) * math.log(1.0 / delta) / (eps * eps)).toLong
    assert(r.walks == math.max(100L, expect))
  }

  test("escape probability identity sanity: K_n pair") {
    // On K_n, P[excursion from s visits t] = 1/(d(s) r) = (n-1)/ (n·2/2) ...
    // just verify the estimator lands near 2/n with plenty of samples.
    val f = TestGraphs.complete25
    val eng = new WalkEngine(f.g)
    val mc = new McEstimator(f.g, 0.01, eng, seed = 8, gamma = 1.0)
    val r = mc.query(0, 12, 0.1)
    assert(math.abs(r.estimate - 2.0 / 25) <= 0.1)
  }

  test("MC rejects node ids outside [0, n) and delta outside (0, 1)") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val mc = new McEstimator(f.g, 0.01, eng, seed = 1)
    InputChecks.rejectsIds(f.g.n)(mc.query(_, _, 0.5))
    InputChecks.rejectsDelta(new McEstimator(f.g, _, eng, seed = 1))
  }
}
