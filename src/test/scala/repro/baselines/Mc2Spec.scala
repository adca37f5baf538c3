package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.WalkEngine

class Mc2Spec extends AnyFunSuite {

  test("MC2 rejects non-edge queries") {
    val f = TestGraphs.cycle9
    val eng = new WalkEngine(f.g)
    val mc2 = new Mc2Estimator(f.g, 0.01, eng, seed = 1)
    intercept[IllegalArgumentException](mc2.query(0, 4, 0.5))
  }

  test("MC2 is eps-accurate on edges of the toy graph") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val mc2 = new Mc2Estimator(f.g, 0.01, eng, seed = 2, scale = 0.2)
    TestGraphs.edgePairs(f.g, 5).foreach { case (u, v) =>
      val r = mc2.query(u, v, 0.2)
      assert(math.abs(r.estimate - f.exactEr(u, v)) <= 0.2,
        s"($u,$v): ${r.estimate} vs ${f.exactEr(u, v)}")
    }
  }

  test("MC2 on cycle edge: r = (n-1)/n") {
    val f = TestGraphs.cycle9
    val eng = new WalkEngine(f.g)
    val mc2 = new Mc2Estimator(f.g, 0.01, eng, seed = 3, scale = 0.2)
    val r = mc2.query(0, 1, 0.2)
    assert(math.abs(r.estimate - 8.0 / 9) <= 0.2, s"${r.estimate}")
  }

  test("MC2 on complete graph edge: r = 2/n") {
    val f = TestGraphs.complete10
    val eng = new WalkEngine(f.g)
    val mc2 = new Mc2Estimator(f.g, 0.01, eng, seed = 4, scale = 0.2)
    val r = mc2.query(2, 7, 0.15)
    assert(math.abs(r.estimate - 0.2) <= 0.15, s"${r.estimate}")
  }

  test("MC2 estimates stay in [0, 1]") {
    val f = TestGraphs.ba300
    val eng = new WalkEngine(f.g)
    val mc2 = new Mc2Estimator(f.g, 0.01, eng, seed = 5, scale = 0.05)
    TestGraphs.edgePairs(f.g, 3).foreach { case (u, v) =>
      val r = mc2.query(u, v, 0.5)
      assert(r.estimate >= 0.0 && r.estimate <= 1.0)
    }
  }
}
