package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.WalkEngine
import repro.util.Rng

class HaySpec extends AnyFunSuite {

  test("Wilson sample is a spanning tree: n-1 edges, all reach root") {
    val f = TestGraphs.ba300
    (0 until 5).foreach { i =>
      val next = Wilson.sampleTree(f.g, root = 0, Rng(100 + i))
      assert(next(0) == -1)
      // every non-root node's parent chain terminates at the root without
      // cycles (follow at most n steps)
      (1 until f.g.n).foreach { v =>
        var cur = v
        var steps = 0
        while (cur != 0 && steps <= f.g.n) { cur = next(cur); steps += 1 }
        assert(cur == 0, s"node $v does not reach the root")
      }
      // parent edges must be actual graph edges
      (1 until f.g.n).foreach(v => assert(f.g.hasEdge(v, next(v))))
    }
  }

  test("HAY rejects non-edge queries") {
    val f = TestGraphs.cycle9
    val eng = new WalkEngine(f.g)
    val hay = new HayEstimator(f.g, 0.01, eng, seed = 1)
    intercept[IllegalArgumentException](hay.query(0, 3, 0.5))
  }

  test("UST edge marginal equals ER: cycle edge r = (n-1)/n") {
    val f = TestGraphs.cycle9
    val eng = new WalkEngine(f.g)
    val hay = new HayEstimator(f.g, 0.01, eng, seed = 2)
    val r = hay.query(0, 1, 0.1)
    assert(math.abs(r.estimate - 8.0 / 9) <= 0.1, s"${r.estimate}")
  }

  test("UST edge marginal equals ER: complete graph edge r = 2/n") {
    val f = TestGraphs.complete10
    val eng = new WalkEngine(f.g)
    val hay = new HayEstimator(f.g, 0.01, eng, seed = 3)
    val r = hay.query(0, 5, 0.1)
    assert(math.abs(r.estimate - 0.2) <= 0.1, s"${r.estimate}")
  }

  test("HAY is eps-accurate on toy graph edges") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val hay = new HayEstimator(f.g, 0.01, eng, seed = 4)
    TestGraphs.edgePairs(f.g, 5).foreach { case (u, v) =>
      val r = hay.query(u, v, 0.15)
      assert(math.abs(r.estimate - f.exactEr(u, v)) <= 0.15,
        s"($u,$v): ${r.estimate} vs ${f.exactEr(u, v)}")
    }
  }

  test("path graph: every edge is in every spanning tree (r = 1)") {
    // A path is its own unique spanning tree.
    val g = repro.graph.GraphGen.path(6)
    val eng = new WalkEngine(g)
    val hay = new HayEstimator(g, 0.01, eng, seed = 5)
    val r = hay.query(2, 3, 0.1)
    assert(r.estimate == 1.0)
  }
}
