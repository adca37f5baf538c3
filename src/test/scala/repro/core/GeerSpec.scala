package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphGen

class GeerSpec extends SparkSpec {

  private def engineFor(g: repro.graph.CsrGraph) = new WalkEngine(spark, g)

  test("query returns 0 for s = t") {
    val f = TestGraphs.toy
    assert(Geer.query(f.g, f.lambda, 3, 3, 0.1, 0.01, 5, engineFor(f.g), 1).estimate == 0.0)
  }

  test("query and switchPoint reject node ids outside [0, n)") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    val n = f.g.n
    Seq((-1, 0), (0, -1), (n, 0), (0, n), (n, n)).foreach { case (s, t) =>
      val q = intercept[IllegalArgumentException](Geer.query(f.g, f.lambda, s, t, 0.1, 0.01, 5, eng, 1))
      val sp = intercept[IllegalArgumentException](Geer.switchPoint(f.g, f.lambda, s, t, 0.1, 0.01, 5))
      Seq(q, sp).foreach(e => assert(e.getMessage.contains("outside the node range"), s"($s,$t): ${e.getMessage}"))
    }
  }

  test("query and switchPoint reject delta outside (0, 1)") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    Seq(0.0, -0.5, 1.0, 1.5, Double.NaN).foreach { delta =>
      val q = intercept[IllegalArgumentException](Geer.query(f.g, f.lambda, 0, 1, 0.1, delta, 5, eng, 1))
      val sp = intercept[IllegalArgumentException](Geer.switchPoint(f.g, f.lambda, 0, 1, 0.1, delta, 5))
      Seq(q, sp).foreach(e => assert(e.getMessage.contains("is outside (0, 1)"), s"delta=$delta: ${e.getMessage}"))
    }
  }

  test("eps-accurate on the toy graph across eps") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    for {
      eps <- Seq(0.5, 0.2, 0.1, 0.05)
      (s, t) <- TestGraphs.pairs(f.g, 6)
    } {
      val r = Geer.query(f.g, f.lambda, s, t, eps, 0.01, 5, eng, seed = 31 * s + t)
      assert(math.abs(r.estimate - f.exactEr(s, t)) <= eps,
        s"($s,$t) eps=$eps: ${r.estimate} vs ${f.exactEr(s, t)}")
    }
  }

  test("eps-accurate on all ergodic fixtures at eps = 0.1") {
    TestGraphs.ergodic.foreach { f =>
      val eng = engineFor(f.g)
      TestGraphs.pairs(f.g, 4).foreach { case (s, t) =>
        val r = Geer.query(f.g, f.lambda, s, t, 0.1, 0.01, 5, eng, seed = s * 131 + t)
        assert(math.abs(r.estimate - f.exactEr(s, t)) <= 0.1,
          s"${f.name} ($s,$t): ${r.estimate} vs ${f.exactEr(s, t)}")
      }
    }
  }

  test("eps-accurate at small eps = 0.02 on a mid-size graph") {
    val f = TestGraphs.ba300
    val eng = engineFor(f.g)
    TestGraphs.pairs(f.g, 3).foreach { case (s, t) =>
      val r = Geer.query(f.g, f.lambda, s, t, 0.02, 0.01, 5, eng, seed = s + 7 * t)
      assert(math.abs(r.estimate - f.exactEr(s, t)) <= 0.02,
        s"($s,$t): ${r.estimate} vs ${f.exactEr(s, t)}")
    }
  }

  test("forcing ell_b = ell makes GEER identical to SMM (deterministic)") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    TestGraphs.pairs(f.g, 5).foreach { case (s, t) =>
      val eps = 0.2
      val ell = Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
      val r = Geer.query(f.g, f.lambda, s, t, eps, 0.01, 5, eng, 1, ellBOverride = Some(ell))
      assert(r.walks == 0, "no AMC walks when ell_b = ell")
      assert(math.abs(r.estimate - Smm.run(f.g, s, t, ell)) < 1e-12)
    }
  }

  test("forcing ell_b = 0 makes GEER one SMM step + AMC tail") {
    // Algorithm 3's repeat-until always performs >= 1 iteration; with
    // override 0 we clamp to 0 SMM iterations and the tail covers all of
    // ell, i.e. pure AMC behaviour up to the q/r_ell shift.
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    val (s, t) = (0, 1)
    val r = Geer.query(f.g, f.lambda, s, t, 0.2, 0.01, 5, eng, 9, ellBOverride = Some(0))
    assert(r.smmIters == 0)
    assert(r.walks > 0)
    assert(math.abs(r.estimate - f.exactEr(s, t)) <= 0.2)
  }

  test("greedy switch point is within [1, ell]") {
    TestGraphs.ergodic.foreach { f =>
      val (s, t) = TestGraphs.pairs(f.g, 1).head
      val eps = 0.1
      val ell = Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
      val lb = Geer.switchPoint(f.g, f.lambda, s, t, eps, 0.01, 5)
      assert(lb >= 1 && lb <= ell, s"${f.name}: lb=$lb ell=$ell")
    }
  }

  test("switch fires early on dense graphs (frontier explodes)") {
    val f = TestGraphs.ba500dense
    val (s, t) = TestGraphs.pairs(f.g, 1).head
    val eps = 0.05
    val ell = Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
    val lb = Geer.switchPoint(f.g, f.lambda, s, t, eps, 0.01, 5)
    assert(lb < ell, s"expected switch before ell=$ell, got $lb")
  }

  test("r_b + r_f decomposition: estimate consistent with SMM prefix") {
    // With the walk seed fixed, estimate - rB(smmIters) must equal the AMC
    // tail estimate of the remaining series; verify the prefix part.
    val f = TestGraphs.er200
    val eng = engineFor(f.g)
    val (s, t) = TestGraphs.pairs(f.g, 1).head
    val eps = 0.1
    val r = Geer.query(f.g, f.lambda, s, t, eps, 0.01, 5, eng, seed = 55)
    val prefix = Smm.run(f.g, s, t, r.smmIters)
    // tail must be small: bounded by the remaining series plus eps/2
    assert(math.abs(r.estimate - prefix) <= f.exactEr(s, t) + eps)
  }

  test("GEER uses no more walks than AMC on the same query") {
    val f = TestGraphs.ba300
    val eng = engineFor(f.g)
    var geerTotal = 0L
    var amcTotal = 0L
    TestGraphs.pairs(f.g, 5).foreach { case (s, t) =>
      geerTotal += Geer.query(f.g, f.lambda, s, t, 0.1, 0.01, 5, eng, seed = s + t).walks
      amcTotal += Amc.query(f.g, f.lambda, s, t, 0.1, 0.01, 5, eng, seed = s + t).walks
    }
    assert(geerTotal <= amcTotal, s"GEER=$geerTotal AMC=$amcTotal")
  }

  test("deterministic in the seed") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    val a = Geer.query(f.g, f.lambda, 0, 1, 0.1, 0.01, 5, eng, seed = 12)
    val b = Geer.query(f.g, f.lambda, 0, 1, 0.1, 0.01, 5, eng, seed = 12)
    assert(a.estimate == b.estimate && a.walks == b.walks && a.smmIters == b.smmIters)
  }

  test("Foster's theorem holds for GEER estimates within tolerance") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    val eps = 0.05
    val total = f.g.undirectedEdges.map { case (u, v) =>
      Geer.query(f.g, f.lambda, u, v, eps, 0.01, 5, eng, seed = u * 100 + v).estimate
    }.sum
    assert(math.abs(total - (f.g.n - 1.0)) <= eps * f.g.m,
      s"sum=$total expected ~${f.g.n - 1}")
  }

  test("GeerEstimator and SmmEstimator wrappers") {
    val f = TestGraphs.toy
    val eng = engineFor(f.g)
    val ge = new GeerEstimator(f.g, f.lambda, 0.01, 5, eng, seed = 1)
    val se = new SmmEstimator(f.g, f.lambda)
    val sp = new SmmEstimator(f.g, f.lambda, usePengEll = true)
    assert(ge.name == "GEER" && se.name == "SMM" && sp.name == "SMM(peng-ell)")
    val eps = 0.2
    Seq(ge, se, sp).foreach { est =>
      val r = est.query(0, 1, eps)
      assert(math.abs(r.estimate - f.exactEr(0, 1)) <= eps, est.name)
    }
    // Peng's ell runs at least as many iterations as the refined ell.
    assert(sp.query(0, 1, eps).smmIters >= se.query(0, 1, eps).smmIters)
  }
}
