package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core._

/** Cross-method agreement: every estimator must land within its ε of the
  * exact ER on the same graph — the repo-level analogue of the paper's
  * Figs. 6–7 "all points below the dashed line".
  */
class EndToEndSpec extends AnyFunSuite {

  private lazy val f = TestGraphs.toy
  private lazy val eng = new WalkEngine(f.g)

  test("random-query methods all land within eps = 0.25 on the toy graph") {
    val eps = 0.25
    val estimators: Seq[PerEstimator] = Seq(
      new GeerEstimator(f.g, f.lambda, 0.01, 5, eng, seed = 1),
      new AmcEstimator(f.g, f.lambda, 0.01, 5, eng, seed = 2),
      new SmmEstimator(f.g, f.lambda),
      new TpEstimator(f.g, f.lambda, 0.01, eng, seed = 3, scale = 0.01, minWalks = 2000),
      new TpcEstimator(f.g, f.lambda, 0.01, seed = 4, scale = 1e-4, minWalks = 3000, maxWalksPerLen = 50000),
      new McEstimator(f.g, 0.01, eng, seed = 5, gamma = 2.0),
      new RpEstimator(f.g, eps0 = eps, seed = 6, kCap = 800),
      new ExactEstimator(f.g),
    )
    TestGraphs.pairs(f.g, 4).foreach { case (s, t) =>
      val exact = f.exactEr(s, t)
      estimators.foreach { est =>
        val got = est.query(s, t, eps).estimate
        val tol = if (est.name == "RP") math.max(eps, eps * exact) else eps
        assert(math.abs(got - exact) <= tol,
          s"${est.name} ($s,$t): $got vs $exact")
      }
    }
  }

  test("edge-query methods all land within eps = 0.2 on the toy graph") {
    val eps = 0.2
    val estimators: Seq[PerEstimator] = Seq(
      new GeerEstimator(f.g, f.lambda, 0.01, 5, eng, seed = 11),
      new AmcEstimator(f.g, f.lambda, 0.01, 5, eng, seed = 12),
      new SmmEstimator(f.g, f.lambda),
      new Mc2Estimator(f.g, 0.01, eng, seed = 13, scale = 0.2),
      new HayEstimator(f.g, 0.01, eng, seed = 14),
    )
    TestGraphs.edgePairs(f.g, 4).foreach { case (u, v) =>
      val exact = f.exactEr(u, v)
      estimators.foreach { est =>
        val got = est.query(u, v, eps).estimate
        assert(math.abs(got - exact) <= eps, s"${est.name} ($u,$v): $got vs $exact")
      }
    }
  }

  test("ground-truth strategies agree: pinv vs SMM-1000") {
    TestGraphs.pairs(f.g, 6).foreach { case (s, t) =>
      assert(math.abs(Smm.groundTruth(f.g, s, t) - f.exactEr(s, t)) < 1e-6)
    }
  }
}
