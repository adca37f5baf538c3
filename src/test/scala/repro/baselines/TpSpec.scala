package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{Ell, WalkEngine}

class TpSpec extends AnyFunSuite {

  test("TP is eps-accurate on the toy graph (scaled-down constant)") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val tp = new TpEstimator(f.g, f.lambda, 0.01, eng, seed = 1, scale = 0.01, minWalks = 2000)
    for {
      eps <- Seq(0.5, 0.2)
      (s, t) <- TestGraphs.pairs(f.g, 4)
    } {
      val r = tp.query(s, t, eps)
      assert(math.abs(r.estimate - f.exactEr(s, t)) <= eps,
        s"($s,$t) eps=$eps: ${r.estimate} vs ${f.exactEr(s, t)}")
    }
  }

  test("TP is eps-accurate on K10 and K25") {
    Seq(TestGraphs.complete10, TestGraphs.complete25).foreach { f =>
      val eng = new WalkEngine(f.g)
      val tp = new TpEstimator(f.g, f.lambda, 0.01, eng, seed = 3, scale = 0.01, minWalks = 2000)
      TestGraphs.pairs(f.g, 3).foreach { case (s, t) =>
        val r = tp.query(s, t, 0.3)
        assert(math.abs(r.estimate - f.exactEr(s, t)) <= 0.3,
          s"${f.name} ($s,$t): ${r.estimate} vs ${f.exactEr(s, t)}")
      }
    }
  }

  test("TP walk count matches 2 * eta * ell") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val tp = new TpEstimator(f.g, f.lambda, 0.01, eng, seed = 1, scale = 0.0, minWalks = 500)
    val eps = 0.5
    val r = tp.query(0, 1, eps)
    val ell = Ell.peng(eps, f.lambda)
    assert(r.walks == 2L * 500 * ell)
  }

  test("TP faithful walk count dwarfs AMC's (the paper's Table 1 point)") {
    val f = TestGraphs.toy
    val eps = 0.2; val delta = 0.01
    val ell = Ell.peng(eps, f.lambda)
    val tpFaithfulPerLen = 40.0 * ell * ell * math.log(8.0 * ell / delta) / (eps * eps)
    val eng = new WalkEngine(f.g)
    val amc = repro.core.Amc.query(f.g, f.lambda, 0, 1, eps, delta, 5, eng, seed = 9)
    assert(tpFaithfulPerLen * 2 * ell > 20.0 * ell * amc.walks,
      s"TP=${tpFaithfulPerLen * 2 * ell} AMC=${amc.walks}")
  }

  test("TP returns 0 for s = t") {
    val f = TestGraphs.toy
    val eng = new WalkEngine(f.g)
    val tp = new TpEstimator(f.g, f.lambda, 0.01, eng, seed = 1, scale = 0.001)
    assert(tp.query(2, 2, 0.5).estimate == 0.0)
  }
}
