package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class RpExactSpec extends AnyFunSuite {

  test("EXACT matches closed forms") {
    val ex = new ExactEstimator(TestGraphs.complete10.g)
    assert(math.abs(ex.query(0, 9, 0.01).estimate - 0.2) < 1e-8)
    val exC = new ExactEstimator(TestGraphs.cycle9.g)
    assert(math.abs(exC.query(0, 3, 0.01).estimate - 3.0 * 6 / 9) < 1e-8)
  }

  test("EXACT agrees with the shared fixture pinv everywhere") {
    val f = TestGraphs.toy
    val ex = new ExactEstimator(f.g)
    TestGraphs.pairs(f.g, 10).foreach { case (s, t) =>
      assert(math.abs(ex.query(s, t, 0.01).estimate - f.exactEr(s, t)) < 1e-10)
    }
  }

  test("EXACT records preprocessing cost") {
    val ex = new ExactEstimator(TestGraphs.cycle9.g)
    assert(ex.preprocessNanos > 0)
  }

  test("RP k follows 24 ln n / eps^2 with cap") {
    val f = TestGraphs.toy
    val rp = new RpEstimator(f.g, eps0 = 0.5, seed = 1, kCap = 10000)
    assert(rp.kRequested == math.ceil(24.0 * math.log(11.0) / 0.25).toInt)
    assert(rp.k == rp.kRequested)
    val capped = new RpEstimator(f.g, eps0 = 0.5, seed = 1, kCap = 16)
    assert(capped.k == 16)
  }

  test("RP approximates ER on the toy graph") {
    val f = TestGraphs.toy
    val rp = new RpEstimator(f.g, eps0 = 0.3, seed = 2, kCap = 600)
    TestGraphs.pairs(f.g, 5).foreach { case (s, t) =>
      val r = rp.query(s, t, 0.3)
      val exact = f.exactEr(s, t)
      // RP's guarantee is multiplicative (1 ± eps-ish with enough rows);
      // allow a generous band.
      assert(math.abs(r.estimate - exact) <= math.max(0.3 * exact, 0.25),
        s"($s,$t): ${r.estimate} vs $exact")
    }
  }

  test("RP approximates ER on K10") {
    val f = TestGraphs.complete10
    val rp = new RpEstimator(f.g, eps0 = 0.3, seed = 3, kCap = 600)
    val r = rp.query(0, 7, 0.3)
    assert(math.abs(r.estimate - 0.2) <= 0.1, s"${r.estimate}")
  }

  test("RP query is symmetric and zero on the diagonal") {
    val f = TestGraphs.cycle9
    val rp = new RpEstimator(f.g, eps0 = 0.5, seed = 4, kCap = 200)
    assert(rp.query(2, 2, 0.5).estimate == 0.0)
    assert(math.abs(rp.query(1, 5, 0.5).estimate - rp.query(5, 1, 0.5).estimate) < 1e-12)
  }

  test("RP records preprocessing cost separately from query cost") {
    val f = TestGraphs.cycle9
    val rp = new RpEstimator(f.g, eps0 = 0.5, seed = 5, kCap = 50)
    assert(rp.preprocessNanos > 0)
    val q = rp.query(0, 4, 0.5)
    assert(q.nanos < rp.preprocessNanos)
  }

  test("EXACT rejects node ids outside [0, n)") {
    val ex = new ExactEstimator(TestGraphs.toy.g)
    InputChecks.rejectsIds(TestGraphs.toy.g.n)(ex.query(_, _, 0.5))
  }

  test("RP rejects node ids outside [0, n)") {
    val rp = new RpEstimator(TestGraphs.toy.g, eps0 = 0.5, seed = 1, kCap = 16)
    InputChecks.rejectsIds(TestGraphs.toy.g.n)(rp.query(_, _, 0.5))
  }

  test("RP rejects eps0 that is not positive and kCap below 1") {
    val g = TestGraphs.toy.g
    Seq(0.0, -0.5, Double.NaN).foreach { eps0 =>
      val e = intercept[IllegalArgumentException](new RpEstimator(g, eps0, seed = 1, kCap = 16))
      assert(e.getMessage.contains("eps0"), s"eps0=$eps0: ${e.getMessage}")
    }
    Seq(0, -1, Int.MinValue).foreach { kCap =>
      val e = intercept[IllegalArgumentException](new RpEstimator(g, 0.5, seed = 1, kCap = kCap))
      assert(e.getMessage.contains("kCap"), s"kCap=$kCap: ${e.getMessage}")
    }
  }
}
