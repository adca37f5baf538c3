package repro.core

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.GraphGen

class AmcSpec extends AnyFunSuite {

  private lazy val engine = new WalkEngine(GraphGen.toyFig2)
  private def engineFor(g: repro.graph.CsrGraph) = new WalkEngine(g)

  test("topTwo finds the two largest values") {
    assert(Amc.topTwo(Array(0.1, 0.9, 0.4, 0.9, 0.0)) == (0.9, 0.9))
    assert(Amc.topTwo(Array(1.0)) == (1.0, 0.0))
    assert(Amc.topTwo(Array(0.0, 0.0)) == (0.0, 0.0))
  }

  test("psi for one-hot vectors matches the closed form of §3.3.2") {
    // psi = 2 ceil(l/2) (1/ds + 1/dt) when s = e_s, t = e_t
    val g = GraphGen.toyFig2
    val sVec = new Array[Double](g.n); sVec(0) = 1.0
    val tVec = new Array[Double](g.n); tVec(1) = 1.0
    Seq(1, 2, 5, 8).foreach { ell =>
      val expect = 2.0 * math.ceil(ell / 2.0) * (1.0 / g.degree(0) + 1.0 / g.degree(1))
      assert(math.abs(Amc.psi(sVec, tVec, g.degree(0), g.degree(1), ell) - expect) < 1e-12,
        s"ell=$ell")
    }
  }

  test("psi shrinks when vectors flatten (the GEER effect, §4.1.2)") {
    val g = GraphGen.toyFig2
    val oneHot = new Array[Double](g.n); oneHot(0) = 1.0
    val flat = Array.fill(g.n)(1.0 / g.n)
    val psiSharp = Amc.psi(oneHot, oneHot, 2, 7, 6)
    val psiFlat = Amc.psi(flat, flat, 2, 7, 6)
    assert(psiFlat < psiSharp / 5)
  }

  test("etaStar matches Eq. (8)") {
    val psi = 1.5; val eps = 0.2; val tau = 5; val delta = 0.01
    val expect = math.ceil(2.0 * psi * psi * math.log(2.0 * tau / delta) / (eps * eps)).toLong
    assert(Amc.etaStar(psi, eps, tau, delta) == expect)
  }

  test("bernstein bound matches Eq. (7) and tightens with samples") {
    val f1 = Amc.bernstein(100, 0.5, 2.0, 0.01)
    val expect = math.sqrt(2 * 0.5 * math.log(300.0) / 100) + 3 * 2.0 * math.log(300.0) / 100
    assert(math.abs(f1 - expect) < 1e-12)
    assert(Amc.bernstein(1000, 0.5, 2.0, 0.01) < f1)
    assert(Amc.bernstein(100, 0.1, 2.0, 0.01) < f1)
  }

  test("h is bounded by 2 etaStar and covers tau doubling batches") {
    val psi = 0.8; val eps = 0.1; val delta = 0.01
    (1 to 8).foreach { tau =>
      val h = Amc.h(psi, eps, tau, delta)
      val etaS = Amc.etaStar(psi, eps, tau, delta)
      assert(h >= etaS, s"tau=$tau: h must cover etaStar")
      assert(h <= 2 * etaS + (1L << tau), s"tau=$tau: h < 2 etaStar (+ceil slack)")
    }
  }

  test("estimate returns 0 for ell_f = 0 or zero vectors") {
    val g = GraphGen.toyFig2
    val z = new Array[Double](g.n)
    assert(Amc.estimate(g, 0, 1, z, z, 0.1, 0, 5, 0.01, engine, 1).estimate == 0.0)
    assert(Amc.estimate(g, 0, 1, z, z, 0.1, 5, 5, 0.01, engine, 1).estimate == 0.0)
  }

  test("query returns 0 for s = t") {
    val f = TestGraphs.toy
    assert(Amc.query(f.g, f.lambda, 4, 4, 0.1, 0.01, 5, engine, 1).estimate == 0.0)
  }

  test("query rejects node ids outside [0, n)") {
    val f = TestGraphs.toy
    val n = f.g.n
    Seq((-1, 0), (0, -1), (n, 0), (0, n), (n, n)).foreach { case (s, t) =>
      val e = intercept[IllegalArgumentException](Amc.query(f.g, f.lambda, s, t, 0.2, 0.01, 5, engine, 1))
      assert(e.getMessage.contains("outside the node range"), s"($s,$t): ${e.getMessage}")
    }
  }

  test("query rejects delta outside (0, 1)") {
    val f = TestGraphs.toy
    Seq(0.0, -0.5, 1.0, 1.5, Double.NaN).foreach { delta =>
      val e = intercept[IllegalArgumentException](Amc.query(f.g, f.lambda, 0, 1, 0.2, delta, 5, engine, 1))
      assert(e.getMessage.contains("is outside (0, 1)"), s"delta=$delta: ${e.getMessage}")
    }
  }

  test("query is eps-accurate on the toy graph across pairs and eps") {
    val f = TestGraphs.toy
    for {
      eps <- Seq(0.5, 0.2, 0.1)
      (s, t) <- TestGraphs.pairs(f.g, 6)
    } {
      val r = Amc.query(f.g, f.lambda, s, t, eps, 0.01, 5, engine, seed = 1000 + s * 31 + t)
      assert(math.abs(r.estimate - f.exactEr(s, t)) <= eps,
        s"($s,$t) eps=$eps: ${r.estimate} vs ${f.exactEr(s, t)}")
    }
  }

  test("query is eps-accurate on complete, cycle, barbell, ER, BA graphs") {
    Seq(TestGraphs.complete10, TestGraphs.cycle9, TestGraphs.barbell8,
        TestGraphs.er200, TestGraphs.ba300).foreach { f =>
      val eng = engineFor(f.g)
      TestGraphs.pairs(f.g, 4).foreach { case (s, t) =>
        val eps = 0.2
        val r = Amc.query(f.g, f.lambda, s, t, eps, 0.01, 5, eng, seed = 7 + s + t)
        assert(math.abs(r.estimate - f.exactEr(s, t)) <= eps,
          s"${f.name} ($s,$t): ${r.estimate} vs ${f.exactEr(s, t)}")
      }
    }
  }

  test("adaptive termination: batches <= tau and walks <= 2*(2 etaStar)") {
    val f = TestGraphs.toy
    val (s, t) = (0, 1)
    val eps = 0.2; val tau = 5; val delta = 0.01
    val r = Amc.query(f.g, f.lambda, s, t, eps, delta, tau, engine, seed = 3)
    assert(r.batches >= 1 && r.batches <= tau)
    val ell = Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
    val psi = 2.0 * math.ceil(ell / 2.0) * (1.0 / f.g.degree(s) + 1.0 / f.g.degree(t))
    // walks counts walk *pairs* × 2 (one from s, one from t)
    assert(r.walks <= 2 * Amc.h(psi, eps, tau, delta))
  }

  test("early termination uses far fewer walks than the Hoeffding cap") {
    // On the toy graph at eps = 0.1 the cap is large but the empirical
    // variance is small, so Bernstein should stop AMC in an early batch.
    val f = TestGraphs.toy
    val (s, t) = (0, 1)
    val eps = 0.1
    val r = Amc.query(f.g, f.lambda, s, t, eps, 0.01, 5, engine, seed = 5)
    val ell = Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
    val psi = 2.0 * math.ceil(ell / 2.0) * (1.0 / f.g.degree(s) + 1.0 / f.g.degree(t))
    val cap = 2 * Amc.h(psi, eps, 5, 0.01)
    assert(r.batches < 5, s"expected early termination, ran ${r.batches} batches")
    assert(r.walks * 4 < cap, s"walks=${r.walks} cap=$cap — expected early stop")
  }

  test("tau = 1 degenerates to a single full batch") {
    val f = TestGraphs.toy
    val r = Amc.query(f.g, f.lambda, 0, 1, 0.3, 0.01, 1, engine, seed = 11)
    assert(r.batches == 1)
    assert(math.abs(r.estimate - f.exactEr(0, 1)) <= 0.3)
  }

  test("estimates are deterministic in the seed") {
    val f = TestGraphs.toy
    val a = Amc.query(f.g, f.lambda, 0, 1, 0.2, 0.01, 5, engine, seed = 77)
    val b = Amc.query(f.g, f.lambda, 0, 1, 0.2, 0.01, 5, engine, seed = 77)
    assert(a.estimate == b.estimate && a.walks == b.walks)
  }

  test("query is bit-identical on 1 and 4 threads, with batches on both sides of the cut-off") {
    val f = TestGraphs.ba300
    val eng = engineFor(f.g)
    val (s, t) = TestGraphs.pairs(f.g, 1).head
    val eps = 0.1
    def run(threads: Int): PerResult =
      WalksSpec.inPool(threads)(Amc.query(f.g, f.lambda, s, t, eps, 0.01, 5, eng, seed = 21))
    val one = run(1)
    val four = run(4)
    assert(java.lang.Double.doubleToLongBits(one.estimate) == java.lang.Double.doubleToLongBits(four.estimate))
    assert(one == four)
    // Batches double from eta0, so walks = 2 eta0 (2^b - 1).
    val steps = 2L * Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
    val eta0 = one.walks / (2L * ((1L << one.batches) - 1L))
    assert(WalkEngine.runsInline(eta0, steps), "first batch should run inline")
    assert(!WalkEngine.runsInline(eta0 << (one.batches - 1), steps), "last batch should run in parallel")
    assert(math.abs(one.estimate - f.exactEr(s, t)) <= eps)
  }

  test("distributed walk path gives an equally accurate estimate") {
    val f = TestGraphs.toy
    val eps = 0.2
    val r = WalksSpec.inPool(4)(Amc.query(f.g, f.lambda, 0, 1, eps, 0.01, 5, engine, seed = 21))
    // The last doubling batch spreads its chunks over the pool's workers.
    val steps = 2L * Ell.refined(eps, f.lambda, f.g.degree(0), f.g.degree(1))
    val eta0 = r.walks / (2L * ((1L << r.batches) - 1L))
    assert(!WalkEngine.runsInline(eta0 << (r.batches - 1), steps), "last batch should run in parallel")
    assert(math.abs(r.estimate - f.exactEr(0, 1)) <= eps)
  }

  test("etaStar fails fast beyond a Long instead of saturating") {
    assert(Amc.etaStar(1.0, 1e-4, 5, 0.01) > 0L)
    val e = intercept[IllegalArgumentException](Amc.etaStar(1.0, 1e-10, 5, 0.01))
    assert(e.getMessage.contains("does not fit a Long"))
  }

  test("estimate fails fast when eta* is beyond a Long") {
    val g = GraphGen.toyFig2
    val sVec = new Array[Double](g.n); sVec(0) = 1.0
    val tVec = new Array[Double](g.n); tVec(1) = 1.0
    intercept[IllegalArgumentException](Amc.estimate(g, 0, 1, sVec, tVec, 1e-10, 4, 5, 0.01, engine, 1))
  }

  /** The ε at which η* (Eq. 8) equals `etaS`. The tests below use
    * η* = 6e18, in (2^62, 2^63): it fits a Long, but τ = 62 doubling batches
    * from `ceil(η* / 2^61) = 3` walk pairs do not.
    */
  private def epsForEtaStar(psi: Double, tau: Int, delta: Double, etaS: Double): Double =
    math.sqrt(2.0 * psi * psi * math.log(2.0 * tau / delta) / etaS)

  test("h fails fast when tau doubling batches overflow the walk count") {
    val (psi, tau, delta) = (1.0, 62, 0.01)
    val eps = epsForEtaStar(psi, tau, delta, 6e18)
    assert(Amc.etaStar(psi, eps, tau, delta) > (1L << 62))
    val e = intercept[IllegalArgumentException](Amc.h(psi, eps, tau, delta))
    assert(e.getMessage.contains("overflow"))
  }

  test("estimate fails fast when tau doubling batches overflow the walk count") {
    val g = GraphGen.toyFig2
    val sVec = new Array[Double](g.n); sVec(0) = 1.0
    val tVec = new Array[Double](g.n); tVec(1) = 1.0
    val (ellF, tau, delta) = (4, 62, 0.01)
    val eps = epsForEtaStar(Amc.psi(sVec, tVec, g.degree(0), g.degree(1), ellF), tau, delta, 6e18)
    // Without the up-front check the batches would only grow towards the
    // overflow, so bound the wait instead of hanging.
    val run = Future(Amc.estimate(g, 0, 1, sVec, tVec, eps, ellF, tau, delta, engine, 1))(ExecutionContext.global)
    intercept[IllegalArgumentException](Await.result(run, 60.seconds))
  }

  test("estimate rejects node ids outside [0, n)") {
    val g = GraphGen.toyFig2
    val n = g.n
    val v = Array.fill(n)(1.0)
    Seq((-1, 0), (0, -1), (n, 0), (0, n)).foreach { case (s, t) =>
      val e = intercept[IllegalArgumentException](Amc.estimate(g, s, t, v, v, 0.2, 4, 5, 0.01, engine, 1))
      assert(e.getMessage.contains("outside the node range"), s"($s,$t): ${e.getMessage}")
    }
  }

  test("estimate rejects delta outside (0, 1)") {
    val g = GraphGen.toyFig2
    val sVec = new Array[Double](g.n); sVec(0) = 1.0
    val tVec = new Array[Double](g.n); tVec(1) = 1.0
    Seq(0.0, -0.5, 1.0, 1.5, Double.NaN).foreach { delta =>
      val e = intercept[IllegalArgumentException](
        Amc.estimate(g, 0, 1, sVec, tVec, 0.2, 4, 5, delta, engine, 1))
      assert(e.getMessage.contains("is outside (0, 1)"), s"delta=$delta: ${e.getMessage}")
    }
  }

  test("estimate rejects score vectors whose length is not n") {
    val g = GraphGen.toyFig2
    val ok = new Array[Double](g.n); ok(0) = 1.0
    Seq(g.n - 1, g.n + 1).foreach { len =>
      val bad = new Array[Double](len); bad(1) = 1.0
      Seq((ok, bad), (bad, ok)).foreach { case (sVec, tVec) =>
        val e = intercept[IllegalArgumentException](
          Amc.estimate(g, 0, 1, sVec, tVec, 0.2, 4, 5, 0.01, engine, 1))
        assert(e.getMessage.contains(s"not n = ${g.n}"), s"length $len: ${e.getMessage}")
      }
    }
  }

  test("AmcEstimator wraps query with timing") {
    val f = TestGraphs.toy
    val est = new AmcEstimator(f.g, f.lambda, 0.01, 5, engine, seed = 1)
    val r = est.query(0, 1, 0.5)
    assert(est.name == "AMC")
    assert(r.nanos > 0)
    assert(math.abs(r.estimate - f.exactEr(0, 1)) <= 0.5)
  }

  test("remark of §3.3.2: AMC needs far fewer walks than TP's formula") {
    val f = TestGraphs.toy
    val eps = 0.2; val delta = 0.01
    val (s, t) = (0, 1)
    val r = Amc.query(f.g, f.lambda, s, t, eps, delta, 5, engine, seed = 2)
    val ellPeng = Ell.peng(eps, f.lambda)
    val tpWalks = 40.0 * ellPeng * ellPeng * math.log(8.0 * ellPeng / delta) / (eps * eps) * ellPeng
    assert(r.walks.toDouble < tpWalks / 100.0,
      s"AMC=${r.walks} vs TP-per-formula=$tpWalks")
  }
}
