package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class EllSpec extends AnyFunSuite {

  test("peng ell: hand-computed value") {
    // eps = 0.5, lambda = 0.5: ln(4/(0.5*0.5)) / ln 2 − 1 = ln 16/ln 2 − 1 = 3
    assert(Ell.peng(0.5, 0.5) == 3)
  }

  test("refined ell: hand-computed value") {
    // d(s)=d(t)=4: (2/4+2/4)/(0.5*0.5) = 4, log2(4) − 1 = 1
    assert(Ell.refined(0.5, 0.5, 4, 4) == 1)
  }

  test("refined ell equals peng ell for degree-1 pair") {
    // 2/1 + 2/1 = 4 — the numerator of Eq. (5)
    Seq((0.1, 0.9), (0.5, 0.5), (0.05, 0.99)).foreach { case (eps, l) =>
      assert(Ell.refined(eps, l, 1, 1) == Ell.peng(eps, l))
    }
  }

  test("refined ell <= peng ell whenever degrees >= 1") {
    for {
      eps <- Seq(0.01, 0.05, 0.1, 0.5)
      lambda <- Seq(0.3, 0.7, 0.9, 0.99)
      ds <- Seq(1, 2, 5, 50, 500)
      dt <- Seq(1, 3, 40)
    } assert(Ell.refined(eps, lambda, ds, dt) <= Ell.peng(eps, lambda),
      s"eps=$eps lambda=$lambda ds=$ds dt=$dt")
  }

  test("ell grows as eps shrinks") {
    val l = 0.9
    assert(Ell.peng(0.01, l) > Ell.peng(0.1, l))
    assert(Ell.refined(0.01, l, 10, 10) > Ell.refined(0.1, l, 10, 10))
  }

  test("ell grows with lambda") {
    assert(Ell.peng(0.1, 0.99) > Ell.peng(0.1, 0.5))
    assert(Ell.refined(0.1, 0.99, 5, 5) > Ell.refined(0.1, 0.5, 5, 5))
  }

  test("refined ell shrinks with larger degrees") {
    val (eps, l) = (0.05, 0.95)
    assert(Ell.refined(eps, l, 100, 100) <= Ell.refined(eps, l, 2, 2))
  }

  test("invalid parameters rejected") {
    intercept[IllegalArgumentException](Ell.peng(0.0, 0.5))
    intercept[IllegalArgumentException](Ell.peng(0.1, 1.0))
    intercept[IllegalArgumentException](Ell.refined(0.1, 0.5, 0, 3))
  }

  test("ell fails fast as lambda -> 1 instead of saturating at Int.MaxValue") {
    assert(Ell.peng(0.1, 1 - 1e-6) > 1000000)
    val lambda = 1 - 1e-12
    val e = intercept[IllegalArgumentException](Ell.peng(0.1, lambda))
    assert(e.getMessage.contains("too close to 1"))
    intercept[IllegalArgumentException](Ell.refined(0.1, lambda, 3, 3))
  }

  test("truncation guarantee: |r − r_ell| <= eps/2 with refined ell") {
    for {
      f <- Seq(TestGraphs.toy, TestGraphs.complete10, TestGraphs.cycle9, TestGraphs.ba300)
      eps <- Seq(0.5, 0.1)
      (s, t) <- TestGraphs.pairs(f.g, 5)
    } {
      val ell = Ell.refined(eps, f.lambda, f.g.degree(s), f.g.degree(t))
      val rEll = Smm.run(f.g, s, t, ell)
      val exact = f.exactEr(s, t)
      assert(math.abs(exact - rEll) <= eps / 2 + 1e-9,
        s"${f.name} ($s,$t) eps=$eps ell=$ell: |${exact} - ${rEll}|")
    }
  }

  test("truncation guarantee: |r − r_ell| <= eps/2 with peng ell") {
    for {
      f <- Seq(TestGraphs.toy, TestGraphs.er200)
      eps <- Seq(0.5, 0.1)
      (s, t) <- TestGraphs.pairs(f.g, 5)
    } {
      val ell = Ell.peng(eps, f.lambda)
      val rEll = Smm.run(f.g, s, t, ell)
      assert(math.abs(f.exactEr(s, t) - rEll) <= eps / 2 + 1e-9,
        s"${f.name} ($s,$t) eps=$eps ell=$ell")
    }
  }
}
