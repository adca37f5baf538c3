package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CsrGraph, GraphGen}

class SmmSpec extends AnyFunSuite {
  import SmmSpec.multiply

  test("State initial value is the i=0 term") {
    val g = GraphGen.toyFig2
    val st = new Smm.State(g, 0, 1)
    assert(math.abs(st.rB - (1.0 / g.degree(0) + 1.0 / g.degree(1))) < 1e-12)
    assert(st.iters == 0)
  }

  test("vectors track p_i(v, s): after one step s*(v) = 1/d(v) for v ~ s") {
    val g = GraphGen.toyFig2
    val st = new Smm.State(g, 0, 1)
    st.advance()
    (0 until g.n).foreach { v =>
      val expect = if (g.hasEdge(v, 0)) 1.0 / g.degree(v) else 0.0
      assert(math.abs(st.sStar(v) - expect) < 1e-12, s"v=$v")
    }
  }

  test("vectors stay probability-like: entries in [0,1]") {
    val g = TestGraphs.ba300.g
    val st = new Smm.State(g, 3, 77)
    (1 to 10).foreach { _ =>
      st.advance()
      st.sStar.foreach(x => assert(x >= -1e-15 && x <= 1.0 + 1e-12))
      st.tStar.foreach(x => assert(x >= -1e-15 && x <= 1.0 + 1e-12))
    }
  }

  test("s* converges to the reversed-stationary value d(s)-independent limit") {
    // s*(v) = p_i(v, s) → π(s) = d(s)/2m for every v (ergodic limit).
    val g = GraphGen.complete(10)
    val st = new Smm.State(g, 0, 5)
    (1 to 60).foreach(_ => st.advance())
    val expect = g.degree(0) / (2.0 * g.m)
    (0 until g.n).foreach(v => assert(math.abs(st.sStar(v) - expect) < 1e-9, s"v=$v"))
  }

  test("frontier grows monotonically and saturates at 2m-ish cost") {
    val g = TestGraphs.ba300.g
    val st = new Smm.State(g, 0, 1)
    var last = st.frontierCost
    assert(last == g.degree(0) + g.degree(1))
    var grew = false
    (1 to 8).foreach { _ =>
      st.advance()
      val c = st.frontierCost
      assert(c >= last, "frontier cost must not shrink on a connected graph")
      if (c > last) grew = true
      last = c
    }
    assert(grew)
    assert(last <= 4L * g.m)
  }

  test("run matches truncated series computed from dense matrix powers") {
    val g = GraphGen.toyFig2
    val n = g.n
    val (s, t) = (0, 1)
    // Dense reference: P as a matrix, accumulate Eq. (4) directly.
    val p = Array.tabulate(n, n)((i, j) => if (g.hasEdge(i, j)) 1.0 / g.degree(i) else 0.0)
    var es = Array.tabulate(n)(v => if (v == s) 1.0 else 0.0)
    var et = Array.tabulate(n)(v => if (v == t) 1.0 else 0.0)
    def mul(x: Array[Double]) =
      Array.tabulate(n)(i => (0 until n).map(j => p(i)(j) * x(j)).sum)
    var expect = 1.0 / g.degree(s) + 1.0 / g.degree(t)
    (1 to 7).foreach { i =>
      es = mul(es); et = mul(et)
      expect += es(s) / g.degree(s) + et(t) / g.degree(t) -
                es(t) / g.degree(s) - et(s) / g.degree(t)
      assert(math.abs(Smm.run(g, s, t, i) - expect) < 1e-10, s"ell_b=$i")
    }
  }

  test("run with 0 iterations returns the i=0 term") {
    val g = GraphGen.toyFig2
    assert(math.abs(Smm.run(g, 0, 1, 0) - (1.0 / 2 + 1.0 / 7)) < 1e-12)
  }

  test("run converges to exact ER as ell_b grows") {
    Seq(TestGraphs.toy, TestGraphs.complete10, TestGraphs.cycle9, TestGraphs.barbell8).foreach { f =>
      TestGraphs.pairs(f.g, 4).foreach { case (s, t) =>
        val approx = Smm.groundTruth(f.g, s, t, iters = 2000)
        assert(math.abs(approx - f.exactEr(s, t)) < 1e-5,
          s"${f.name} ($s,$t): $approx vs ${f.exactEr(s, t)}")
      }
    }
  }

  test("groundTruth on larger analog agrees with pinv-based exact") {
    val f = TestGraphs.ba500dense
    TestGraphs.pairs(f.g, 3).foreach { case (s, t) =>
      assert(math.abs(Smm.groundTruth(f.g, s, t) - f.exactEr(s, t)) < 1e-6)
    }
  }

  test("s = t returns 0") {
    assert(Smm.run(GraphGen.toyFig2, 4, 4, 10) == 0.0)
  }

  test("truncation residual shrinks as ell_b grows") {
    val f = TestGraphs.er200
    val (s, t) = TestGraphs.pairs(f.g, 1).head
    val exact = f.exactEr(s, t)
    val errs = Seq(2, 6, 12, 24).map(l => math.abs(exact - Smm.run(f.g, s, t, l)))
    assert(errs.zip(errs.tail).forall { case (a, b) => b <= a + 1e-12 },
      s"residuals not decreasing: $errs")
  }

  test("State is bit-identical to the allocate-and-copy multiply, zero off the support, with psi from the supports") {
    def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)
    val graphs = Seq(TestGraphs.toy.g, TestGraphs.complete10.g, TestGraphs.cycle9.g, TestGraphs.ba300.g,
      TestGraphs.whiskered(200, 3, whiskers = 4, pendants = 6, seed = 12))
    for {
      g <- graphs
      (s, t) <- TestGraphs.pairs(g, 3) :+ ((0, g.neighbor(0, 0)))
    } {
      val st = new Smm.State(g, s, t)
      val ds = g.degree(s); val dt = g.degree(t)
      val dsInv = 1.0 / ds; val dtInv = 1.0 / dt
      val sStar = new Array[Double](g.n); sStar(s) = 1.0
      val tStar = new Array[Double](g.n); tStar(t) = 1.0
      var sFront = Array(s); var tFront = Array(t)
      def term = sStar(s) * dsInv + tStar(t) * dtInv - sStar(t) * dsInv - tStar(s) * dtInv
      var rB = term
      (0 to 12).foreach { i =>
        if (i > 0) {
          st.advance()
          sFront = multiply(g, sStar, sFront); tFront = multiply(g, tStar, tFront)
          rB += term
        }
        val at = s"n=${g.n} ($s,$t) after $i advances"
        assert(st.sStar.map(bits).toSeq == sStar.map(bits).toSeq, at)
        assert(st.tStar.map(bits).toSeq == tStar.map(bits).toSeq, at)
        assert(bits(st.rB) == bits(rB), at)
        assert(st.frontierCost == (sFront ++ tFront).map(g.degree(_).toLong).sum, at)
        (0 until g.n).foreach { v =>
          if (!sFront.contains(v)) assert(bits(st.sStar(v)) == bits(0.0), s"$at: s*($v)")
          if (!tFront.contains(v)) assert(bits(st.tStar(v)) == bits(0.0), s"$at: t*($v)")
        }
        Seq(1, 2, 7).foreach { ellF =>
          assert(bits(st.psi(ellF)) == bits(Amc.psi(st.sStar, st.tStar, ds, dt, ellF)), s"$at: ellF=$ellF")
        }
      }
    }
  }
}

object SmmSpec {

  /** Sparse `x ← P x` by allocate-and-copy, the multiply before
    * `Smm.State` kept its state sized to the frontier: every neighbour `v`
    * of a support node `u` gains `x(u)` in a fresh zero array, touched
    * entries are scaled by `1/d(v)`, and the array is copied over `x`.
    * Returns the new support in first-touch order. The oracle for
    * `Smm.State`.
    */
  def multiply(g: CsrGraph, x: Array[Double], front: Array[Int]): Array[Int] = {
    val n = g.n
    val y = new Array[Double](n)
    val touched = new java.util.ArrayList[Int](front.length * 4)
    val seen = new Array[Boolean](n)
    var i = 0
    while (i < front.length) {
      val u = front(i)
      val xu = x(u)
      var j = g.offsets(u)
      while (j < g.offsets(u + 1)) {
        val v = g.neighbors(j)
        if (!seen(v)) { seen(v) = true; touched.add(v) }
        y(v) += xu
        j += 1
      }
      i += 1
    }
    val newFront = new Array[Int](touched.size())
    var k = 0
    while (k < touched.size()) {
      val v = touched.get(k)
      y(v) /= g.degree(v)
      newFront(k) = v
      k += 1
    }
    System.arraycopy(y, 0, x, 0, n)
    newFront
  }
}
