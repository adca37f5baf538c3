package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CsrGraph, GraphGen}

class DenseSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol

  test("invertInPlace: 2x2") {
    val inv = Dense.invertInPlace(Array(Array(4.0, 7.0), Array(2.0, 6.0)))
    assert(approx(inv(0)(0), 0.6) && approx(inv(0)(1), -0.7))
    assert(approx(inv(1)(0), -0.2) && approx(inv(1)(1), 0.4))
  }

  test("invertInPlace: identity stays identity") {
    val inv = Dense.invertInPlace(Array.tabulate(5, 5)((i, j) => if (i == j) 1.0 else 0.0))
    for (i <- 0 until 5; j <- 0 until 5)
      assert(approx(inv(i)(j), if (i == j) 1.0 else 0.0))
  }

  test("invertInPlace: A * inv(A) = I for a random matrix") {
    val rng = repro.util.Rng(5)
    val n = 20
    val a = Array.tabulate(n, n)((_, _) => rng.nextDouble() - 0.5)
    val aCopy = a.map(_.clone())
    val inv = Dense.invertInPlace(aCopy)
    for (i <- 0 until n; j <- 0 until n) {
      val dot = (0 until n).map(k => a(i)(k) * inv(k)(j)).sum
      assert(approx(dot, if (i == j) 1.0 else 0.0, 1e-8), s"($i,$j): $dot")
    }
  }

  test("invertInPlace rejects singular matrix") {
    intercept[IllegalArgumentException] {
      Dense.invertInPlace(Array(Array(1.0, 2.0), Array(2.0, 4.0)))
    }
  }

  test("pseudo-inverse satisfies L L+ L = L (toy graph)") {
    val g = GraphGen.toyFig2
    val n = g.n
    val lap = Array.tabulate(n, n) { (i, j) =>
      if (i == j) g.degree(i).toDouble else if (g.hasEdge(i, j)) -1.0 else 0.0
    }
    val pinv = Dense.laplacianPseudoInverse(g)
    def mul(x: Array[Array[Double]], y: Array[Array[Double]]) =
      Array.tabulate(n, n)((i, j) => (0 until n).map(k => x(i)(k) * y(k)(j)).sum)
    val lpl = mul(mul(lap, pinv), lap)
    for (i <- 0 until n; j <- 0 until n)
      assert(approx(lpl(i)(j), lap(i)(j), 1e-7), s"($i,$j)")
  }

  test("pseudo-inverse is symmetric with zero row sums") {
    val g = GraphGen.cycle(9)
    val pinv = Dense.laplacianPseudoInverse(g)
    for (i <- 0 until g.n) {
      assert(approx(pinv(i).sum, 0.0, 1e-9), s"row $i sum")
      for (j <- 0 until g.n) assert(approx(pinv(i)(j), pinv(j)(i)), s"($i,$j)")
    }
  }

  test("exact ER: path graph endpoints = n-1 (series)") {
    Seq(2, 5, 10).foreach { n =>
      assert(approx(Dense.exactEr(GraphGen.path(n), 0, n - 1), n - 1.0, 1e-8), s"n=$n")
    }
  }

  test("exact ER: path graph interior = hop distance") {
    val g = GraphGen.path(10)
    assert(approx(Dense.exactEr(g, 2, 7), 5.0, 1e-8))
  }

  test("exact ER: cycle = a(n-a)/n (parallel)") {
    val n = 12
    val g = GraphGen.cycle(n)
    (1 until n).foreach { a =>
      assert(approx(Dense.exactEr(g, 0, a), a.toDouble * (n - a) / n, 1e-8), s"a=$a")
    }
  }

  test("exact ER: complete graph = 2/n") {
    Seq(3, 6, 10, 25).foreach { n =>
      assert(approx(Dense.exactEr(GraphGen.complete(n), 0, n - 1), 2.0 / n, 1e-8), s"n=$n")
    }
  }

  test("exact ER: r(s,s) = 0 and symmetry r(s,t) = r(t,s)") {
    val f = TestGraphs.er200
    assert(approx(f.exactEr(5, 5), 0.0))
    assert(approx(f.exactEr(3, 17), f.exactEr(17, 3)))
  }

  test("Foster's theorem: sum of ER over edges = n - 1") {
    Seq(TestGraphs.toy, TestGraphs.cycle9, TestGraphs.complete10, TestGraphs.er200).foreach { f =>
      val total = f.g.undirectedEdges.map { case (u, v) => f.exactEr(u, v) }.sum
      assert(approx(total, f.g.n - 1.0, 1e-6), s"${f.name}: $total vs ${f.g.n - 1}")
    }
  }

  test("ER is a metric: triangle inequality on sampled triples") {
    val f = TestGraphs.ba300
    val rng = repro.util.Rng(31)
    (0 until 50).foreach { _ =>
      val a = rng.nextInt(f.g.n); val b = rng.nextInt(f.g.n); val c = rng.nextInt(f.g.n)
      assert(f.exactEr(a, c) <= f.exactEr(a, b) + f.exactEr(b, c) + 1e-9)
    }
  }

  test("Rayleigh monotonicity: adding an edge never increases ER") {
    val base = GraphGen.cycle(9)
    val (s, t) = (0, 4)
    val before = Dense.exactEr(base, s, t)
    val augmented = CsrGraph.fromEdges(9, (base.undirectedEdges ++ Iterator((2, 7))).toSeq)
    val after = Dense.exactEr(augmented, s, t)
    assert(after <= before + 1e-12, s"before=$before after=$after")
  }

  test("ER bounds: 1/min(d(s),d(t)) <= r(s,t) <= dist(s,t) for edges") {
    val f = TestGraphs.ba300
    TestGraphs.edgePairs(f.g, 30).foreach { case (u, v) =>
      val r = f.exactEr(u, v)
      assert(r >= 1.0 / math.min(f.g.degree(u), f.g.degree(v)) - 1e-9, s"($u,$v) lower")
      assert(r <= 1.0 + 1e-9, s"($u,$v) upper")
    }
  }

  test("CG Laplacian solve matches dense solve for ER") {
    val f = TestGraphs.toy
    TestGraphs.pairs(f.g, 10).foreach { case (s, t) =>
      val b = new Array[Double](f.g.n)
      b(s) = 1.0; b(t) = -1.0
      val x = Dense.cgLaplacian(f.g, b)
      val rCg = x(s) - x(t)
      assert(approx(rCg, f.exactEr(s, t), 1e-7), s"($s,$t)")
    }
  }

  test("CG result is orthogonal to the all-ones null space") {
    val g = GraphGen.erdosRenyi(80, 0.08, seed = 4)
    val b = new Array[Double](g.n)
    b(0) = 1.0; b(g.n - 1) = -1.0
    val x = Dense.cgLaplacian(g, b)
    assert(approx(x.sum, 0.0, 1e-8))
  }

  test("CG solves L x = b: residual is small") {
    val g = TestGraphs.ba300.g
    val b = new Array[Double](g.n)
    b(1) = 1.0; b(42) = -1.0
    val x = Dense.cgLaplacian(g, b)
    (0 until g.n).foreach { v =>
      var acc = g.degree(v) * x(v)
      g.neighborsOf(v).foreach(u => acc -= x(u))
      assert(approx(acc, b(v), 1e-6), s"residual at $v")
    }
  }

  test("preconditioned CG meets its true-residual bound and matches pinv on a whiskered BA graph") {
    val g = TestGraphs.whiskered(300, 3, whiskers = 4, pendants = 6, seed = 12)
    assert(g.isConnected && g.degree(g.n - 1) == 1)
    val pinv = Dense.laplacianPseudoInverse(g)
    val pairs = TestGraphs.pairs(g, 12) ++ Seq((300, 325), (0, 318), (320, 321))
    Seq(1e-6, 1e-10).foreach { tol =>
      pairs.foreach { case (s, t) =>
        val b = new Array[Double](g.n)
        b(s) = 1.0; b(t) = -1.0
        val x = Dense.cgLaplacian(g, b, tol)
        val residual = math.sqrt((0 until g.n).map { v =>
          var acc = g.degree(v) * x(v)
          g.neighborsOf(v).foreach(u => acc -= x(u))
          (b(v) - acc) * (b(v) - acc)
        }.sum)
        assert(residual <= tol * math.sqrt(2.0), s"($s,$t) tol $tol: residual $residual")
        val exact = Dense.erFromPinv(pinv, s, t)
        assert(approx(x(s) - x(t), exact, 1e-9), s"($s,$t) tol $tol: ${x(s) - x(t)} vs $exact")
      }
    }
  }
}
