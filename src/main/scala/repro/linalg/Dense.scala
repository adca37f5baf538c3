package repro.linalg

import repro.graph.CsrGraph

/** Dense linear algebra substrate, written from scratch.
  *
  * Provides what the EXACT baseline and the ground-truth oracle need:
  * Gauss–Jordan inversion, the Moore–Penrose pseudo-inverse of the graph
  * Laplacian, and exact effective resistances. `O(n³)` — used on graphs
  * with up to a few thousand nodes only (larger ground truth comes from
  * SMM with 1000 iterations, exactly as the paper's §5.1 does).
  */
object Dense {

  /** In-place Gauss–Jordan inversion with partial pivoting.
    * `a` is row-major `n × n`; returns its inverse (destroys `a`).
    */
  def invertInPlace(a: Array[Array[Double]]): Array[Array[Double]] = {
    val n = a.length
    val inv = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    var col = 0
    while (col < n) {
      // pivot
      var piv = col
      var best = math.abs(a(col)(col))
      var r = col + 1
      while (r < n) {
        val v = math.abs(a(r)(col))
        if (v > best) { best = v; piv = r }
        r += 1
      }
      require(best > 1e-300, s"singular matrix at column $col")
      if (piv != col) {
        val t = a(piv); a(piv) = a(col); a(col) = t
        val ti = inv(piv); inv(piv) = inv(col); inv(col) = ti
      }
      val d = a(col)(col)
      var j = 0
      while (j < n) { a(col)(j) /= d; inv(col)(j) /= d; j += 1 }
      r = 0
      while (r < n) {
        if (r != col) {
          val f = a(r)(col)
          if (f != 0.0) {
            var k = 0
            while (k < n) {
              a(r)(k) -= f * a(col)(k)
              inv(r)(k) -= f * inv(col)(k)
              k += 1
            }
          }
        }
        r += 1
      }
      col += 1
    }
    inv
  }

  /** Moore–Penrose pseudo-inverse of the Laplacian `L = D − A` via the
    * identity `L† = (L + J/n)⁻¹ − J/n` (valid for connected graphs, where
    * `J` is the all-ones matrix).
    */
  def laplacianPseudoInverse(g: CsrGraph): Array[Array[Double]] = {
    val n = g.n
    val a = Array.tabulate(n, n) { (i, j) =>
      val lap = if (i == j) g.degree(i).toDouble
                else if (g.hasEdge(i, j)) -1.0 else 0.0
      lap + 1.0 / n
    }
    val inv = invertInPlace(a)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < n) { inv(i)(j) -= 1.0 / n; j += 1 }
      i += 1
    }
    inv
  }

  /** Exact ER from a precomputed `L†`:
    * `r(s,t) = L†(s,s) + L†(t,t) − 2 L†(s,t)` (Definition 2.1).
    */
  def erFromPinv(pinv: Array[Array[Double]], s: Int, t: Int): Double =
    pinv(s)(s) + pinv(t)(t) - 2.0 * pinv(s)(t)

  /** Exact ER of a single pair by one dense solve of
    * `(L + J/n) x = e_s − e_t`; `r = (e_s − e_t)ᵀ x` (the `J/n` shifts
    * cancel because the right-hand side is mean-zero).
    */
  def exactEr(g: CsrGraph, s: Int, t: Int): Double = {
    if (s == t) return 0.0
    val pinv = laplacianPseudoInverse(g)
    erFromPinv(pinv, s, t)
  }

  /** Conjugate-gradient solve of `L x = b` for mean-zero `b` on a
    * connected graph, keeping iterates mean-zero (the component along the
    * null space `1` is projected out of `b`, of the residual every 50
    * iterations, and of `x` at the end). Used by the RP baseline and as an
    * ER reference.
    *
    * Preconditioned by `D⁻¹` (Jacobi): on graphs with hubs and a degree-1
    * periphery, such as the dataset analogs, it needs several times fewer
    * iterations than plain CG. The iterations allocate nothing.
    *
    * Stops when the true residual meets `‖b − L x‖ ≤ tol·‖b‖` (for the
    * projected `b`), or after `maxIter` iterations. The recurrence residual
    * is tested each iteration; once it passes, `b − L x` is computed, and if
    * that misses the bound, the recurrence restarts from it.
    *
    * @return x with `Σ x(i) = 0`
    */
  def cgLaplacian(g: CsrGraph, b: Array[Double],
                  tol: Double = 1e-10, maxIter: Int = 10000): Array[Double] = {
    val n = g.n
    val offsets = g.offsets
    val nbrs = g.neighbors
    val invDeg = Array.tabulate(n)(v => 1.0 / math.max(g.degree(v), 1))
    /** `y = L x`; returns `Σ x(i) y(i)`. */
    def lapMul(x: Array[Double], y: Array[Double]): Double = {
      var xy = 0.0
      var v = 0
      while (v < n) {
        var acc = (offsets(v + 1) - offsets(v)) * x(v)
        var i = offsets(v)
        while (i < offsets(v + 1)) { acc -= x(nbrs(i)); i += 1 }
        y(v) = acc
        xy += x(v) * acc
        v += 1
      }
      xy
    }
    def project(x: Array[Double]): Unit = {
      var mean = 0.0; var i = 0
      while (i < n) { mean += x(i); i += 1 }
      mean /= n; i = 0
      while (i < n) { x(i) -= mean; i += 1 }
    }
    def norm(u: Array[Double]): Double = {
      var acc = 0.0; var i = 0
      while (i < n) { acc += u(i) * u(i); i += 1 }
      math.sqrt(acc)
    }
    val bp = b.clone(); project(bp)
    val bound = tol * (norm(bp) max 1e-300)
    val x = new Array[Double](n)
    val r = bp.clone()
    val p = new Array[Double](n)
    val ap = new Array[Double](n)
    /** Sets the search direction to `D⁻¹ r`; returns `rᵀ D⁻¹ r`. */
    def restart(): Double = {
      var rz = 0.0; var i = 0
      while (i < n) { p(i) = r(i) * invDeg(i); rz += r(i) * p(i); i += 1 }
      rz
    }
    var rz = restart()
    var rNorm = norm(r)
    var it = 0
    var done = false
    while (!done && it < maxIter) {
      if (rNorm <= bound) {
        lapMul(x, ap)
        var i = 0
        while (i < n) { r(i) = bp(i) - ap(i); i += 1 }
        rNorm = norm(r)
        if (rNorm <= bound) done = true else rz = restart()
      }
      if (!done) {
        val alpha = rz / lapMul(p, ap)
        var rzNew = 0.0
        var rr = 0.0
        var i = 0
        while (i < n) {
          x(i) += alpha * p(i)
          r(i) -= alpha * ap(i)
          rzNew += r(i) * r(i) * invDeg(i)
          rr += r(i) * r(i)
          i += 1
        }
        val beta = rzNew / rz
        i = 0
        while (i < n) { p(i) = r(i) * invDeg(i) + beta * p(i); i += 1 }
        rz = rzNew
        rNorm = math.sqrt(rr)
        it += 1
        if (it % 50 == 0) { project(r); rNorm = norm(r) } // counter drift into the null space
      }
    }
    project(x)
    x
  }
}
