package repro.graph

import java.util.stream.IntStream

import repro.util.Rng

/** Spectral preprocessing: estimates `λ = max{|λ₂|, |λ_n|}` of the
  * transition matrix `P = D⁻¹A` (the quantity both ℓ formulas need,
  * §3.1 — the paper computes it once per graph with ARPACK).
  *
  * `P` is similar to the symmetric `N = D^{-1/2} A D^{-1/2}` (same
  * eigenvalues), whose top eigenvector is `u₁(v) ∝ √d(v)`. We run power
  * iteration on `N²` (so mixed-sign eigenvalues cannot cause oscillation)
  * with `u₁` deflated out each step; the dominant remaining eigenvalue of
  * `N²` is `λ²`. This is our stand-in for the Implicitly Restarted Arnoldi
  * Method: both reduce to repeated sparse matrix–vector products, O(m) per
  * step.
  *
  * One iteration is five passes over preallocated arrays. The unit iterate
  * `x` is never stored: the passes keep `z = x/√d`, which every product
  * reads, computed once per node instead of once per edge.
  *  1. `z(v) = (y(v)/‖y‖)/√d(v)`;
  *  1. `z₂(v) = (Σ_{u∈N(v)} z(u) / √d(v)) / √d(v)`, that is `(N x)(v)/√d(v)`;
  *  1. `y(v) = Σ_{u∈N(v)} z₂(u) / √d(v)`, that is `(N² x)(v)`;
  *  1. `dot = Σ y(v)·u₁(v)`;
  *  1. `y(v) −= dot·u₁(v)` and `‖y‖² = Σ y(v)²`.
  *
  * Passes 1–3 compute each row on its own, so they run in fixed blocks of
  * [[BlockRows]] rows on the JVM's common `ForkJoinPool` (or the pool of the
  * calling task). Passes 4 and 5 are sums, and run serially in node order.
  * Every stored double is the value that one-vector-at-a-time power
  * iteration (apply `N` twice, deflate, normalise) computes, by the same
  * operations in the same order, so λ is identical bit for bit to that
  * iteration's, on any number of threads.
  */
object Spectral {

  /** Rows per block of a parallel row pass. */
  private[graph] final val BlockRows = 512

  /** Local CSR implementation. Deterministic (fixed start vector).
    *
    * @param tol     convergence tolerance on successive λ² estimates, in (0, 1)
    * @param maxIter cap on the number of N² applications, at least 1
    */
  def lambda(g: CsrGraph, tol: Double = 1e-10, maxIter: Int = 5000): Double = {
    val n = g.n
    require(n >= 2, "need at least 2 nodes")
    require(maxIter >= 1, s"maxIter = $maxIter must be at least 1")
    require(tol > 0.0 && tol < 1.0, s"tol = $tol is outside (0, 1)")
    g.requireErgodic()
    val offsets = g.offsets
    val nbrs = g.neighbors
    val sqrtDeg = Array.tabulate(n)(v => math.sqrt(g.degree(v).toDouble))
    // u1 normalized: u1(v) = sqrt(d(v)) / sqrt(2m)
    val u1 = {
      val norm = math.sqrt(2.0 * g.m)
      Array.tabulate(n)(v => sqrtDeg(v) / norm)
    }
    val z = new Array[Double](n)
    val z2 = new Array[Double](n)
    // Start vector: deterministic pseudo-random, deflated.
    val y = Array.tabulate(n)(v => Rng(0xE1EC7B1CL, v.toLong).nextDouble() - 0.5)
    val startNorm = deflateNorm(y, u1)
    // x / 1.0 == x: a zero start vector is left as it is.
    var norm = if (startNorm > 0) startNorm else 1.0

    var est = 0.0
    var prev = -1.0
    var it = 0
    while (it < maxIter && math.abs(est - prev) > tol) {
      prev = est
      val scale = norm
      rowBlocks(n) { (from, until) =>
        var v = from
        while (v < until) { z(v) = y(v) / scale / sqrtDeg(v); v += 1 }
      }
      rowBlocks(n) { (from, until) =>
        var v = from
        while (v < until) {
          var acc = 0.0
          var i = offsets(v)
          val end = offsets(v + 1)
          while (i < end) { acc += z(nbrs(i)); i += 1 }
          z2(v) = acc / sqrtDeg(v) / sqrtDeg(v)
          v += 1
        }
      }
      rowBlocks(n) { (from, until) =>
        var v = from
        while (v < until) {
          var acc = 0.0
          var i = offsets(v)
          val end = offsets(v + 1)
          while (i < end) { acc += z2(nbrs(i)); i += 1 }
          y(v) = acc / sqrtDeg(v)
          v += 1
        }
      }
      norm = deflateNorm(y, u1)
      if (norm < 1e-300) return 0.0 // N²x vanished outside u₁: nothing to normalise
      est = norm // ||N² x|| / ||x|| with ||x|| = 1 -> converges to λ²
      it += 1
    }
    math.min(math.sqrt(math.max(est, 0.0)), 1.0 - 1e-12)
  }

  /** Deflates `u1` out of `y` in place and returns `‖y‖`, both sums taken
    * serially in node order.
    */
  private def deflateNorm(y: Array[Double], u1: Array[Double]): Double = {
    var dot = 0.0
    var i = 0
    while (i < y.length) { dot += y(i) * u1(i); i += 1 }
    var sq = 0.0
    i = 0
    while (i < y.length) {
      y(i) -= dot * u1(i)
      sq += y(i) * y(i)
      i += 1
    }
    math.sqrt(sq)
  }

  /** Runs `body(from, until)` over the rows `[0, n)` in blocks of
    * [[BlockRows]]; a graph of one block runs inline.
    */
  private def rowBlocks(n: Int)(body: (Int, Int) => Unit): Unit = {
    val blocks = (n + BlockRows - 1) / BlockRows
    if (blocks == 1) body(0, n)
    else IntStream.range(0, blocks).parallel().forEach { b =>
      body(b * BlockRows, math.min(n, (b + 1) * BlockRows))
    }
  }
}
