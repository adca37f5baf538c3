package repro.core

import repro.graph.CsrGraph

/** SMM — deterministic graph traversal by sparse matrix–vector
  * multiplication (the paper's Algorithm 2).
  *
  * Maintains `s* = Pⁱ e_s` and `t* = Pⁱ e_t` (so `s*(v) = p_i(v, s)`,
  * Eq. 15) and accumulates
  * `r_b += s*(s)/d(s) + t*(t)/d(t) − s*(t)/d(s) − t*(s)/d(t)` per
  * iteration. The multiply is frontier-sparse: only nodes reachable from
  * the current non-zero set are touched, so early iterations cost far less
  * than O(m) — exactly the regime GEER exploits.
  */
object Smm {

  /** Mutable SMM state, advanced one iteration at a time so GEER can
    * interleave the greedy switch test (Eq. 17) between iterations.
    */
  final class State(val g: CsrGraph, val s: Int, val t: Int) {
    val n: Int = g.n
    private val dsInv = 1.0 / g.degree(s)
    private val dtInv = 1.0 / g.degree(t)

    /** `s*` and `t*` as dense arrays (sparse in the early iterations). */
    val sStar = new Array[Double](n)
    val tStar = new Array[Double](n)
    /** Non-zero supports `V_s`, `V_t` (monotone under P for connected G). */
    private var sFront: Array[Int] = Array(s)
    private var tFront: Array[Int] = Array(t)
    sStar(s) = 1.0
    tStar(t) = 1.0

    /** Iterations performed so far (ℓ_b). */
    var iters: Int = 0

    /** Running `r_b(s,t)`, initialized with the i = 0 term. */
    var rB: Double = term

    private def term: Double =
      sStar(s) * dsInv + tStar(t) * dtInv - sStar(t) * dsInv - tStar(s) * dtInv

    /** `Σ_{v∈V_s} d(v) + Σ_{v∈V_t} d(v)` — the operation count of the next
      * multiply, the left-hand side of the greedy rule (Eq. 17).
      */
    def frontierCost: Long = {
      var acc = 0L
      var i = 0
      while (i < sFront.length) { acc += g.degree(sFront(i)); i += 1 }
      i = 0
      while (i < tFront.length) { acc += g.degree(tFront(i)); i += 1 }
      acc
    }

    /** One iteration: `s* ← P s*`, `t* ← P t*`, accumulate the new term. */
    def advance(): Unit = {
      sFront = multiply(sStar, sFront)
      tFront = multiply(tStar, tFront)
      rB += term
      iters += 1
    }

    /** Sparse `x ← P x` via scatter from the non-zero support: every
      * neighbour `v` of a support node `u` gains `x(u)`, then touched
      * entries are scaled by `1/d(v)`. Returns the new support.
      */
    private def multiply(x: Array[Double], front: Array[Int]): Array[Int] = {
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

  /** Full SMM run (Algorithm 2): `ℓ_b` iterations, returns `r_b(s,t)`. */
  def run(g: CsrGraph, s: Int, t: Int, ellB: Int): Double = {
    if (s == t) return 0.0
    val st = new State(g, s, t)
    var i = 0
    while (i < ellB) { st.advance(); i += 1 }
    st.rB
  }

  /** Ground-truth ER as the paper's §5.1 computes it: SMM with a large
    * iteration count (default 1000 ⇒ truncation error ~1e-8..1e-6).
    * Stops early once the per-iteration increment has been below `tol`
    * for three consecutive iterations (increments decay geometrically
    * with λ, so a sustained sub-tol run means the tail is negligible).
    */
  def groundTruth(g: CsrGraph, s: Int, t: Int, iters: Int = 1000,
                  tol: Double = 1e-12): Double = {
    if (s == t) return 0.0
    val st = new State(g, s, t)
    var below = 0
    var i = 0
    while (i < iters && below < 3) {
      val before = st.rB
      st.advance()
      if (math.abs(st.rB - before) < tol) below += 1 else below = 0
      i += 1
    }
    st.rB
  }
}
