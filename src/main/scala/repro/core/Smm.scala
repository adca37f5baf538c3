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
    *
    * An advance costs O(front): the degrees of the supports it scatters
    * from. The O(n) arrays, two dense buffers per vector and a stamp array,
    * are allocated once per State.
    */
  final class State(val g: CsrGraph, val s: Int, val t: Int) {
    val n: Int = g.n
    private val dsInv = 1.0 / g.degree(s)
    private val dtInv = 1.0 / g.degree(t)
    private val stamp = new Array[Int](n) // stamp(v) == epoch: v touched by this multiply
    private var epoch = 0
    private val sSide = new Side(s)
    private val tSide = new Side(t)

    /** `s*` and `t*` as dense arrays, zero off their supports. Each is the
      * current buffer, which [[advance]] reuses: a reference held across an
      * advance no longer shows the vector.
      */
    def sStar: Array[Double] = sSide.x
    def tStar: Array[Double] = tSide.x

    /** Iterations performed so far (ℓ_b). */
    var iters: Int = 0

    /** Running `r_b(s,t)`, initialized with the i = 0 term. */
    var rB: Double = term

    private def term: Double =
      sStar(s) * dsInv + tStar(t) * dtInv - sStar(t) * dsInv - tStar(s) * dtInv

    /** `Σ_{v∈V_s} d(v) + Σ_{v∈V_t} d(v)` — the operation count of the next
      * multiply, the left-hand side of the greedy rule (Eq. 17).
      */
    def frontierCost: Long = sSide.cost + tSide.cost

    /** `Amc.psi(sStar, tStar, d(s), d(t), ellF)`, from the supports' top two. */
    private[core] def psi(ellF: Int): Double = Amc.psi(sSide.top, tSide.top, g.degree(s), g.degree(t), ellF)

    /** One iteration: `s* ← P s*`, `t* ← P t*`, accumulate the new term. */
    def advance(): Unit = {
      sSide.multiply()
      tSide.multiply()
      rB += term
      iters += 1
    }

    /** `x = Pⁱ e_start` with its support `front(0 until size)` in
      * first-touch order, the support's degree sum and two largest values.
      */
    private final class Side(start: Int) {
      var x, y = new Array[Double](n) // y is all zero between multiplies
      var front, next = Array(start)
      var size = 1; var cost: Long = g.degree(start)
      val top = Array(1.0, 0.0) // the two largest entries of x
      x(start) = 1.0

      /** Sparse `x ← P x` via scatter from the support: every neighbour `v`
        * of a support node `u` gains `x(u)` in `y`, then touched entries are
        * scaled by `1/d(v)`. `x` is zeroed as it is read; the buffers swap.
        */
      def multiply(): Unit = {
        epoch += 1
        var len = 0
        var i = 0
        while (i < size) {
          val u = front(i)
          val xu = x(u)
          x(u) = 0.0
          var j = g.offsets(u)
          while (j < g.offsets(u + 1)) {
            val v = g.neighbors(j)
            if (stamp(v) != epoch) {
              stamp(v) = epoch
              if (len == next.length) next = java.util.Arrays.copyOf(next, 2 * len)
              next(len) = v; len += 1
            }
            y(v) += xu
            j += 1
          }
          i += 1
        }
        var m1, m2 = Double.NegativeInfinity
        cost = 0L
        var k = 0
        while (k < len) {
          val v = next(k)
          y(v) /= g.degree(v)
          cost += g.degree(v)
          if (y(v) > m1) { m2 = m1; m1 = y(v) } else if (y(v) > m2) m2 = y(v)
          k += 1
        }
        top(0) = math.max(m1, 0.0); top(1) = math.max(m2, 0.0)
        val nx = y; y = x; x = nx
        val nf = next; next = front; front = nf; size = len
      }
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
