package repro.baselines

import repro.core.{Amc, PerEstimator, PerResult}
import repro.graph.CsrGraph
import repro.linalg.Dense
import repro.util.Rng

/** RP (Spielman–Srivastava 2008) — random projection with Laplacian
  * solves.
  *
  * Preprocessing builds `k = ⌈24 ln n / ε²⌉` (capped at `kCap`, recorded)
  * projected vectors `z_j = L† Bᵀ q_j / √k`, where `B` is the edge–node
  * incidence matrix and `q_j` a random ±1 edge vector; each solve uses
  * the from-scratch CG of `repro.linalg.Dense`. A query is then
  * `r'(s,t) = Σ_j (z_j(s) − z_j(t))²` in O(k) — the paper's point is that
  * the `Õ(m/ε²)` preprocessing, not the query, is what's prohibitive,
  * and that dense `k × n` storage OOMs on large graphs.
  *
  * Construction is eager, mirroring the paper's preprocessing phase;
  * `preprocessNanos` holds its cost so benches can report it separately.
  */
final class RpEstimator(g: CsrGraph, eps0: Double, seed: Long, kCap: Int = 2000)
    extends PerEstimator {
  val name = "RP"

  val kRequested: Int = math.ceil(24.0 * math.log(g.n.toDouble) / (eps0 * eps0)).toInt
  val k: Int = math.min(kRequested, kCap)

  val (z, preprocessNanos) = {
    val t0 = System.nanoTime()
    val edges = g.undirectedEdges.toArray
    val zs = Array.ofDim[Double](k, g.n)
    val invSqrtK = 1.0 / math.sqrt(k.toDouble)
    var j = 0
    while (j < k) {
      val rng = Rng(seed, j.toLong)
      val y = new Array[Double](g.n)
      var e = 0
      while (e < edges.length) {
        val (u, v) = edges(e)
        val sign = if (rng.nextDouble() < 0.5) 1.0 else -1.0
        y(u) += sign
        y(v) -= sign
        e += 1
      }
      val x = Dense.cgLaplacian(g, y, tol = 1e-8)
      var i = 0
      while (i < g.n) { zs(j)(i) = x(i) * invSqrtK; i += 1 }
      j += 1
    }
    (zs, System.nanoTime() - t0)
  }

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    Amc.requireNodes(g, s, t)
    var acc = 0.0
    var j = 0
    while (j < k) {
      val d = z(j)(s) - z(j)(t)
      acc += d * d
      j += 1
    }
    PerResult(acc)
  }
}
