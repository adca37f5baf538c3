package repro.baselines

import repro.core.{Amc, PerEstimator, PerResult, WalkEngine, Walks}
import repro.graph.CsrGraph
import repro.util.Rng

/** HAY (Hayashi, Akiba, Yoshida 2016) — spanning-tree sampling for edge
  * queries.
  *
  * For an edge `(s,t)`, `r(s,t) = P[(s,t) ∈ T]` where `T` is a uniform
  * random spanning tree (Kirchhoff). We sample USTs with Wilson's
  * algorithm (loop-erased random walks rooted at `s`) — itself a
  * substrate built here from scratch — and report the fraction of trees
  * containing the edge. The tree count `N = ln(2/δ)/(2ε²)` comes from
  * Hoeffding on the 0/1 indicator.
  */
final class HayEstimator(g: CsrGraph, delta: Double, engine: WalkEngine, seed: Long)
    extends PerEstimator {
  val name = "HAY"
  Amc.requireDelta(delta)

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    Amc.requireNodes(g, s, t)
    require(g.hasEdge(s, t), s"HAY answers edge queries only; ($s,$t) is not an edge")
    val nTrees = math.max(50L, math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps)).toLong)
    // Wilson's expected cost is the mean hitting time — O(m·n) worst case,
    // usually far less; use m as the per-sample cost hint.
    val (hits, _) = engine.sumAndSumSq(nTrees, Rng.derive(seed, 0x57AAL), g.m) { (graph, rng) =>
      if (Wilson.treeContainsEdge(graph, root = s, rng, s, t)) 1.0 else 0.0
    }
    PerResult(hits / nTrees, walks = nTrees)
  }
}

/** Wilson's algorithm for uniform spanning trees via loop-erased random
  * walks (Propp–Wilson 1998).
  */
object Wilson {

  /** Samples a UST rooted at `root` and reports whether it contains the
    * undirected edge `{a, b}`. The tree is represented by the `next`
    * pointer of each non-root node (its parent); edge `{a,b}` is in the
    * tree iff `next(a) == b` or `next(b) == a`.
    */
  def treeContainsEdge(g: CsrGraph, root: Int, rng: Rng, a: Int, b: Int): Boolean = {
    val next = sampleTree(g, root, rng)
    next(a) == b || next(b) == a
  }

  /** Samples a UST rooted at `root`; returns the parent pointer array
    * (`-1` for the root).
    */
  def sampleTree(g: CsrGraph, root: Int, rng: Rng): Array[Int] = {
    val n = g.n
    val inTree = new Array[Boolean](n)
    val next = Array.fill(n)(-1)
    inTree(root) = true
    var v = 0
    while (v < n) {
      if (!inTree(v)) {
        // Random walk from v until hitting the tree, recording successor
        // pointers — repeated visits overwrite, which performs the loop
        // erasure implicitly.
        var cur = v
        while (!inTree(cur)) {
          val nxt = Walks.step(g, cur, rng)
          next(cur) = nxt
          cur = nxt
        }
        // Commit the loop-erased path.
        cur = v
        while (!inTree(cur)) {
          inTree(cur) = true
          cur = next(cur)
        }
      }
      v += 1
    }
    next
  }
}
