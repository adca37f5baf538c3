package repro.baselines

import repro.core.{Amc, PerEstimator, PerResult, WalkEngine, Walks}
import repro.graph.CsrGraph
import repro.util.Rng

/** MC2 (Peng et al. 2021) — the dedicated edge-query baseline.
  *
  * For `(s,t) ∈ E`, `r(s,t)` equals the probability that a walk from `s`
  * arrives at `t` for the first time via the edge `(s,t)` (§2.3.1); MC2
  * estimates that probability directly. The sample count
  * `η = 3 ln(1/δ)/(ε² γ)` needs a lower bound `γ ≤ r(s,t)`; we use the
  * cut bound `r(s,t) ≥ 1/min(d(s), d(t))` (the effective conductance
  * between `s` and `t` is at most the capacity of the cut isolating
  * either endpoint), which is valid on every graph — tighter than the
  * generic `1/(2m)` that the paper notes gives `6m ln(1/δ)/ε²` walks.
  * Walks are capped at `maxSteps`, 50 × 2m (mean hitting time of an
  * adjacent node is < 2m); capped walks count as "arrived some other way".
  */
final class Mc2Estimator(g: CsrGraph, delta: Double, engine: WalkEngine, seed: Long,
                         scale: Double = 1.0) extends PerEstimator {
  val name = "MC2"
  Amc.requireDelta(delta)

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    Amc.requireNodes(g, s, t)
    require(g.hasEdge(s, t), s"MC2 answers edge queries only; ($s,$t) is not an edge")
    val gamma = 1.0 / math.min(g.degree(s), g.degree(t))
    val etaFaithful = 3.0 * math.log(1.0 / delta) / (eps * eps * gamma)
    val eta = math.max(100L, math.ceil(etaFaithful * scale).toLong)
    val maxSteps = math.max(1000L, (50.0 * 2.0 * g.m).toLong)
    val (hits, _) = engine.sumAndSumSq(eta, Rng.derive(seed, 0x4D32L), 2L * g.m) { (graph, rng) =>
      var prev = s
      var cur = Walks.step(graph, s, rng)
      var steps = 1L
      while (cur != t && steps < maxSteps) {
        prev = cur
        cur = Walks.step(graph, cur, rng)
        steps += 1
      }
      if (cur == t && prev == s) 1.0 else 0.0
    }
    PerResult(hits / eta, walks = eta)
  }
}
