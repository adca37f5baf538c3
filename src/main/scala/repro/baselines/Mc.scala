package repro.baselines

import repro.core.{Amc, PerEstimator, PerResult, WalkEngine, Walks}
import repro.graph.CsrGraph
import repro.util.Rng

/** MC (Peng et al. 2021) — the commute-time Monte Carlo baseline for
  * arbitrary pairs.
  *
  * Uses the escape-probability form of the commute identity: an excursion
  * from `s` (walk until first return to `s`) visits `t` with probability
  * `1/(d(s) r(s,t))`, so with `η` excursions of which `η_r` visit `t`,
  * `r'(s,t) = η / (d(s) η_r)` — the formula in §2.3.1. The sample count
  * `η = 3 γ d(s) ln(1/δ)/ε²` assumes a bound `r(s,t) ≤ γ`; the paper
  * leaves γ's choice open (worst case `n³/2m`), so we default to γ = 1
  * and record it. Excursions are capped at `maxSteps` (capped excursions
  * count as non-visits; the cap is far beyond the mean excursion length
  * `2m/d(s)` so its effect is negligible and it mirrors the paper's
  * one-day cutoff in spirit).
  */
final class McEstimator(g: CsrGraph, delta: Double, engine: WalkEngine, seed: Long,
                        gamma: Double = 1.0, scale: Double = 1.0,
                        maxStepsFactor: Double = 50.0) extends PerEstimator {
  val name = "MC"
  Amc.requireDelta(delta)

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    Amc.requireNodes(g, s, t)
    if (s == t) PerResult(0.0)
    else {
      val ds = g.degree(s)
      val etaFaithful = 3.0 * gamma * ds * math.log(1.0 / delta) / (eps * eps)
      val eta = math.max(100L, math.ceil(etaFaithful * scale).toLong)
      // Mean excursion length is 2m/d(s); cap generously above it.
      val maxSteps = math.max(1000L, (maxStepsFactor * 2.0 * g.m / ds).toLong)
      val meanLen = 2L * g.m / ds
      val (visits, _) = engine.sumAndSumSq(eta, Rng.derive(seed, 0x4C4DL), meanLen) { (graph, rng) =>
        var cur = Walks.step(graph, s, rng)
        var steps = 1L
        var sawT = cur == t
        while (cur != s && steps < maxSteps) {
          cur = Walks.step(graph, cur, rng)
          steps += 1
          if (cur == t) sawT = true
        }
        if (sawT && cur == s) 1.0 else 0.0
      }
      val est = if (visits <= 0.0) Double.PositiveInfinity else eta.toDouble / (ds * visits)
      PerResult(est, walks = eta)
    }
  }
}
