package repro.baselines

import repro.core.{Amc, PerEstimator, PerResult}
import repro.graph.CsrGraph
import repro.linalg.Dense

/** EXACT — materializes the Moore–Penrose pseudo-inverse of `D − A`
  * (Definition 2.1) in an eager preprocessing step; queries are O(1)
  * lookups. `O(n³)` time and `O(n²)` space — like the paper's EXACT,
  * feasible only on the smallest dataset (it OOMs/loops beyond a few
  * thousand nodes, which the benches record rather than attempt).
  */
final class ExactEstimator(g: CsrGraph) extends PerEstimator {
  val name = "EXACT"

  val (pinv, preprocessNanos) = {
    val t0 = System.nanoTime()
    val p = Dense.laplacianPseudoInverse(g)
    (p, System.nanoTime() - t0)
  }

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    Amc.requireNodes(g, s, t)
    PerResult(Dense.erFromPinv(pinv, s, t))
  }
}
