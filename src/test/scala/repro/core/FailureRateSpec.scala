package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.TestGraphs.Fixture
import repro.util.Rng

/** Theorem 3.4's guarantee holds per query: each answer misses the exact
  * ER by more than ε with probability at most δ. Each answer below has
  * its own seed (a pair drawn twice still gets fresh walks), so the miss
  * count is stochastically at most binomial(N, δ); a count above that
  * law's 1e-6 upper quantile (the rule perfbench's `correct` applies)
  * refutes the guarantee. λ comes from the
  * production `Spectral.lambda`, so a λ estimated too low, and with it too
  * short an ℓ, shows up here as misses.
  */
class FailureRateSpec extends AnyFunSuite {

  private val delta = 0.1
  private val tau = 5
  private val pairsPerGraph = 10
  private val seedsPerPair = 8

  /** Each fixture with its ε. Walk counts grow with ℓ³/ε², so the slowly
    * mixing graphs (ℓ ≈ 150–250) get a larger ε to keep a query to
    * milliseconds; the guarantee is the same at every ε.
    */
  private lazy val fixtures = Seq(
    TestGraphs.toy -> 0.1,
    TestGraphs.ba300 -> 0.1,
    TestGraphs.barbell8 -> 0.2,
    Fixture("whiskered BA(200,3)", TestGraphs.whiskered(200, 3, whiskers = 4, pendants = 6, seed = 12)) -> 0.3,
    TestGraphs.cycle15 -> 1.0)

  /** The smallest k with P[binomial(n, p) > k] ≤ alpha. */
  private def allowedMisses(n: Int, p: Double, alpha: Double = 1e-6): Int = {
    var pmf = math.pow(1.0 - p, n)
    var cdf = pmf
    var k = 0
    while (1.0 - cdf > alpha && k < n) {
      pmf *= (n - k).toDouble / (k + 1) * p / (1.0 - p)
      cdf += pmf
      k += 1
    }
    k
  }

  /** Answers every fixture's pairs under `seedsPerPair` seeds each and
    * checks the miss count against the binomial bound.
    */
  private def check(method: String)(answer: (Fixture, Double, WalkEngine, Int, Int, Long) => PerResult): Unit = {
    var n = 0; var misses = 0; var maxErrOverEps = 0.0; var walks = 0L; var smmIters = 0L
    fixtures.foreach { case (f, eps) =>
      val engine = new WalkEngine(f.g)
      for ((s, t) <- TestGraphs.pairs(f.g, pairsPerGraph); _ <- 0 until seedsPerPair) {
        val r = answer(f, eps, engine, s, t, Rng.derive(0xFA11L, n.toLong))
        val err = math.abs(r.estimate - f.exactEr(s, t))
        n += 1; walks += r.walks; smmIters += r.smmIters
        if (err > eps) misses += 1
        maxErrOverEps = math.max(maxErrOverEps, err / eps)
      }
    }
    val allowed = allowedMisses(n, delta)
    println(f"$method: $misses of $n answers off by more than eps (allowed $allowed at delta = $delta); " +
      f"max |err|/eps = $maxErrOverEps%.3f; per answer ${walks.toDouble / n}%.0f walks, ${smmIters.toDouble / n}%.1f SMM iterations")
    assert(n >= 400)
    assert(misses <= allowed, s"$method: $misses of $n answers off by more than eps, allowed $allowed")
  }

  test("AMC misses by more than eps at most as often as binomial(N, delta) allows") {
    check("AMC")((f, eps, engine, s, t, seed) => Amc.query(f.g, f.lambda, s, t, eps, delta, tau, engine, seed))
  }

  test("GEER misses by more than eps at most as often as binomial(N, delta) allows") {
    check("GEER")((f, eps, engine, s, t, seed) => Geer.query(f.g, f.lambda, s, t, eps, delta, tau, engine, seed))
  }

  test("GEER with a forced ell_b misses by more than eps at most as often as binomial(N, delta) allows") {
    check("GEER(ell_b = 3)")((f, eps, engine, s, t, seed) =>
      Geer.query(f.g, f.lambda, s, t, eps, delta, tau, engine, seed, ellBOverride = Some(3)))
  }
}
