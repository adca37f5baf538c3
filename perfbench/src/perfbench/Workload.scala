package perfbench

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession

import repro.core.{Geer, PerResult, WalkEngine}
import repro.graph.{CsrGraph, GraphGen, Spectral}

/** The paper's query settings, as in `repro.bench.Harness`. */
object Settings {
  val Delta = 0.01
  val Tau = 5
  val LambdaTol = 1e-9
  val LambdaMaxIter = 3000
  /** Base of the per-pair Monte Carlo seed (the `Harness` default seed). */
  val QuerySeed = 2023L

  /** The per-pair seed `GeerEstimator` derives, so a pair always draws the
    * same walks whichever pass asks for it.
    */
  def querySeed(s: Int, t: Int): Long =
    repro.util.Rng.derive(QuerySeed, (s.toLong << 32) | t)
}

/** A dataset made queryable: the graph, its λ and the walk engine. */
final case class Prepared(g: CsrGraph, lambda: Double, engine: WalkEngine)

/** Wall time of each set-up step of one [[Prepare.run]], in seconds. */
final case class SetupTimes(graphS: Double, lambdaS: Double, engineS: Double) {
  def totalS: Double = graphS + lambdaS + engineS
}

object Prepare {
  /** `GraphGen.datasetAnalog` + `requireErgodic` + `Spectral.lambda` (the
    * `Harness` settings) + `WalkEngine` construction, each timed.
    */
  def run(spark: SparkSession, dataset: String): (Prepared, SetupTimes) = {
    val t0 = System.nanoTime()
    val g = GraphGen.datasetAnalog(dataset).requireErgodic()
    val t1 = System.nanoTime()
    val lambda = Spectral.lambda(g, tol = Settings.LambdaTol, maxIter = Settings.LambdaMaxIter)
    val t2 = System.nanoTime()
    val engine = new WalkEngine(spark, g)
    val t3 = System.nanoTime()
    (Prepared(g, lambda, engine), SetupTimes((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9))
  }

  /** CSR size computed from the array lengths (4-byte ints), in MiB. */
  def csrMb(g: CsrGraph): Double =
    (g.offsets.length.toLong + g.neighbors.length.toLong) * 4.0 / (1 << 20)
}

/** The query every workload asks of the program. */
object Query {
  /** Answers one pair through the program's public entry point. */
  def geer(p: Prepared, s: Int, t: Int, eps: Double): PerResult =
    Geer.query(p.g, p.lambda, s, t, eps, Settings.Delta, Settings.Tau, p.engine,
      Settings.querySeed(s, t))
}

/** Uniform query pairs with `s ≠ t`, generated from the benchmark seed.
  *
  * Every unordered pair belongs to the warm-up class or the measured class
  * by a seeded hash, and each class has its own stream that skips pairs of
  * the other class. The two sets are therefore disjoint and drawn from the
  * same distribution, and the measured pairs do not depend on how many
  * warm-up pairs a run used.
  */
final class PairStream(n: Int, seed: Long, measured: Boolean) {
  require(n >= 2, "need at least two nodes")
  private val rnd = new SplittableRandom(PairStream.mix(seed, if (measured) 1L else 2L))

  def next(): (Int, Int) = {
    var pair: (Int, Int) = null
    while (pair == null) {
      val s = rnd.nextInt(n)
      val t = rnd.nextInt(n)
      if (s != t && PairStream.isMeasured(seed, s, t) == measured) pair = (s, t)
    }
    pair
  }
}

object PairStream {
  def isMeasured(seed: Long, s: Int, t: Int): Boolean = {
    val lo = math.min(s, t).toLong
    val hi = math.max(s, t).toLong
    (mix(seed ^ 0x51A9L, (lo << 32) | hi) & 1L) == 1L
  }

  /** SplitMix64 finalizer over `seed ⊕ φ·stream`. */
  def mix(seed: Long, stream: Long): Long = {
    var z = seed ^ (stream * 0x9e3779b97f4a7c15L)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
