package repro.bench

import repro.baselines._
import repro.core._
import repro.graph.{CsrGraph, GraphGen, Spectral}

/** Shared benchmark harness behind every reproduced table (DESIGN.md §4).
  *
  * One instance per process; datasets and their spectral radii are cached
  * (λ is the paper's per-graph preprocessing, §3.1). All randomness is
  * seeded from one fixed seed, so reruns print identical tables.
  */
final class Harness {
  private val seed = 2023L

  /** δ and τ as in the paper's §5.1. */
  val delta = 0.01
  val tau = 5

  private val graphCache = scala.collection.mutable.Map.empty[String, CsrGraph]
  private val lambdaCache = scala.collection.mutable.Map.empty[String, Double]
  private val engineCache = scala.collection.mutable.Map.empty[String, WalkEngine]

  def graph(name: String): CsrGraph =
    graphCache.getOrElseUpdate(name, GraphGen.datasetAnalog(name))

  def lambda(name: String): Double =
    lambdaCache.getOrElseUpdate(name, Spectral.lambda(graph(name), tol = 1e-9, maxIter = 3000))

  def engine(name: String): WalkEngine =
    engineCache.getOrElseUpdate(name, new WalkEngine(graph(name)))

  /** The paper's random query workload: `count` uniform pairs (§5.1). */
  def randomPairs(name: String, count: Int = 20): Seq[(Int, Int)] = {
    val g = graph(name)
    val rng = repro.util.Rng(seed, name.hashCode.toLong)
    (0 until count).map { _ =>
      val s = rng.nextInt(g.n)
      var t = rng.nextInt(g.n)
      while (t == s) t = rng.nextInt(g.n)
      (s, t)
    }
  }

  /** The paper's edge query workload: `count` uniform edges (§5.1). */
  def randomEdges(name: String, count: Int = 20): Seq[(Int, Int)] = {
    val g = graph(name)
    val edges = g.undirectedEdges.toVector
    val rng = repro.util.Rng(seed, name.hashCode + 1L)
    (0 until count).map(_ => edges(rng.nextInt(edges.size)))
  }

  private val truthCache = scala.collection.mutable.Map.empty[(String, Int, Int), Double]

  /** Deterministic ground truth per pair: SMM with up to 1000 iterations
    * and early stop (as §5.1: "SMM with 1000 iterations, ε ≈ 1e-8..1e-6").
    * Memoized — several tables share workloads.
    */
  def groundTruth(name: String, pairs: Seq[(Int, Int)]): Map[(Int, Int), Double] = {
    val g = graph(name)
    pairs.distinct.map { p =>
      val v = truthCache.getOrElseUpdate((name, p._1, p._2), Smm.groundTruth(g, p._1, p._2))
      p -> v
    }.toMap
  }

  // ------------------------------------------------------- estimator kits

  /** TP/TPC walk-count down-scaling per dataset tier (recorded in every
    * table header and in EXPERIMENTS.md): the faithful constants would
    * exceed the paper's one-day cutoff equivalent on a laptop-scale run.
    */
  def baselineScale(name: String): Double = graph(name).m match {
    case m if m < 200_000L  => 1e-3
    case m if m < 700_000L  => 1e-4
    case _                  => 5e-5
  }

  def geer(name: String): PerEstimator =
    new GeerEstimator(graph(name), lambda(name), delta, tau, engine(name), seed)

  def geerWithTau(name: String, tauOverride: Int): PerEstimator =
    new GeerEstimator(graph(name), lambda(name), delta, tauOverride, engine(name), seed)

  def geerWithLb(name: String, lb: Int): PerEstimator =
    new GeerEstimator(graph(name), lambda(name), delta, tau, engine(name), seed, Some(lb))

  def amc(name: String): PerEstimator =
    new AmcEstimator(graph(name), lambda(name), delta, tau, engine(name), seed + 1)

  def amcWithTau(name: String, tauOverride: Int): PerEstimator =
    new AmcEstimator(graph(name), lambda(name), delta, tauOverride, engine(name), seed + 1)

  def smm(name: String): PerEstimator = new SmmEstimator(graph(name), lambda(name))

  def smmPengEll(name: String): PerEstimator =
    new SmmEstimator(graph(name), lambda(name), usePengEll = true)

  def tp(name: String): PerEstimator =
    new TpEstimator(graph(name), lambda(name), delta, engine(name), seed + 2,
      scale = baselineScale(name), minWalks = 1000, maxWalksPerLen = 5_000L)

  def tpc(name: String): PerEstimator =
    new TpcEstimator(graph(name), lambda(name), delta, seed + 3,
      scale = baselineScale(name), minWalks = 1000, maxWalksPerLen = 5_000L)

  def mc2(name: String): PerEstimator =
    new Mc2Estimator(graph(name), delta, engine(name), seed + 4, scale = 0.05)

  def hay(name: String): PerEstimator =
    new HayEstimator(graph(name), delta, engine(name), seed + 5)

  private val rpCache = scala.collection.mutable.Map.empty[(String, Double), PerEstimator]
  private val exactCache = scala.collection.mutable.Map.empty[String, PerEstimator]

  /** RP/EXACT preprocessing (k CG solves / O(n³) inversion) is the bulk
    * of their cost — memoized so per-ε sweeps measure queries, as the
    * paper does (its RP/EXACT also preprocess once per graph).
    */
  def rp(name: String, eps0: Double): PerEstimator =
    rpCache.getOrElseUpdate((name, eps0), new RpEstimator(graph(name), eps0, seed + 6, kCap = 1500))

  def exact(name: String): PerEstimator =
    exactCache.getOrElseUpdate(name, new ExactEstimator(graph(name)))

  // ------------------------------------------------------------ reporting

  /** Runs `est` over the workload at `eps`; returns (avg ms, avg abs err,
    * avg walks) against `truth`.
    */
  def measure(est: PerEstimator, pairs: Seq[(Int, Int)], eps: Double,
              truth: Map[(Int, Int), Double]): (Double, Double, Double) = {
    var ms = 0.0; var err = 0.0; var walks = 0.0
    pairs.foreach { case (s, t) =>
      val r = est.query(s, t, eps)
      ms += r.millis
      err += math.abs(r.estimate - truth((s, t)))
      walks += r.walks.toDouble
    }
    (ms / pairs.size, err / pairs.size, walks / pairs.size)
  }

  def fmtMs(ms: Double): String = f"$ms%12.3f"
  def fmtErr(e: Double): String = f"$e%10.2e"
}

/** Table printer shared by the bench suites. */
object Tables {
  def header(title: String, cols: Seq[String]): Unit = {
    println()
    println("=" * 80)
    println(title)
    println("-" * 80)
    println(cols.mkString(" | "))
  }
  def row(cells: Seq[String]): Unit = println(cells.mkString(" | "))
  def footer(note: String = ""): Unit = {
    if (note.nonEmpty) println(note)
    println("=" * 80)
  }
}
