package repro

import repro.graph.{CsrGraph, GraphGen, Spectral}
import repro.linalg.Dense

/** Shared, lazily cached test fixtures: small graphs with their exact
  * Laplacian pseudo-inverses and spectral radii. Everything here is
  * deterministic, so caching across suites is safe and keeps the run fast
  * (pinv is O(n³), λ is iterative).
  */
object TestGraphs {

  final case class Fixture(name: String, g: CsrGraph) {
    lazy val pinv: Array[Array[Double]] = Dense.laplacianPseudoInverse(g)
    lazy val lambda: Double = Spectral.lambda(g)
    def exactEr(s: Int, t: Int): Double = Dense.erFromPinv(pinv, s, t)
  }

  lazy val complete10   = Fixture("K10", GraphGen.complete(10))
  lazy val complete25   = Fixture("K25", GraphGen.complete(25))
  lazy val cycle9       = Fixture("C9", GraphGen.cycle(9))
  lazy val cycle15      = Fixture("C15", GraphGen.cycle(15))
  lazy val barbell8     = Fixture("barbell8", GraphGen.barbell(8))
  lazy val toy          = Fixture("toyFig2", GraphGen.toyFig2)
  lazy val er200        = Fixture("ER(200,0.05)", GraphGen.erdosRenyi(200, 0.05, seed = 3))
  lazy val ba300        = Fixture("BA(300,4)", GraphGen.barabasiAlbert(300, 4, seed = 5))
  lazy val ba500dense   = Fixture("BA(500,12)", GraphGen.barabasiAlbert(500, 12, seed = 9))

  /** The ergodic (connected + non-bipartite) fixtures most accuracy tests
    * sweep over.
    */
  lazy val ergodic: Seq[Fixture] =
    Seq(complete10, complete25, cycle9, cycle15, barbell8, toy, er200, ba300, ba500dense)

  /** A BA(`coreN`, `mAttach`) core with `whiskers` K5 cliques and then
    * `pendants` single nodes appended, each attached to the core by one
    * edge, as on the dataset analogs: degrees run from 1 to the hubs', and
    * the whiskers put eigenvalues close to 1 and to each other.
    */
  def whiskered(coreN: Int, mAttach: Int, whiskers: Int, pendants: Int, seed: Long): CsrGraph = {
    val core = GraphGen.barabasiAlbert(coreN, mAttach, seed)
    val rng = repro.util.Rng(seed, 0x3712L)
    val cliques = (0 until whiskers).flatMap { w =>
      val base = coreN + 5 * w
      (for (a <- 0 until 5; b <- a + 1 until 5) yield (base + a, base + b)) :+ ((base, rng.nextInt(coreN)))
    }
    val leaves = (0 until pendants).map(k => (coreN + 5 * whiskers + k, rng.nextInt(coreN)))
    CsrGraph.fromEdges(coreN + 5 * whiskers + pendants, (core.undirectedEdges ++ cliques ++ leaves).toSeq)
  }

  /** Deterministic query pairs (s, t), s != t, spread across a graph. */
  def pairs(g: CsrGraph, count: Int, seed: Long = 17): Seq[(Int, Int)] = {
    val rng = repro.util.Rng(seed)
    (0 until count).map { _ =>
      val s = rng.nextInt(g.n)
      var t = rng.nextInt(g.n)
      while (t == s) t = rng.nextInt(g.n)
      (s, t)
    }
  }

  /** Deterministic sample of edges of a graph. */
  def edgePairs(g: CsrGraph, count: Int, seed: Long = 23): Seq[(Int, Int)] = {
    val all = g.undirectedEdges.toVector
    val rng = repro.util.Rng(seed)
    (0 until count).map(_ => all(rng.nextInt(all.size)))
  }
}
