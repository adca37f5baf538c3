package repro.graph

import repro.util.Rng

/** Synthetic graph generators — the dataset substrate of the reproduction.
  *
  * The paper evaluates on six SNAP graphs that are unavailable offline
  * (DESIGN.md §3); `datasetAnalog` builds deterministic Barabási–Albert
  * analogs matching each dataset's average degree. All generators are
  * deterministic in their parameters and seed, return connected graphs,
  * and (where noted) guarantee non-bipartiteness, matching the paper's
  * standing assumptions (§2.1).
  */
object GraphGen {

  // ---------------------------------------------------------------- fixed

  /** Path graph `0 - 1 - ... - (n-1)`. Exact ER between the endpoints is
    * `n - 1` (series resistors). Bipartite — test-only.
    */
  def path(n: Int): CsrGraph =
    CsrGraph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))

  /** Cycle graph. Exact ER between nodes `a` hops apart on an `n`-cycle is
    * `a (n - a) / n` (parallel resistors). Odd cycles are non-bipartite.
    */
  def cycle(n: Int): CsrGraph =
    CsrGraph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))

  /** Complete graph `K_n`. Exact ER of every pair is `2 / n`. */
  def complete(n: Int): CsrGraph =
    CsrGraph.fromEdges(n, for (u <- 0 until n; v <- u + 1 until n) yield (u, v))

  /** Star graph: node 0 is the hub. Bipartite — test-only. */
  def star(n: Int): CsrGraph =
    CsrGraph.fromEdges(n, (1 until n).map(v => (0, v)))

  /** Two cliques of size `k` joined by a single bridge edge — a stress case
    * for walk-based estimators (high ER across the bridge).
    */
  def barbell(k: Int): CsrGraph = {
    val left  = for (u <- 0 until k; v <- u + 1 until k) yield (u, v)
    val right = for (u <- 0 until k; v <- u + 1 until k) yield (u + k, v + k)
    CsrGraph.fromEdges(2 * k, left ++ right ++ Seq((k - 1, k)))
  }

  /** The 11-node running-example graph of the paper's Fig. 2.
    *
    * The exact topology is not published; the paper specifies 11 nodes
    * (`v1..v9`, `s`, `t`) and the table implies `d(s) = 2` and `d(t) = 7`
    * (#paths of length 1). We construct a graph with those degrees where
    * `t` sits in a densely connected region (so its path counts explode
    * with ℓ_f, as in the table) while `s` has scant connections.
    * Node ids: s = 0, t = 1, v1..v9 = 2..10.
    */
  def toyFig2: CsrGraph = {
    val s = 0; val t = 1
    val v = (1 to 9).map(i => i + 1) // v1..v9 -> 2..10
    val edges = Seq(
      (s, v(0)), (s, v(1)),                      // d(s) = 2
      (t, v(2)), (t, v(3)), (t, v(4)), (t, v(5)),
      (t, v(6)), (t, v(7)), (t, v(8)),           // d(t) = 7
      (v(0), v(2)),                              // connect s-side to t-side
      (v(1), v(3)),
      (v(2), v(3)), (v(3), v(4)), (v(4), v(5)),  // dense region around t
      (v(5), v(6)), (v(6), v(7)), (v(7), v(8)),
      (v(2), v(4)),
    )
    CsrGraph.fromEdges(11, edges).requireErgodic()
  }

  // --------------------------------------------------------------- random

  /** Erdős–Rényi `G(n, p)` on `n ≥ 3` nodes, kept connected by a random
    * spanning path and made non-bipartite by `ensureErgodic`
    * (deterministic in seed).
    */
  def erdosRenyi(n: Int, p: Double, seed: Long = 7): CsrGraph = {
    require(n >= 3, s"n = $n: an ergodic graph needs at least 3 nodes")
    val rng = Rng(seed)
    val edges = Seq.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      var v = u + 1
      while (v < n) {
        if (rng.nextDouble() < p) edges += ((u, v))
        v += 1
      }
      u += 1
    }
    // Spine in random order keeps the graph connected without biasing
    // toward the path topology (each spine edge is one of m >> n edges).
    val perm = shuffled(n, Rng(seed, 1))
    (0 until n - 1).foreach(i => edges += ((perm(i), perm(i + 1))))
    ensureErgodic(CsrGraph.fromEdges(n, edges.result()))
  }

  /** Barabási–Albert preferential attachment: each new node attaches to
    * `mAttach` existing nodes chosen proportionally to degree (repeat
    * draws collapse — realized degree may be slightly lower). Produces a
    * connected, heavy-tailed graph on `n ≥ 3` nodes with average degree
    * ≈ `2·mAttach`.
    */
  def barabasiAlbert(n: Int, mAttach: Int, seed: Long = 11): CsrGraph = {
    require(n >= 3, s"n = $n: an ergodic graph needs at least 3 nodes")
    require(n > mAttach && mAttach >= 1)
    val rng = Rng(seed)
    val edges = Seq.newBuilder[(Int, Int)]
    // Repeated-endpoint list: preferential attachment by sampling ends.
    val ends = new scala.collection.mutable.ArrayBuffer[Int](4 * n * mAttach)
    // Seed clique on mAttach + 1 nodes (non-bipartite for mAttach >= 2;
    // for mAttach == 1 ensureErgodic adds a triangle).
    for (u <- 0 to mAttach; v <- u + 1 to mAttach) {
      edges += ((u, v)); ends += u; ends += v
    }
    var node = mAttach + 1
    while (node < n) {
      val chosen = scala.collection.mutable.Set.empty[Int]
      var tries = 0
      while (chosen.size < mAttach && tries < 10 * mAttach) {
        chosen += ends(rng.nextInt(ends.length))
        tries += 1
      }
      chosen.foreach { v =>
        edges += ((node, v)); ends += node; ends += v
      }
      node += 1
    }
    ensureErgodic(CsrGraph.fromEdges(n, edges.result()))
  }

  /** Closes a triangle over the first path `u - v - w` found if the graph
    * came out bipartite. The random generators call it on connected graphs
    * with `n ≥ 3`, where `u` or `v` has a second neighbour, which lies on
    * the other's side and so is not adjacent to it. Keeps determinism.
    */
  private def ensureErgodic(g: CsrGraph): CsrGraph =
    if (!g.isBipartite) g
    else {
      val (u, v) = g.undirectedEdges.next()
      val e = g.neighborsOf(v).find(_ != u).map(w => (u, w))
        .getOrElse((v, g.neighborsOf(u).find(_ != v).get))
      CsrGraph.fromEdges(g.n, (g.undirectedEdges ++ Iterator(e)).toSeq)
    }

  private def shuffled(n: Int, rng: Rng): Array[Int] = {
    val a = Array.tabulate(n)(identity)
    var i = n - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a
  }

  // ------------------------------------------------------ dataset analogs

  /** Registry of SNAP-analog datasets (DESIGN.md §3): name -> (n, mAttach).
    * `mAttach ≈ avgDeg / 2` reproduces each dataset's average degree.
    */
  val analogs: Map[String, (Int, Int)] = Map(
    "facebook-lite"    -> (4000, 22),
    "dblp-lite"        -> (20000, 3),
    "youtube-lite"     -> (30000, 3),
    "orkut-lite"       -> (10000, 38),
    "livejournal-lite" -> (20000, 9),
    "friendster-lite"  -> (40000, 28),
  )

  /** Paper's Table 3 statistics for the dataset each analog mimics. */
  val paperStats: Map[String, (Long, Long, Double)] = Map(
    "facebook-lite"    -> (4039L, 88234L, 43.69),
    "dblp-lite"        -> (317080L, 1049866L, 6.62),
    "youtube-lite"     -> (1134890L, 2987624L, 5.27),
    "orkut-lite"       -> (3072441L, 117185082L, 76.28),
    "livejournal-lite" -> (3997962L, 34681189L, 17.35),
    "friendster-lite"  -> (65608366L, 1806067135L, 55.06),
  )

  /** Builds a named dataset analog; deterministic per name.
    *
    * Structure: a Barabási–Albert core (heavy-tailed, matches the target
    * average degree) plus small dangling-clique "whiskers" attached by a
    * single edge. Pure BA graphs are strong expanders (λ ≈ 0.2–0.7),
    * which would make every truncated-walk length ℓ tiny and erase the
    * SMM/AMC trade-off the paper studies; real SNAP graphs mix slowly
    * (λ → 1) precisely because of such sparsely attached periphery
    * [Leskovec et al.'s "whiskers"]. A K5 whisker holds a walk for ~20
    * steps, putting λ in the 0.93–0.97 band without materially moving the
    * average degree (whiskers are <1% of nodes). See DESIGN.md §3.
    */
  def datasetAnalog(name: String): CsrGraph = {
    val (n, mA) = analogs.getOrElse(name,
      throw new IllegalArgumentException(s"unknown analog '$name'; known: ${analogs.keys.mkString(", ")}"))
    val whiskerSize = 5
    val whiskers = math.max(4, n / 4000)
    val coreN = n - whiskers * whiskerSize
    val seed = name.hashCode.toLong
    val core = barabasiAlbert(coreN, mA, seed)
    val rng = repro.util.Rng(seed, 0x3712L)
    val extra = Seq.newBuilder[(Int, Int)]
    var w = 0
    while (w < whiskers) {
      val base = coreN + w * whiskerSize
      for (a <- 0 until whiskerSize; b <- a + 1 until whiskerSize)
        extra += ((base + a, base + b))
      extra += ((base, rng.nextInt(coreN))) // single attachment edge
      w += 1
    }
    CsrGraph.fromEdges(n, (core.undirectedEdges ++ extra.result().iterator).toSeq)
      .requireErgodic()
  }
}
