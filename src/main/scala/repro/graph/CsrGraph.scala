package repro.graph

import org.apache.spark.sql.DataFrame

/** Compact CSR (compressed sparse row) representation of an undirected,
  * unweighted graph on nodes `0 .. n-1`.
  *
  * Every undirected edge `{u, v}` is stored twice (once per direction) so
  * `neighbors(offsets(u) until offsets(u+1))` enumerates the neighbourhood
  * of `u` and `degree(u) = offsets(u+1) - offsets(u)`.
  *
  * The structure is immutable, so the walk engine's threads share one
  * instance without locking; it is `Serializable`, so Spark tasks can
  * capture it.
  *
  * @param offsets length `n + 1`; CSR row pointers.
  * @param neighbors length `2m`; concatenated adjacency lists, each
  *                  sorted ascending (canonical form — makes equality,
  *                  binary-search adjacency tests, and tests deterministic).
  */
final class CsrGraph private (val offsets: Array[Int], val neighbors: Array[Int])
    extends Serializable {

  /** Number of nodes. */
  val n: Int = offsets.length - 1

  /** Number of undirected edges. */
  val m: Long = neighbors.length.toLong / 2

  /** Degree of node `v`. */
  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** The `i`-th neighbour of `v` (0-based, `i < degree(v)`). */
  @inline def neighbor(v: Int, i: Int): Int = neighbors(offsets(v) + i)

  /** Neighbourhood of `v` as an iterator (no allocation of a new array). */
  def neighborsOf(v: Int): IndexedSeq[Int] = {
    val from = offsets(v); val until = offsets(v + 1)
    new IndexedSeq[Int] {
      def length: Int = until - from
      def apply(i: Int): Int = neighbors(from + i)
    }
  }

  /** True iff `{u, v}` is an edge (binary search in `u`'s sorted list). */
  def hasEdge(u: Int, v: Int): Boolean = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val w = neighbors(mid)
      if (w == v) return true
      else if (w < v) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Average degree `2m / n`. */
  def avgDegree: Double = 2.0 * m / n

  /** Undirected edge list with `src < dst`, one row per edge. */
  def undirectedEdges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap { u =>
      neighborsOf(u).iterator.filter(_ > u).map(v => (u, v))
    }

  /** True iff the graph is connected (BFS from node 0). */
  lazy val isConnected: Boolean = {
    if (n == 0) true
    else {
      val seen = new Array[Boolean](n)
      val queue = new java.util.ArrayDeque[Integer]()
      seen(0) = true; queue.add(0)
      var count = 1
      while (!queue.isEmpty) {
        val u = queue.poll().intValue()
        var i = offsets(u)
        while (i < offsets(u + 1)) {
          val v = neighbors(i)
          if (!seen(v)) { seen(v) = true; count += 1; queue.add(v) }
          i += 1
        }
      }
      count == n
    }
  }

  /** True iff the graph is bipartite (BFS 2-colouring; assumes connected).
    * The paper's ergodicity assumption requires non-bipartite graphs.
    */
  lazy val isBipartite: Boolean = {
    val color = Array.fill(n)(-1)
    var bip = true
    var start = 0
    while (start < n && bip) {
      if (color(start) == -1) {
        color(start) = 0
        val queue = new java.util.ArrayDeque[Integer]()
        queue.add(start)
        while (!queue.isEmpty && bip) {
          val u = queue.poll().intValue()
          var i = offsets(u)
          while (i < offsets(u + 1) && bip) {
            val v = neighbors(i)
            if (color(v) == -1) { color(v) = 1 - color(u); queue.add(v) }
            else if (color(v) == color(u)) bip = false
            i += 1
          }
        }
      }
      start += 1
    }
    bip
  }

  /** Validates the paper's standing assumptions (§2.1): connected and
    * non-bipartite, so that `P = D⁻¹A` is ergodic. Throws otherwise.
    */
  def requireErgodic(): this.type = {
    require(isConnected, s"graph must be connected (n=$n, m=$m)")
    require(!isBipartite, "graph must be non-bipartite for P to be ergodic")
    this
  }
}

object CsrGraph {

  /** Builds the canonical CSR form from an undirected edge list.
    *
    * Self-loops and duplicate edges are dropped; each remaining edge is
    * materialized in both directions and adjacency lists are sorted.
    *
    * @param n     number of nodes (ids must be in `[0, n)`)
    * @param edges undirected edges, any orientation, duplicates allowed
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): CsrGraph = {
    require(n > 0, "graph must have at least one node")
    val set = new java.util.HashSet[Long]()
    edges.foreach { case (u, v) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      if (u != v) {
        val a = math.min(u, v).toLong
        val b = math.max(u, v).toLong
        set.add((a << 32) | b)
      }
    }
    val deg = new Array[Int](n)
    val it0 = set.iterator()
    while (it0.hasNext) {
      val e = it0.next()
      deg((e >>> 32).toInt) += 1
      deg((e & 0xffffffffL).toInt) += 1
    }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val neighbors = new Array[Int](offsets(n))
    val cursor = offsets.clone()
    val it1 = set.iterator()
    while (it1.hasNext) {
      val e = it1.next()
      val a = (e >>> 32).toInt
      val b = (e & 0xffffffffL).toInt
      neighbors(cursor(a)) = b; cursor(a) += 1
      neighbors(cursor(b)) = a; cursor(b) += 1
    }
    i = 0
    while (i < n) {
      java.util.Arrays.sort(neighbors, offsets(i), offsets(i + 1))
      i += 1
    }
    new CsrGraph(offsets, neighbors)
  }

  /** Builds a CSR graph by collecting a Spark edge `DataFrame` with integer
    * columns `src`, `dst`. Intended for graphs that fit the driver (all our
    * analogs do); the distributed algorithms operate on the DataFrame form
    * via [[GraphOps]].
    */
  def fromEdgeDf(n: Int, edges: DataFrame): CsrGraph = {
    val rows = edges.select("src", "dst").collect()
    fromEdges(n, rows.toSeq.map(r => (r.getInt(0), r.getInt(1))))
  }
}
