package repro.core

import java.util.stream.IntStream

import org.apache.spark.sql.SparkSession
import repro.graph.CsrGraph
import repro.util.Rng

/** Monte Carlo fan-out engine.
  *
  * All randomized estimators (AMC, TP, TPC, MC, MC2, HAY) reduce to "draw
  * `count` i.i.d. samples, each a deterministic function of a [[Rng]]
  * stream, and sum them". Sample `k` always uses the stream `Rng(seed, k)`.
  *
  * One policy runs every batch, in the calling JVM. Sample ids are split
  * into fixed chunks of [[WalkEngine.ChunkSize]]; a chunk body sums its
  * samples in id order, and the chunk sums are merged in chunk order. The
  * chunks of a batch with more than [[WalkEngine.InlineSteps]] expected walk
  * steps run on the JVM's common `ForkJoinPool` (or on the pool of the
  * calling task, if it runs in one); a smaller batch runs them inline,
  * because forking would cost more than its walks. Neither order depends on
  * the threads, so a result is a function of `(count, seed, sample)` alone,
  * bit for bit, whatever the pool size or scheduling. A chunk body runs on
  * several threads at once and must not share mutable state between calls.
  *
  * [[sumChunks]] is the one chunk loop and merge loop. Its chunk body sees a
  * whole chunk, so AMC steps the chunk's walks in lockstep
  * ([[Walks.zSums]]); [[sumAndSumSq]] and [[sumVec]] wrap it for estimators
  * that draw one sample at a time.
  */
final class WalkEngine(g: CsrGraph) {
  import WalkEngine._

  /** Compatibility constructor; the session is ignored. Its only caller is
    * perfbench's `Prepare.run`, which changes only with the benchmark;
    * ROADMAP item 2's benchmark change moves that caller to
    * `new WalkEngine(g)` and deletes this constructor.
    */
  def this(spark: SparkSession, g: CsrGraph) = this(g)

  /** Element-wise sum over the chunks of `count` samples: `chunk(from,
    * until, acc)` adds the samples `from until until` into `acc`, a fresh
    * zero array of length `dim`, in id order. `stepsPerSample` is only a cost
    * hint for running the batch inline or in parallel.
    */
  def sumChunks(count: Long, dim: Int, stepsPerSample: Long)
               (chunk: (Long, Long, Array[Double]) => Unit): Array[Double] = {
    val chunks = chunkCount(count)
    val partial = new Array[Array[Double]](chunks)
    forEachChunk(chunks, runsInline(count, stepsPerSample)) { c =>
      val acc = new Array[Double](dim)
      val from = c.toLong * ChunkSize
      chunk(from, math.min(from + ChunkSize, count), acc)
      partial(c) = acc
    }
    val out = new Array[Double](dim)
    partial.foreach { acc =>
      var i = 0
      while (i < dim) { out(i) += acc(i); i += 1 }
    }
    out
  }

  /** Σ f and Σ f² of `count` samples. */
  def sumAndSumSq(count: Long, seed: Long, stepsPerSample: Long)
                 (sample: (CsrGraph, Rng) => Double): (Double, Double) = {
    val sums = sumChunks(count, 2, stepsPerSample) { (from, until, acc) =>
      var k = from
      while (k < until) {
        val z = sample(g, Rng(seed, k))
        acc(0) += z; acc(1) += z * z
        k += 1
      }
    }
    (sums(0), sums(1))
  }

  /** Element-wise sum of `count` sampled vectors of dimension `dim`;
    * `sample` accumulates its contribution into the passed array (one array
    * per chunk, reused across the chunk's samples).
    */
  def sumVec(count: Long, seed: Long, dim: Int, stepsPerSample: Long)
            (sample: (CsrGraph, Rng, Array[Double]) => Unit): Array[Double] =
    sumChunks(count, dim, stepsPerSample) { (from, until, acc) =>
      var k = from
      while (k < until) { sample(g, Rng(seed, k), acc); k += 1 }
    }
}

object WalkEngine {

  /** Samples per chunk. Fixed, so the summation order does not depend on
    * the number of threads.
    */
  final val ChunkSize = 16

  /** Batches of at most this many expected walk steps run inline. */
  final val InlineSteps = 1L << 13

  /** Largest batch: its chunk indices must fit an `Int`. */
  final val MaxCount: Long = Int.MaxValue.toLong * ChunkSize

  private def chunkCount(count: Long): Int = {
    require(count >= 0 && count <= MaxCount, s"sample count $count is outside [0, $MaxCount]")
    ((count + ChunkSize - 1) / ChunkSize).toInt
  }

  /** Whether `count` samples of `stepsPerSample` steps each fit under
    * [[InlineSteps]]; compares by division so the product cannot overflow.
    */
  private[core] def runsInline(count: Long, stepsPerSample: Long): Boolean =
    count <= InlineSteps / math.max(stepsPerSample, 1L)

  private def forEachChunk(chunks: Int, inline: Boolean)(body: Int => Unit): Unit =
    if (inline || chunks <= 1) {
      var c = 0
      while (c < chunks) { body(c); c += 1 }
    } else IntStream.range(0, chunks).parallel().forEach(c => body(c))
}

/** Random walks on a [[CsrGraph]]: one walk at a time from a [[Rng]], as
  * the baselines draw them, and AMC's lockstep kernel [[zSums]], which steps
  * all walks of a chunk together from bare RNG counters.
  */
object Walks {

  /** Advances one random-walk step from `cur`. */
  @inline def step(g: CsrGraph, cur: Int, rng: Rng): Int =
    g.neighbor(cur, rng.nextInt(g.degree(cur)))

  /** Runs a length-`len` walk from `start`, returning the endpoint. */
  def endpoint(g: CsrGraph, start: Int, len: Int, rng: Rng): Int = {
    var cur = start
    var i = 0
    while (i < len) { cur = step(g, cur, rng); i += 1 }
    cur
  }

  /** AMC's per-node score `w(v) = sVec(v)·(1/d(s)) + tVec(v)·(−1/d(t))`,
    * the term a walk from `s` adds at `v` (Eq. 11), as [[zSums]] reads it.
    */
  def scores(g: CsrGraph, s: Int, t: Int, sVec: Array[Double], tVec: Array[Double]): Array[Double] = {
    val sCoef = 1.0 / g.degree(s); val tCoef = -(1.0 / g.degree(t))
    val w = new Array[Double](sVec.length)
    var v = 0
    while (v < w.length) { w(v) = sVec(v) * sCoef + tVec(v) * tCoef; v += 1 }
    w
  }

  /** Σ z and Σ z² over the AMC samples `from until until` of a batch, added
    * into `out(0)` and `out(1)` in sample order. Sample `k`'s `Z_k` (Eq. 11)
    * is a length-`len` walk from `s` whose visited nodes (start excluded,
    * Lemma 3.3) each score `w(u)` ([[scores]]), plus a walk from `t` scored
    * by `−w(u)`. The kernel adds `w` along both walks, one load and no
    * multiply per step, and takes `z = a_s − a_t` of the two walk sums. That
    * has the bits of `fromS + fromT` summed from the two-vector terms
    * `s(u)·(∓1/d(s)) + t(u)·(±1/d(t))`: in IEEE round-to-nearest
    * `(−a)·b = −(a·b)` and `(−x) + (−y) = −(x + y)`, so the `t` walk's terms
    * and running sums are those of `w` negated, except that a zero is +0
    * where negation gives −0; and no walk sum is −0 (it starts at +0, and a
    * rounded sum is −0 only when both addends are), so `a_s` plus +0 or −0
    * is the same.
    *
    * Both walks of sample `k` draw from the one stream `Rng(seed, k)`, the
    * walk from `s` first, so the walk from `t` starts at that counter skipped
    * by `len` draws. All walks have `len` steps, so the kernel advances every
    * walk of the range by one step per pass, keeping node, RNG counter and
    * walk-sum in small arrays: their load chains overlap instead of running
    * one walk after another. Each walk still adds up its terms in step
    * order, so the sums are bit for bit those of drawing the samples one at
    * a time.
    */
  def zSums(g: CsrGraph, s: Int, t: Int, len: Int, seed: Long, from: Long, until: Long,
            w: Array[Double], out: Array[Double]): Unit = {
    val n = (until - from).toInt
    val walks = 2 * n // walk j < n from s, walk n + j from t, of sample from + j
    val cur = new Array[Int](walks)
    val ctr = new Array[Long](walks)
    val acc = new Array[Double](walks)
    var j = 0
    while (j < n) {
      val c = Rng.derive(seed, from + j)
      cur(j) = s; ctr(j) = c
      cur(n + j) = t; ctr(n + j) = Rng.skip(c, len.toLong)
      j += 1
    }
    val offsets = g.offsets; val neighbors = g.neighbors
    var i = 0
    while (i < len) {
      j = 0
      while (j < walks) {
        val u = cur(j)
        val off = offsets(u)
        val c = Rng.skip(ctr(j), 1L)
        val v = neighbors(off + Rng.boundedInt(c, offsets(u + 1) - off))
        cur(j) = v; ctr(j) = c
        acc(j) += w(v)
        j += 1
      }
      i += 1
    }
    var sum = out(0); var sumSq = out(1)
    j = 0
    while (j < n) {
      val z = acc(j) - acc(n + j)
      sum += z; sumSq += z * z
      j += 1
    }
    out(0) = sum; out(1) = sumSq
  }
}
