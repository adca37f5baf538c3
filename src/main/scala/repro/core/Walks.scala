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
  * into fixed chunks of [[WalkEngine.ChunkSize]]; each chunk sums its
  * samples in id order, and the chunk sums are merged in chunk order. The
  * chunks of a batch with more than [[WalkEngine.InlineSteps]] expected walk
  * steps run on the JVM's common `ForkJoinPool` (or on the pool of the
  * calling task, if it runs in one); a smaller batch runs them inline,
  * because forking would cost more than its walks. Neither order depends on
  * the threads, so a result is a function of `(count, seed, sample)` alone,
  * bit for bit, whatever the pool size or scheduling. `sample` runs on
  * several threads at once and must not share mutable state between calls.
  *
  * A query's batches are far too small to repay a Spark job's scheduling
  * cost, so no batch goes to Spark. `spark` is unused; the constructor keeps
  * it so that callers build an engine as before.
  */
final class WalkEngine(spark: SparkSession, g: CsrGraph) {
  import WalkEngine._

  /** Σ f and Σ f² of `count` samples; `stepsPerSample` is only a cost hint
    * for running the batch inline or in parallel.
    */
  def sumAndSumSq(count: Long, seed: Long, stepsPerSample: Long)
                 (sample: (CsrGraph, Rng) => Double): (Double, Double) = {
    val chunks = chunkCount(count)
    val sums = new Array[Double](chunks)
    val sumSqs = new Array[Double](chunks)
    forEachChunk(chunks, runsInline(count, stepsPerSample)) { c =>
      var s = 0.0; var s2 = 0.0
      var k = c.toLong * ChunkSize
      val end = math.min(k + ChunkSize, count)
      while (k < end) {
        val z = sample(g, Rng(seed, k))
        s += z; s2 += z * z
        k += 1
      }
      sums(c) = s; sumSqs(c) = s2
    }
    var s = 0.0; var s2 = 0.0
    var c = 0
    while (c < chunks) { s += sums(c); s2 += sumSqs(c); c += 1 }
    (s, s2)
  }

  /** Element-wise sum of `count` sampled vectors of dimension `dim`;
    * `sample` accumulates its contribution into the passed array (one array
    * per chunk, reused across the chunk's samples).
    */
  def sumVec(count: Long, seed: Long, dim: Int, stepsPerSample: Long)
            (sample: (CsrGraph, Rng, Array[Double]) => Unit): Array[Double] = {
    val chunks = chunkCount(count)
    val partial = new Array[Array[Double]](chunks)
    forEachChunk(chunks, runsInline(count, stepsPerSample)) { c =>
      val acc = new Array[Double](dim)
      var k = c.toLong * ChunkSize
      val end = math.min(k + ChunkSize, count)
      while (k < end) { sample(g, Rng(seed, k), acc); k += 1 }
      partial(c) = acc
    }
    val out = new Array[Double](dim)
    partial.foreach { acc =>
      var i = 0
      while (i < dim) { out(i) += acc(i); i += 1 }
    }
    out
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

  /** Walk-sum `Σ_{w ∈ W} x(w)` over the `len` *visited* nodes of a walk
    * from `start` (start excluded — Eq. 11 / Lemma 3.3 count positions
    * `w₁..w_ℓf`), where `x(u) = sVec(u)·sCoef + tVec(u)·tCoef`.
    */
  def walkSum(g: CsrGraph, start: Int, len: Int, rng: Rng,
              sVec: Array[Double], sCoef: Double,
              tVec: Array[Double], tCoef: Double): Double = {
    var cur = start
    var acc = 0.0
    var i = 0
    while (i < len) {
      cur = step(g, cur, rng)
      acc += sVec(cur) * sCoef + tVec(cur) * tCoef
      i += 1
    }
    acc
  }

  /** The AMC random variable `Z_k` of Eq. (11): a walk from `s` scored by
    * `(s(u)/d(s) − t(u)/d(t))` plus a walk from `t` scored by the negated
    * coefficients. Both walks draw from `rng` in turn, the walk from `s`
    * first; successive draws of one stream are independent, so are the
    * walks.
    */
  def zSample(g: CsrGraph, s: Int, t: Int, len: Int, rng: Rng,
              sVec: Array[Double], tVec: Array[Double],
              dsInv: Double, dtInv: Double): Double = {
    val fromS = walkSum(g, s, len, rng, sVec, dsInv, tVec, -dtInv)
    val fromT = walkSum(g, t, len, rng, sVec, -dsInv, tVec, dtInv)
    fromS + fromT
  }
}
