package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{CsrGraph, GraphGen}
import repro.util.Rng

class WalksSpec extends AnyFunSuite {
  import WalksSpec.{inPool, walkSum, zSample}

  private lazy val toy = GraphGen.toyFig2

  test("step moves to a neighbor") {
    val rng = Rng(1)
    (0 until 200).foreach { _ =>
      val v = rng.nextInt(toy.n)
      val w = Walks.step(toy, v, rng)
      assert(toy.hasEdge(v, w))
    }
  }

  test("endpoint of a length-0 walk is the start") {
    assert(Walks.endpoint(toy, 3, 0, Rng(2)) == 3)
  }

  test("walks are deterministic in the rng stream") {
    val a = Walks.endpoint(toy, 0, 10, Rng(42, 7))
    val b = Walks.endpoint(toy, 0, 10, Rng(42, 7))
    val c = Walks.endpoint(toy, 0, 10, Rng(42, 8))
    assert(a == b)
    // different stream gives an independent walk (may coincide by chance;
    // check over several streams that at least one differs)
    val ds = (0 until 20).map(i => Walks.endpoint(toy, 0, 10, Rng(42, 100 + i)))
    assert(ds.distinct.size > 1 || toy.n == 1)
    assert(c == Walks.endpoint(toy, 0, 10, Rng(42, 8)))
  }

  test("endpoint distribution matches P^i e_s (via SMM vectors)") {
    // Empirical endpoint frequencies of length-3 walks from s vs the exact
    // distribution p_3(s, ·) = row of P³, obtained from an SMM run on the
    // reversed vector identity p_i(s,v) = p_i(v,s) d(v)/d(s).
    val g = toy
    val s = 0
    val len = 3
    val st = new Smm.State(g, s, (s + 1) % g.n)
    (1 to len).foreach(_ => st.advance())
    val exact = Array.tabulate(g.n)(v => st.sStar(v) * g.degree(v) / g.degree(s))
    assert(math.abs(exact.sum - 1.0) < 1e-9)
    val nWalks = 200000
    val counts = new Array[Int](g.n)
    (0 until nWalks).foreach(k => counts(Walks.endpoint(g, s, len, Rng(7, k))) += 1)
    (0 until g.n).foreach { v =>
      assert(math.abs(counts(v).toDouble / nWalks - exact(v)) < 0.01,
        s"v=$v: ${counts(v).toDouble / nWalks} vs ${exact(v)}")
    }
  }

  test("walkSum over one-hot vectors counts visits") {
    val g = GraphGen.cycle(5)
    val sVec = Array(1.0, 0.0, 0.0, 0.0, 0.0)
    val tVec = new Array[Double](5)
    // walkSum with sCoef=1: number of times the walk visits node 0 in
    // len steps; verify against a hand-stepped walk with the same stream.
    val seedRng = Rng(9, 3)
    val sum = walkSum(g, 2, 6, seedRng, sVec, 1.0, tVec, 1.0)
    val replay = Rng(9, 3)
    var cur = 2
    var visits = 0
    (0 until 6).foreach { _ =>
      cur = Walks.step(g, cur, replay)
      if (cur == 0) visits += 1
    }
    assert(sum == visits.toDouble)
  }

  test("zSample expectation approximates q(s,t) (Eq. 12/13)") {
    val g = toy
    val (s, t) = (0, 1)
    val ellF = 4
    val sVec = new Array[Double](g.n); sVec(s) = 1.0
    val tVec = new Array[Double](g.n); tVec(t) = 1.0
    val dsInv = 1.0 / g.degree(s); val dtInv = 1.0 / g.degree(t)
    // Exact q(s,t): r_ell − indicator correction (see Theorem 3.4 proof).
    val q = Smm.run(g, s, t, ellF) - (dsInv + dtInv)
    val n = 400000
    var acc = 0.0
    (0 until n).foreach(k => acc += zSample(g, s, t, ellF, Rng(11, k), sVec, tVec, dsInv, dtInv))
    assert(math.abs(acc / n - q) < 0.01, s"${acc / n} vs $q")
  }

  private val C = WalkEngine.ChunkSize
  private val steps = 5L
  /** The largest batch of `steps`-step samples that runs inline. */
  private val inlineMax = WalkEngine.InlineSteps / steps

  /** Empty, single, partial and full chunks, a count that is not a
    * multiple of the chunk size, and batches on each side of the cut-off.
    */
  private val counts = Seq(0L, 1L, C - 1L, C.toLong, 3L * C + 7, inlineMax, inlineMax + 1)

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  /** A sample whose sums round differently under another association. */
  private def roundingSample(graph: CsrGraph, rng: Rng): Double =
    Walks.endpoint(graph, 0, steps.toInt, rng) * 0.1 + rng.nextDouble()

  private def vecSample(graph: CsrGraph, rng: Rng, acc: Array[Double]): Unit = {
    val e = Walks.endpoint(graph, 1, steps.toInt, rng)
    acc(0) += 1.0
    acc(1 + e % 2) += rng.nextDouble()
  }

  /** Serial chunk-by-chunk sum of `f(k)` over `k < count`: each chunk from
    * 0.0 in sample order, chunk sums merged in chunk order.
    */
  private def chunked(count: Long)(f: Long => Double): Double =
    (0L until count by C.toLong).map { start =>
      (start until math.min(start + C, count)).foldLeft(0.0)((acc, k) => acc + f(k))
    }.foldLeft(0.0)(_ + _)

  test("engine sumAndSumSq is bit-identical on 1 and 4 threads and matches a chunked serial sum") {
    assert(WalkEngine.runsInline(inlineMax, steps) && !WalkEngine.runsInline(inlineMax + 1, steps))
    assert(inlineMax + 1 > 2L * C, "the parallel batch must span several chunks")
    val eng = new WalkEngine(toy)
    counts.foreach { count =>
      val seed = 13 + count
      val one = inPool(1)(eng.sumAndSumSq(count, seed, steps)(roundingSample))
      val four = inPool(4)(eng.sumAndSumSq(count, seed, steps)(roundingSample))
      val ref = chunked(count)(k => roundingSample(toy, Rng(seed, k)))
      val refSq = chunked(count) { k => val z = roundingSample(toy, Rng(seed, k)); z * z }
      assert(bits(one._1) == bits(four._1) && bits(one._2) == bits(four._2), s"count=$count: $one vs $four")
      assert(bits(one._1) == bits(ref) && bits(one._2) == bits(refSq), s"count=$count: $one vs ($ref, $refSq)")
    }
  }

  test("engine sumVec is bit-identical on 1 and 4 threads and matches a chunked serial sum") {
    val eng = new WalkEngine(toy)
    counts.foreach { count =>
      val seed = 17 + count
      val one = inPool(1)(eng.sumVec(count, seed, dim = 3, steps)(vecSample))
      val four = inPool(4)(eng.sumVec(count, seed, dim = 3, steps)(vecSample))
      val ref = (0 until 3).map { i =>
        chunked(count) { k => val acc = new Array[Double](3); vecSample(toy, Rng(seed, k), acc); acc(i) }
      }
      assert(one.map(bits).toSeq == four.map(bits).toSeq, s"count=$count")
      assert(one.map(bits).toSeq == ref.map(bits), s"count=$count: ${one.toSeq} vs $ref")
      assert(one(0) == count.toDouble)
    }
  }

  // The local path sums a batch's chunks inline on the calling thread; the
  // distributed path spreads them over the pool's workers. `stepsPerSample`
  // is only a cost hint, so 0 forces the same batch inline.
  test("engine local and distributed paths produce identical sums") {
    val eng = new WalkEngine(toy)
    def sample(graph: CsrGraph, rng: Rng): Double = Walks.endpoint(graph, 0, 5, rng).toDouble
    assert(WalkEngine.runsInline(5000, 0) && !WalkEngine.runsInline(5000, 5))
    val (a, a2) = inPool(4)(eng.sumAndSumSq(5000, seed = 13, stepsPerSample = 0)(sample))
    val (b, b2) = inPool(4)(eng.sumAndSumSq(5000, seed = 13, stepsPerSample = 5)(sample))
    assert(bits(a) == bits(b) && bits(a2) == bits(b2), s"($a, $a2) vs ($b, $b2)")
  }

  test("engine sumVec local and distributed agree") {
    val eng = new WalkEngine(toy)
    def sample(graph: CsrGraph, rng: Rng, acc: Array[Double]): Unit = {
      val e = Walks.endpoint(graph, 1, 4, rng)
      acc(e % 3) += 1.0
    }
    assert(WalkEngine.runsInline(3000, 0) && !WalkEngine.runsInline(3000, 4))
    val a = inPool(4)(eng.sumVec(3000, seed = 17, dim = 3, stepsPerSample = 0)(sample))
    val b = inPool(4)(eng.sumVec(3000, seed = 17, dim = 3, stepsPerSample = 4)(sample))
    assert(a.toSeq == b.toSeq)
    assert(a.sum == 3000.0)
  }

  test("Rng: skipping n draws and then drawing matches drawing n times and then drawing") {
    Seq(0L, 1L, 2L, 7L, 1000L).foreach { n =>
      val drawn = Rng(5, n)
      (0L until n).foreach(i => if (i % 2 == 0) drawn.nextInt(1000) else drawn.nextDouble())
      // Rng(seed, k) starts at counter derive(seed, k); draw i after the
      // skip is at that counter skipped by n + i draws.
      val start = Rng.derive(5, n)
      (1 to 4).foreach { i =>
        assert(Rng.boundedInt(Rng.skip(start, n + i), 1 << 30) == drawn.nextInt(1 << 30), s"n=$n i=$i")
      }
    }
  }

  /** The lockstep kernel's sums of samples `from until from + count` and
    * the oracle's, each summed in sample order.
    */
  private def kernelAndOracle(g: CsrGraph, s: Int, t: Int, len: Int, seed: Long, from: Long, count: Int,
                              sVec: Array[Double], tVec: Array[Double]): (Seq[Long], Seq[Long]) = {
    val dsInv = 1.0 / g.degree(s); val dtInv = 1.0 / g.degree(t)
    val out = new Array[Double](2)
    Walks.zSums(g, s, t, len, seed, from, from + count, Walks.scores(g, s, t, sVec, tVec), out)
    var sum = 0.0; var sumSq = 0.0
    (from until from + count).foreach { k =>
      val z = zSample(g, s, t, len, Rng(seed, k), sVec, tVec, dsInv, dtInv)
      sum += z; sumSq += z * z
    }
    (out.toSeq.map(bits), Seq(sum, sumSq).map(bits))
  }

  /** SMM's `s*`, `t*` after `iters` iterations: one-hot at 0, then dense
    * and unequal, so that the sums round at every step.
    */
  private def smmVectors(g: CsrGraph, s: Int, t: Int, iters: Int): (Array[Double], Array[Double]) = {
    val st = new Smm.State(g, s, t)
    (1 to iters).foreach(_ => st.advance())
    (st.sStar, st.tStar)
  }

  test("lockstep zSums are bit-identical to per-sample Eq. (11) sums") {
    val g = TestGraphs.ba300.g
    val (s, t) = TestGraphs.pairs(g, 1).head
    val smmCases = for {
      (a, b) <- Seq((s, t), (0, g.neighbor(0, 0))) // a far pair and an adjacent one
      iters <- Seq(0, 3) // one-hot vectors, then dense ones
    } yield { val (sVec, tVec) = smmVectors(g, a, b, iters); (s"iters=$iters", g, a, b, sVec, tVec) }
    // Zero scores: one-hot vectors off {s, t}, and on the regular K_10 equal
    // entries of s and t, which cancel.
    val (_, _, _, _, oneHotS, oneHotT) = smmCases.head
    assert(Walks.scores(g, s, t, oneHotS, oneHotT).count(_ == 0.0) == g.n - 2)
    val k10 = TestGraphs.complete10.g
    val (x, _) = smmVectors(k10, 0, 1, 2)
    val equal = x.clone(); equal(5) = 0.0
    assert(Walks.scores(k10, 0, 1, x, equal).count(_ == 0.0) == k10.n - 1)
    for {
      (label, gr, a, b, sVec, tVec) <- smmCases :+ (("K_10 cancelling", k10, 0, 1, x, equal))
      len <- Seq(1, 2, 9)
      count <- Seq(0, 1, 15, 16, 17, 55)
      from <- Seq(0L, 37L)
    } {
      val (kernel, oracle) = kernelAndOracle(gr, a, b, len, seed = 101 + len, from, count, sVec, tVec)
      assert(kernel == oracle, s"$label ($a,$b) len=$len count=$count from=$from")
    }
  }

  test("engine chunks of lockstep zSums match a chunked per-sample sum on 1 and 4 threads") {
    val g = TestGraphs.ba300.g
    val (s, t) = TestGraphs.pairs(g, 1).head
    val (sVec, tVec) = smmVectors(g, s, t, 2)
    val dsInv = 1.0 / g.degree(s); val dtInv = 1.0 / g.degree(t)
    val w = Walks.scores(g, s, t, sVec, tVec)
    val len = 6
    val eng = new WalkEngine(g)
    val perSample = WalkEngine.InlineSteps / (2L * len)
    Seq(0L, 1L, C - 1L, C.toLong, C + 1L, 55L, perSample, perSample + 1).foreach { count =>
      val seed = 29 + count
      def run(threads: Int): Seq[Long] = inPool(threads) {
        eng.sumChunks(count, 2, 2L * len) { (from, until, acc) =>
          Walks.zSums(g, s, t, len, seed, from, until, w, acc)
        }.toSeq.map(bits)
      }
      def z(k: Long): Double = zSample(g, s, t, len, Rng(seed, k), sVec, tVec, dsInv, dtInv)
      val ref = Seq(chunked(count)(z), chunked(count) { k => val v = z(k); v * v }).map(bits)
      val one = run(1)
      assert(one == run(4), s"count=$count")
      assert(one == ref, s"count=$count")
    }
  }

  test("Amc.estimate is bit-identical on 1 and 4 threads and matches the per-sample oracle") {
    val f = TestGraphs.ba300
    val g = f.g
    val (s, t) = TestGraphs.pairs(g, 1).head
    val (sVec, tVec) = smmVectors(g, s, t, 2)
    val eng = new WalkEngine(g)
    val (eps, ellF, delta, seed) = (0.1, 12, 0.01, 43L)
    Seq(1, 5).foreach { tau =>
      def run(threads: Int): PerResult =
        inPool(threads)(Amc.estimate(g, s, t, sVec, tVec, eps, ellF, tau, delta, eng, seed))
      val one = run(1)
      val four = run(4)
      assert(bits(one.estimate) == bits(four.estimate) && one == four, s"tau=$tau")
      if (tau == 1) {
        // One batch of eta = walks / 2 samples from stream derive(seed, 0x5EED + 1).
        val eta = one.walks / 2
        assert(!WalkEngine.runsInline(eta, 2L * ellF), "the batch should run in parallel")
        val batchSeed = Rng.derive(seed, 0x5EEDL + 1)
        val dsInv = 1.0 / g.degree(s); val dtInv = 1.0 / g.degree(t)
        val ref = chunked(eta)(k => zSample(g, s, t, ellF, Rng(batchSeed, k), sVec, tVec, dsInv, dtInv)) / eta
        assert(bits(one.estimate) == bits(ref), s"${one.estimate} vs $ref")
      }
    }
  }

  test("engine path choice does not overflow count × steps") {
    assert(!WalkEngine.runsInline(2L, Long.MaxValue / 2 + 1))
    assert(!WalkEngine.runsInline(1L << 40, 1L << 30))
    assert(WalkEngine.runsInline(1L, 0L))
  }

  test("engine rejects a negative or oversized sample count") {
    val eng = new WalkEngine(toy)
    intercept[IllegalArgumentException](eng.sumAndSumSq(-1L, 1, 1)((_, _) => 1.0))
    intercept[IllegalArgumentException](eng.sumVec(WalkEngine.MaxCount + 1, 1, 1, 1)((_, _, _) => ()))
  }

  test("engine respects count: sums scale linearly-ish") {
    val g = TestGraphs.complete10.g
    val eng = new WalkEngine(g)
    val (one, _) = eng.sumAndSumSq(1000, 3, 1)((_, _) => 1.0)
    assert(one == 1000.0)
  }
}

object WalksSpec {

  /** Walk-sum `Σ_{w ∈ W} x(w)` over the `len` *visited* nodes of a walk
    * from `start` (start excluded — Eq. 11 / Lemma 3.3 count positions
    * `w₁..w_ℓf`), where `x(u) = sVec(u)·sCoef + tVec(u)·tCoef`. One walk at
    * a time, drawing from `rng`: the oracle for [[Walks.zSums]].
    */
  def walkSum(g: CsrGraph, start: Int, len: Int, rng: Rng,
              sVec: Array[Double], sCoef: Double,
              tVec: Array[Double], tCoef: Double): Double = {
    var cur = start
    var acc = 0.0
    var i = 0
    while (i < len) {
      cur = Walks.step(g, cur, rng)
      acc += sVec(cur) * sCoef + tVec(cur) * tCoef
      i += 1
    }
    acc
  }

  /** The AMC random variable `Z_k` of Eq. (11), one sample at a time: a
    * walk from `s` scored by `(s(u)/d(s) − t(u)/d(t))` plus a walk from `t`
    * scored by the negated coefficients, both drawing from `rng` in turn,
    * the walk from `s` first.
    */
  def zSample(g: CsrGraph, s: Int, t: Int, len: Int, rng: Rng,
              sVec: Array[Double], tVec: Array[Double],
              dsInv: Double, dtInv: Double): Double = {
    val fromS = walkSum(g, s, len, rng, sVec, dsInv, tVec, -dtInv)
    val fromT = walkSum(g, t, len, rng, sVec, -dsInv, tVec, dtInv)
    fromS + fromT
  }

  /** Runs `body` as a task of a fresh pool of `threads` workers, so the
    * engine's parallel streams run on that pool.
    */
  def inPool[A](threads: Int)(body: => A): A = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[A] { def call(): A = body }).get()
    finally pool.shutdown()
  }
}
