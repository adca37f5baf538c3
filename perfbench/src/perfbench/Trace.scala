package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.immutable.ListMap
import scala.collection.mutable

import repro.core.{Amc, Ell, PerResult, Smm}

/** One timed call into a layer. `parent` indexes the enclosing span (the
  * query's root span), or is -1 for a root.
  */
final case class Span(name: String, query: Int, parent: Int, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** Records spans in memory; they are written out when the run ends. */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]

  def begin(name: String, query: Int, parent: Int): Int = {
    spans += Span(name, query, parent, System.nanoTime(), 0L)
    spans.length - 1
  }

  def end(id: Int): Unit = spans(id) = spans(id).copy(endNs = System.nanoTime())

  def timed[A](name: String, query: Int, parent: Int)(body: => A): A = {
    val id = begin(name, query, parent)
    try body finally end(id)
  }

  /** Writes spans as TSV: id, query, parent, name, start and end (ns). */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try {
      out.println("id\tquery\tparent\tname\tstart_ns\tend_ns")
      spans.zipWithIndex.foreach { case (s, i) =>
        out.println(s"$i\t${s.query}\t${s.parent}\t${s.name}\t${s.startNs}\t${s.endNs}")
      }
    } finally out.close()
  }
}

/** Counts one traced query makes where the work happens. */
final class QueryCounts {
  var ell = 0
  var edgeOps = 0L
  /** `ℓ_f` and `ψ` handed to `Amc.estimate`; `ellF = 0` when AMC did not run. */
  var ellF = 0
  var psi = 0.0
}

/** A replay of the program's query entry point from its public parts,
  * with a span around each call. The replay must stay call for call in
  * step with the entry point it mirrors: the replay guard compares the two
  * results bit for bit, so the trace cannot silently measure another
  * program.
  */
object Replay {
  import Settings._

  /** `Geer.query`, without the `ellBOverride` branch. */
  def geer(tr: Tracer, q: Int, root: Int, p: Prepared, s: Int, t: Int, eps: Double,
           c: QueryCounts): PerResult = {
    val g = p.g
    val ds = g.degree(s); val dt = g.degree(t)
    val ell = tr.timed("ell", q, root)(Ell.refined(eps, p.lambda, ds, dt))
    c.ell = ell
    val st = tr.timed("smm.init", q, root)(new Smm.State(g, s, t))
    var nextCost = st.frontierCost
    var stop = false
    while (!stop && st.iters < ell) {
      c.edgeOps += nextCost
      tr.timed("smm.advance", q, root)(st.advance())
      if (st.iters < ell) {
        val id = tr.begin("geer.switch", q, root)
        val ellF = ell - st.iters
        val psiV = Amc.psi(st.sStar, st.tStar, ds, dt, ellF)
        val budget = if (psiV <= 0.0) 0L else Amc.h(psiV, eps, Tau, Delta)
        nextCost = st.frontierCost
        stop = nextCost > budget
        tr.end(id)
      }
    }
    val ellF = ell - st.iters
    val rf =
      if (ellF <= 0) PerResult(0.0)
      else {
        // Amc.estimate scans for ψ itself; this probe times that scan so it
        // can be told apart from the walks.
        c.psi = tr.timed("amc.psi", q, root)(Amc.psi(st.sStar, st.tStar, ds, dt, ellF))
        c.ellF = ellF
        tr.timed("amc.estimate", q, root)(
          Amc.estimate(g, s, t, st.sStar, st.tStar, eps, ellF, Tau, Delta, p.engine, querySeed(s, t)))
      }
    PerResult(rf.estimate + st.rB, walks = rf.walks, batches = rf.batches, smmIters = st.iters)
  }

  /** Outcome of comparing a replay with the entry point's own answer. */
  sealed trait Guard
  case object Identical extends Guard
  /** Equal counts, estimate equal up to the summation order of Spark task
    * results: `RDD.reduce` merges partition sums as tasks finish, so the
    * entry point itself is only bit-reproducible on the local walk path.
    */
  case object SparkReordered extends Guard
  case object Mismatch extends Guard

  def guard(replayed: PerResult, original: PerResult, sparkJobs: Int): Guard = {
    val sameCounts = replayed.walks == original.walks && replayed.batches == original.batches &&
      replayed.smmIters == original.smmIters
    val a = replayed.estimate; val b = original.estimate
    if (!sameCounts) Mismatch
    else if (java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)) Identical
    else if (sparkJobs > 0 && math.abs(a - b) <= 1e-12 * math.max(1.0, math.abs(b))) SparkReordered
    else Mismatch
  }
}

/** Per-layer totals over a traced pass, from its spans, per-query counts
  * and Spark jobs.
  */
object Layers {

  def totals(spans: Seq[Span], counts: IndexedSeq[QueryCounts], results: IndexedSeq[PerResult],
             jobs: Seq[SparkCounters#Job], tau: Int): ListMap[String, Any] = {
    val nsByName = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    val amcNs = new Array[Long](results.size) // Amc.estimate minus its ψ scan, per query
    spans.foreach { s =>
      nsByName(s.name) += s.ns
      if (s.name == "amc.estimate") amcNs(s.query) += s.ns
      if (s.name == "amc.psi") amcNs(s.query) -= s.ns
    }
    val jobsByQuery = jobs.groupBy(_.query).withDefaultValue(Seq.empty)

    var amcQueries = 0; var psiSum = 0.0
    var batches = 0L; var walks = 0L; var walkSteps = 0L; var usefulWalks = 0L; var tauReached = 0
    var localBatches = 0L; var localNs = 0L; var localSteps = 0L
    results.indices.foreach { q =>
      val r = results(q); val c = counts(q)
      if (c.ellF > 0) { amcQueries += 1; psiSum += c.psi }
      if (r.batches > 0) {
        // Amc.estimate doubles the batch on each continuation, so
        // walks = 2·η₀·(2^b − 1); the Spark batches are the last `jobs`.
        val b = r.batches
        val eta0 = r.walks / (2L * ((1L << b) - 1L))
        val sparkBatches = math.min(jobsByQuery(q).size, b)
        batches += b
        walks += r.walks
        walkSteps += r.walks * c.ellF
        usefulWalks += 2L * eta0 * (1L << (b - 1))
        if (b == tau) tauReached += 1
        localBatches += b - sparkBatches
        // Local walk time is only separable on calls that launched no job:
        // from outside, a call's local batches and Spark's job set-up on
        // the querying thread share the same span.
        if (sparkBatches == 0) {
          localNs += amcNs(q)
          localSteps += r.walks * c.ellF
        }
      }
    }
    val jobWallMs = jobs.map(_.wallMs).sum
    ListMap(
      "queries" -> results.size,
      "ell_sum" -> counts.map(_.ell.toLong).sum,
      "smm_ns" -> (nsByName("smm.init") + nsByName("smm.advance")),
      "smm_advances" -> results.map(_.smmIters.toLong).sum,
      "smm_edge_ops" -> counts.map(_.edgeOps).sum,
      "switch_ns" -> nsByName("geer.switch"),
      "amc_queries" -> amcQueries,
      "psi_sum" -> psiSum,
      "amc_self_ns" -> math.max(0L, nsByName("amc.estimate") - jobWallMs * 1000000L),
      "amc_batches" -> batches,
      "amc_walks" -> walks,
      "amc_walk_steps" -> walkSteps,
      "amc_useful_walks" -> usefulWalks,
      "amc_tau_reached" -> tauReached,
      "local_batches" -> localBatches,
      "local_ns" -> localNs,
      "local_steps" -> localSteps,
      "spark_jobs" -> jobs.size,
      "spark_tasks" -> jobs.map(_.tasks.toLong).sum,
      "spark_job_ms" -> jobWallMs,
      "spark_task_run_ms" -> jobs.map(_.runMs).sum,
      "spark_task_deser_ms" -> jobs.map(_.deserMs).sum,
      "spark_wait_ms" -> jobs.map(j => math.max(0L, j.wallMs - j.longestTaskMs)).sum,
      "spark_task_failures" -> jobs.map(_.failures.toLong).sum,
    )
  }
}
