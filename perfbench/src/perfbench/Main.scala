package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths

import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.PerResult

/** One benchmark run of one workload, in one JVM.
  *
  * Order: Spark session, set-up (repeated), warm-up on its own pairs, the
  * measured closed loop (one client, queries back to back, tracing off),
  * reference answers for the measured queries, and with `--trace 1` a traced replay of the measured
  * pairs. Prints one JSON record as the last line of stdout; `run.py`
  * turns it into the benchmark's metrics.
  */
object Main {

  final case class Args(
      name: String, dataset: String, eps: Double, seed: Long,
      seconds: Double, warmupSeconds: Double, setupReps: Int, minQueries: Int, maxQueries: Int,
      trace: Boolean, cores: Int, crossCheckPairs: Int, out: String)

  object Args {
    def parse(argv: Array[String]): Args = {
      require(argv.length % 2 == 0, s"expected --key value pairs, got: ${argv.mkString(" ")}")
      val kv = argv.grouped(2).map { case Array(k, v) =>
        require(k.startsWith("--"), s"not an option: $k"); k.drop(2) -> v
      }.toMap
      def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
      Args(get("name"), get("dataset"), get("eps").toDouble, get("seed").toLong,
        get("seconds").toDouble, get("warmup-seconds").toDouble, get("setup-reps").toInt,
        get("min-queries").toInt, get("max-queries").toInt, get("trace") == "1", get("cores").toInt,
        get("crosscheck-pairs").toInt, get("out"))
    }
  }

  /** A query's outcome; `result` is null when the call threw. */
  final case class Answer(s: Int, t: Int, nanos: Long, result: PerResult)

  private val born = System.nanoTime()

  /** Progress on stderr, with seconds since the JVM entered `main`. */
  private def log(msg: String): Unit =
    Console.err.println(f"perfbench ${(System.nanoTime() - born) / 1e9}%7.2f s: $msg")

  def main(argv: Array[String]): Unit = {
    val a = Args.parse(argv)
    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[${a.cores}]")
      .appName("perfbench")
      .getOrCreate()
    spark.sparkContext.defaultParallelism // forces the scheduler backend up
    val sessionS = (System.nanoTime() - t0) / 1e9
    log(s"Spark session up, ${spark.sparkContext.master}")
    val record =
      try run(a, spark, sessionS)
      finally spark.stop()
    println(Json.write(record))
  }

  private def run(a: Args, spark: SparkSession, sessionS: Double): ListMap[String, Any] = {
    val sc = spark.sparkContext

    var prepared: Prepared = null
    val setups = (1 to a.setupReps).map { _ =>
      prepared = null
      System.gc()
      val (p, times) = Prepare.run(spark, a.dataset)
      prepared = p
      times
    }
    val g = prepared.g
    log(s"set-up x${a.setupReps}: ${setups.map(s => f"${s.totalS}%.2f").mkString(", ")} s")

    /** Closed loop, one client: runs until `seconds` have passed and at
      * least `min` queries are done, or `max` are.
      */
    def loop(pairs: PairStream, seconds: Double, min: Int, max: Int): (IndexedSeq[Answer], Double) = {
      val out = IndexedSeq.newBuilder[Answer]
      val start = System.nanoTime()
      val deadline = start + (seconds * 1e9).toLong
      var count = 0
      while (count < max && (count < min || System.nanoTime() < deadline)) {
        val (s, t) = pairs.next()
        val q0 = System.nanoTime()
        val r =
          try Query.geer(prepared, s, t, a.eps)
          catch { case NonFatal(e) => Console.err.println(s"query ($s, $t) threw: $e"); null }
        out += Answer(s, t, System.nanoTime() - q0, r)
        count += 1
      }
      (out.result(), (System.nanoTime() - start) / 1e9)
    }

    val (warm, warmS) = loop(new PairStream(g.n, a.seed, measured = false), a.warmupSeconds, 1, Int.MaxValue)
    System.gc()
    val jvm0 = JvmCounters.read()
    val (measured, wallS) = loop(new PairStream(g.n, a.seed, measured = true), a.seconds, a.minQueries, a.maxQueries)
    val jvm1 = JvmCounters.read()
    log(s"${warm.size} warm-up and ${measured.size} measured queries")

    val crossPairs = math.min(a.crossCheckPairs, measured.size)
    val (refs, crossMax) = Reference.compute(g, measured.map(q => (q.s, q.t)), crossPairs, a.cores)
    val errOverEps = measured.zip(refs).map { case (q, r) =>
      if (q.result == null) None else Some(math.abs(q.result.estimate - r) / a.eps)
    }
    log(f"${refs.length} CG references; max |CG - groundTruth| on $crossPairs pairs = $crossMax%.3g")

    val traced = if (a.trace) Some(tracedPass(a, spark, prepared, measured)) else None
    if (a.trace) log("traced pass done")

    ListMap(
      "facts" -> ListMap(
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "heap_max_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
        "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "spark_version" -> spark.version,
        "spark_master" -> sc.master,
        "spark_default_parallelism" -> sc.defaultParallelism,
        "dataset" -> a.dataset, "eps" -> a.eps,
        "delta" -> Settings.Delta, "tau" -> Settings.Tau,
        "n" -> g.n, "m" -> g.m),
      "session_start_s" -> sessionS,
      "setup" -> setups.map(s => ListMap(
        "graph_s" -> s.graphS, "lambda_s" -> s.lambdaS, "engine_s" -> s.engineS, "total_s" -> s.totalS)),
      "lambda" -> prepared.lambda,
      "csr_mb" -> Prepare.csrMb(g),
      "warmup" -> ListMap("queries" -> warm.size, "seconds" -> warmS),
      "measured" -> ListMap(
        "queries" -> measured.size,
        "wall_s" -> wallS,
        "latency_ms" -> measured.map(_.nanos / 1e6)),
      "check" -> ListMap(
        "err_over_eps" -> errOverEps,
        "crosscheck_pairs" -> crossPairs,
        "crosscheck_max_abs" -> crossMax),
      "jvm" -> ListMap(
        "gc_ms" -> (jvm1.gcMs - jvm0.gcMs),
        "alloc_bytes" -> (jvm1.allocBytes - jvm0.allocBytes)),
      "trace" -> traced,
    )
  }

  /** Replays the measured pairs, in order, with spans and Spark counters,
    * and guards every replay against the measured answer. Each pair is also
    * answered once more untraced, alternating which goes first, so the
    * tracing overhead compares the same pairs at the same point in the run.
    */
  private def tracedPass(a: Args, spark: SparkSession, p: Prepared,
                         measured: IndexedSeq[Answer]): ListMap[String, Any] = {
    val sc = spark.sparkContext
    val answered = measured.filter(_.result != null)
    val counters = new SparkCounters
    sc.addSparkListener(counters)
    val tr = new Tracer
    val counts = IndexedSeq.fill(answered.size)(new QueryCounts)
    val replayed = new Array[PerResult](answered.size)
    var tracedNs = 0L
    var untracedNs = 0L
    answered.indices.foreach { q =>
      val Answer(s, t, _, _) = answered(q)
      def traced(): Unit = {
        sc.setLocalProperty(SparkCounters.QueryKey, q.toString)
        try {
          val root = tr.begin("query", q, -1)
          replayed(q) = Replay.geer(tr, q, root, p, s, t, a.eps, counts(q))
          tr.end(root)
          tracedNs += tr.spans(root).ns
        } finally sc.setLocalProperty(SparkCounters.QueryKey, null)
      }
      def untraced(): Unit = {
        val t0 = System.nanoTime()
        Query.geer(p, s, t, a.eps)
        untracedNs += System.nanoTime() - t0
      }
      if (q % 2 == 0) { traced(); untraced() } else { untraced(); traced() }
    }
    counters.drain(sc)
    sc.removeSparkListener(counters)

    val jobs = counters.queryJobs
    val jobsPerQuery = jobs.groupBy(_.query).view.mapValues(_.size).toMap.withDefaultValue(0)
    val guards = answered.indices.map(q => Replay.guard(replayed(q), answered(q).result, jobsPerQuery(q)))
    guards.indices.filter(guards(_) == Replay.Mismatch).take(5).foreach { q =>
      Console.err.println(s"replay guard: query $q ${answered(q)} replayed as ${replayed(q)}")
    }

    tr.write(Paths.get(a.out).resolve(s"spans-${a.name}-seed${a.seed}.tsv"))
    ListMap(
      "queries" -> answered.size,
      "traced_ns" -> tracedNs,
      "untraced_ns" -> untracedNs,
      "guard" -> ListMap(
        "identical" -> guards.count(_ == Replay.Identical),
        "spark_reordered" -> guards.count(_ == Replay.SparkReordered),
        "mismatch" -> guards.count(_ == Replay.Mismatch)),
      "layers" -> Layers.totals(tr.spans.toSeq, counts, replayed.toIndexedSeq, jobs, Settings.Tau),
    )
  }
}

/** Process-wide GC time and the querying thread's allocated bytes. */
final case class JvmCounters(gcMs: Long, allocBytes: Long)

object JvmCounters {
  def read(): JvmCounters = {
    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    JvmCounters(gc, threads.getThreadAllocatedBytes(Thread.currentThread().getId))
  }
}
