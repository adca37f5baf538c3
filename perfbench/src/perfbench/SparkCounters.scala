package perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.mutable

import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** Spark job and task counters, taken from the listener bus.
  *
  * Each traced query is tagged with the local property
  * [[SparkCounters.QueryKey]] before it runs; a job carries the properties
  * of the thread that submitted it, so every job is attributed to the
  * query whose `Amc.estimate` call launched it. Listener events arrive on
  * the bus thread after the job has returned, so [[drain]] submits one
  * marker job and waits for its end event: the bus delivers in order, so
  * every earlier event has been seen once the marker's has.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  /** One job; times are the scheduler's wall clock in ms. */
  final class Job(val query: Int, val startMs: Long) {
    var endMs: Long = startMs
    var tasks = 0
    var runMs = 0L
    var deserMs = 0L
    var longestTaskMs = 0L
    var failures = 0
    def wallMs: Long = endMs - startMs
  }

  // Written on the bus thread only; read by the querying thread after drain().
  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageToJob = mutable.HashMap.empty[Int, Int]
  @volatile private var fence: CountDownLatch = new CountDownLatch(1)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(QueryKey)))
    val query = tag.map(_.toInt).getOrElse(Untagged)
    jobs(e.jobId) = new Job(query, e.time)
    e.stageIds.foreach(stageToJob(_) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    stageToJob.get(e.stageId).flatMap(jobs.get).foreach { j =>
      j.tasks += 1
      if (e.reason != Success) j.failures += 1
      if (e.taskMetrics != null) {
        j.runMs += e.taskMetrics.executorRunTime
        j.deserMs += e.taskMetrics.executorDeserializeTime
      }
      j.longestTaskMs = math.max(j.longestTaskMs, e.taskInfo.duration)
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    jobs.get(e.jobId).foreach { j =>
      j.endMs = e.time
      if (j.query == Fence) fence.countDown()
    }

  /** Blocks until every event posted before this call has been delivered. */
  def drain(sc: SparkContext): Unit = {
    fence = new CountDownLatch(1)
    val before = sc.getLocalProperty(QueryKey)
    sc.setLocalProperty(QueryKey, Fence.toString)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(QueryKey, before)
    require(fence.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain within 60 s")
  }

  /** Jobs launched by traced queries (call after [[drain]]). */
  def queryJobs: Seq[Job] = jobs.values.filter(_.query >= 0).toSeq
}

object SparkCounters {
  val QueryKey = "perfbench.query"
  val Fence: Int = -2
  val Untagged: Int = -1
}
