package perfbench

import java.util.concurrent.{Callable, Executors, TimeUnit}

import repro.core.Smm
import repro.graph.CsrGraph
import repro.linalg.Dense

/** Reference answers, independent of SMM and AMC: one conjugate-gradient
  * solve of `L x = e_s − e_t` per pair, `r = x_s − x_t`. Computed outside
  * every timed section, on a small thread pool.
  */
object Reference {

  /** Relative residual of the CG solve. On the analogs it leaves |Δr|
    * around 1e-12, far inside every ε, at half the cost of the default
    * 1e-10; the cross-check against `Smm.groundTruth` watches it.
    */
  val CgTol = 1e-6

  def er(g: CsrGraph, s: Int, t: Int): Double = {
    val b = new Array[Double](g.n)
    b(s) = 1.0
    b(t) = -1.0
    val x = Dense.cgLaplacian(g, b, tol = CgTol)
    x(s) - x(t)
  }

  /** References for `pairs`, plus the largest `|CG − Smm.groundTruth|` over
    * the first `crossCheck` of them: a check of the reference itself against
    * the paper's §5.1 ground truth. All solves share one pool.
    */
  def compute(g: CsrGraph, pairs: IndexedSeq[(Int, Int)], crossCheck: Int,
              threads: Int): (Array[Double], Double) = {
    val pool = Executors.newFixedThreadPool(threads)
    def submit(f: => Double) = pool.submit(new Callable[Double] { def call(): Double = f })
    try {
      // The slow ground-truth runs go first so they overlap the CG solves.
      val truths = pairs.take(crossCheck).map { case (s, t) => submit(Smm.groundTruth(g, s, t)) }
      val refs = pairs.map { case (s, t) => submit(er(g, s, t)) }.map(_.get()).toArray
      val crossMax = truths.indices.map(i => math.abs(truths(i).get() - refs(i))).foldLeft(0.0)(math.max)
      (refs, crossMax)
    } finally {
      pool.shutdownNow()
      pool.awaitTermination(60, TimeUnit.SECONDS)
    }
  }
}
