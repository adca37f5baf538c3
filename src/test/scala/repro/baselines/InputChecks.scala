package repro.baselines

import org.scalatest.Assertions._

/** Shared assertions for the input checks of the baselines' entry points. */
object InputChecks {

  /** `query` rejects every pair with an id outside `[0, n)`, equal pairs
    * included, with the node-range message.
    */
  def rejectsIds(n: Int)(query: (Int, Int) => Any): Unit =
    Seq((-1, 0), (0, -1), (n, 0), (0, n), (-1, -1), (n, n)).foreach { case (s, t) =>
      val e = intercept[IllegalArgumentException](query(s, t))
      assert(e.getMessage.contains("outside the node range"), s"($s,$t): ${e.getMessage}")
    }

  /** `make` rejects every δ outside (0, 1) with the δ message. */
  def rejectsDelta(make: Double => Any): Unit =
    Seq(0.0, -0.5, 1.0, 1.5, Double.NaN).foreach { delta =>
      val e = intercept[IllegalArgumentException](make(delta))
      assert(e.getMessage.contains("is outside (0, 1)"), s"delta=$delta: ${e.getMessage}")
    }
}
