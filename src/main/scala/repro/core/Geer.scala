package repro.core

import repro.graph.CsrGraph

/** GEER — Greedy Estimation of Effective Resistance (Algorithm 3).
  *
  * Runs SMM iterations while they are cheaper than the remaining Monte
  * Carlo budget, then hands the tail to AMC seeded with SMM's vectors:
  *
  *  - greedy switch (Eq. 17): stop SMM once the next multiply's operation
  *    count `Σ_{v∈V_s} d(v) + Σ_{v∈V_t} d(v)` exceeds `h(ℓ − ℓ_b)`, the
  *    worst-case number of walk pairs AMC would still need — where `ψ`
  *    entering `h` is recomputed from the *current* `s*`, `t*` (their
  *    shrinking maxima are exactly why AMC gets cheap after a few SMM
  *    rounds, §4.1.2);
  *  - tail estimate: `r_f*` of Eq. (16) equals `q(s,t)` of Eq. (12) with
  *    `s = s*`, `t = t*`, `ℓ_f = ℓ − ℓ_b`, so AMC estimates it directly;
  *  - `r'(s,t) = r_b + r_f` needs no indicator correction — the i = 0 term
  *    is part of `r_b`.
  */
object Geer {

  /** One ε-approximate PER query; `ellBOverride`, when set, disables the
    * greedy rule and forces exactly that many SMM iterations (used by the
    * Fig. 10 sensitivity experiment).
    */
  def query(g: CsrGraph, lambda: Double, s: Int, t: Int,
            eps: Double, delta: Double, tau: Int,
            engine: WalkEngine, seed: Long,
            ellBOverride: Option[Int] = None): PerResult = {
    Amc.requireQuery(g, s, t, delta)
    if (s == t) return PerResult(0.0)
    val ds = g.degree(s); val dt = g.degree(t)
    val ell = Ell.refined(eps, lambda, ds, dt)

    val st = new Smm.State(g, s, t)
    ellBOverride match {
      case Some(forced) =>
        while (st.iters < math.min(forced, ell)) st.advance()
      case None => advanceGreedily(st, ell, eps, delta, tau)
    }

    val ellF = ell - st.iters
    val rf =
      if (ellF <= 0) PerResult(0.0)
      else Amc.estimate(g, s, t, st.sStar, st.tStar, eps, ellF, tau, delta, engine, seed)
    PerResult(rf.estimate + st.rB, walks = rf.walks, batches = rf.batches, smmIters = st.iters)
  }

  /** The greedy switch point ℓ_b* the rule picks for a pair (used by the
    * Fig. 10 experiment to center its ℓ_b sweep).
    */
  def switchPoint(g: CsrGraph, lambda: Double, s: Int, t: Int,
                  eps: Double, delta: Double, tau: Int): Int = {
    Amc.requireQuery(g, s, t, delta)
    val ell = Ell.refined(eps, lambda, g.degree(s), g.degree(t))
    val st = new Smm.State(g, s, t)
    advanceGreedily(st, ell, eps, delta, tau)
    st.iters
  }

  /** The greedy switch loop (Eq. 17): advance SMM while the next multiply
    * costs no more than `h(ℓ − ℓ_b)`, with ψ from the current `s*`, `t*`;
    * never beyond `ℓ` iterations.
    */
  private def advanceGreedily(st: Smm.State, ell: Int, eps: Double, delta: Double, tau: Int): Unit = {
    var stop = false
    while (!stop && st.iters < ell) {
      st.advance()
      if (st.iters < ell) {
        val psiV = st.psi(ell - st.iters)
        val budget = if (psiV <= 0.0) 0L else Amc.h(psiV, eps, tau, delta)
        stop = st.frontierCost > budget
      }
    }
  }
}

/** GEER as a benchmark estimator. */
final class GeerEstimator(g: CsrGraph, lambda: Double, delta: Double, tau: Int,
                          engine: WalkEngine, seed: Long,
                          ellBOverride: Option[Int] = None) extends PerEstimator {
  val name = "GEER"
  def query(s: Int, t: Int, eps: Double): PerResult =
    timed(Geer.query(g, lambda, s, t, eps, delta, tau, engine,
      repro.util.Rng.derive(seed, (s.toLong << 32) | t), ellBOverride))
}

/** SMM as a benchmark estimator: Algorithm 2 with ℓ_b from the selected ℓ
  * formula (Eq. 6 by default, per §5.1; Eq. 5 for the Fig. 11 comparison).
  */
final class SmmEstimator(g: CsrGraph, lambda: Double,
                         usePengEll: Boolean = false) extends PerEstimator {
  val name = if (usePengEll) "SMM(peng-ell)" else "SMM"
  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    Amc.requireNodes(g, s, t)
    if (s == t) PerResult(0.0)
    else {
      val ell =
        if (usePengEll) Ell.peng(eps, lambda)
        else Ell.refined(eps, lambda, g.degree(s), g.degree(t))
      PerResult(Smm.run(g, s, t, ell), smmIters = ell)
    }
  }
}
