package repro.core

import repro.graph.CsrGraph

/** AMC — Adaptive Monte Carlo (the paper's Algorithm 1).
  *
  * Estimates `q(s,t)` (Eq. 12) by batches of truncated random-walk pairs.
  * Each batch doubles the sample count; after a batch the empirical
  * Bernstein bound `f(η, σ̂², ψ, δ/τ)` (Lemma 3.2 / Eq. 7) is compared to
  * `ε/2` for early termination, with the Hoeffding-derived `η*` (Eq. 8)
  * as the hard cap. Faithful detail: on continuation the batch's samples
  * are *discarded* and a fresh, doubled batch is drawn (Fig. 1), keeping
  * batches independent for the union bound of Theorem 3.4.
  */
object Amc {

  /** `f(n_z, σ̂², ψ, δ)` — empirical Bernstein deviation bound (Eq. 7). */
  def bernstein(nz: Long, sigma2: Double, psi: Double, delta: Double): Double =
    math.sqrt(2.0 * math.max(sigma2, 0.0) * math.log(3.0 / delta) / nz) +
      3.0 * psi * math.log(3.0 / delta) / nz

  /** `ψ` of Eq. (9): walk-sum range bound from the two largest entries of
    * the input vectors (Lemma 3.3).
    */
  def psi(sVec: Array[Double], tVec: Array[Double], ds: Int, dt: Int, ellF: Int): Double = {
    val (s1, s2) = topTwo(sVec)
    val (t1, t2) = topTwo(tVec)
    2.0 * math.ceil(ellF / 2.0) * (s1 / ds + t1 / dt) +
      2.0 * math.floor(ellF / 2.0) * (s2 / ds + t2 / dt)
  }

  /** `η*` of Eq. (8): Hoeffding-derived maximum number of walk pairs. */
  def etaStar(psi: Double, eps: Double, tau: Int, delta: Double): Long = {
    val raw = math.ceil(2.0 * psi * psi * math.log(2.0 * tau / delta) / (eps * eps))
    require(raw < Long.MaxValue.toDouble,
      s"eta* = $raw walk pairs does not fit a Long (psi=$psi eps=$eps tau=$tau delta=$delta)")
    raw.toLong
  }

  /** `h(ℓ_f)` — the worst-case number of walk pairs AMC performs over its
    * τ batches: `(2^τ − 1)·ceil(η* / 2^{τ−1}) < 2η*` (§3.3.2). GEER uses this
    * as the right-hand side of the greedy switch rule (Eq. 17).
    */
  def h(psi: Double, eps: Double, tau: Int, delta: Double): Long =
    ((1L << tau) - 1L) * firstBatch(etaStar(psi, eps, tau, delta), tau)

  /** `η₀ = ceil(η* / 2^{τ−1})`, the first of τ doubling batches. Fails
    * unless the walks of all τ batches, `2·η₀·(2^τ − 1)`, fit a Long, so no
    * batch size or walk count derived from it can wrap.
    */
  private def firstBatch(etaS: Long, tau: Int): Long = {
    require(tau >= 1 && tau <= 62, s"tau out of range: $tau")
    val b = 1L << (tau - 1)
    val eta0 = etaS / b + (if (etaS % b == 0) 0L else 1L)
    require(eta0 <= Long.MaxValue / (2L * ((1L << tau) - 1L)),
      s"$tau doubling batches from $eta0 walk pairs overflow a Long walk count (eta*=$etaS)")
    eta0
  }

  /** Fails unless `s` and `t` are nodes of `g` and `0 < δ < 1`: the checks
    * of every query entry point.
    */
  private[core] def requireQuery(g: CsrGraph, s: Int, t: Int, delta: Double): Unit = {
    require(s >= 0 && s < g.n && t >= 0 && t < g.n,
      s"query pair ($s, $t) is outside the node range [0, ${g.n})")
    require(delta > 0.0 && delta < 1.0, s"delta = $delta is outside (0, 1)")
  }

  /** The two largest values of a non-negative vector. */
  def topTwo(x: Array[Double]): (Double, Double) = {
    var m1 = Double.NegativeInfinity
    var m2 = Double.NegativeInfinity
    var i = 0
    while (i < x.length) {
      val v = x(i)
      if (v > m1) { m2 = m1; m1 = v }
      else if (v > m2) { m2 = v }
      i += 1
    }
    (math.max(m1, 0.0), math.max(m2, 0.0))
  }

  /** Algorithm 1. Estimates `q(s,t)` of Eq. (12) for the given score
    * vectors within `±ε/2` with probability ≥ 1 − δ.
    *
    * @param sVec,tVec non-negative score vectors (`e_s`/`e_t` for a
    *                  standalone query; SMM's `s*`/`t*` inside GEER)
    * @param ellF      maximum walk length (`ℓ` standalone, `ℓ − ℓ_b` in GEER)
    * @param tau       number of doubling batches
    * @param engine    walk fan-out engine
    * @param seed      base randomness for this query
    */
  def estimate(g: CsrGraph, s: Int, t: Int,
               sVec: Array[Double], tVec: Array[Double],
               eps: Double, ellF: Int, tau: Int, delta: Double,
               engine: WalkEngine, seed: Long): PerResult = {
    requireQuery(g, s, t, delta)
    require(sVec.length == g.n && tVec.length == g.n,
      s"score vectors have lengths ${sVec.length} and ${tVec.length}, not n = ${g.n}")
    require(tau >= 1 && tau <= 62, s"tau out of range: $tau")
    if (ellF <= 0) return PerResult(0.0)
    val ds = g.degree(s); val dt = g.degree(t)
    val dsInv = 1.0 / ds; val dtInv = 1.0 / dt
    val psiV = psi(sVec, tVec, ds, dt, ellF)
    if (psiV <= 0.0) return PerResult(0.0)
    val eta0 = firstBatch(etaStar(psiV, eps, tau, delta), tau)

    var z = 0.0
    var totalWalks = 0L
    var batches = 0
    var i = 1
    var done = false
    while (i <= tau && !done) {
      val eta = eta0 << (i - 1)
      val batchSeed = repro.util.Rng.derive(seed, 0x5EEDL + i)
      val sums = engine.sumChunks(eta, 2, 2L * ellF) { (from, until, acc) =>
        Walks.zSums(g, s, t, ellF, batchSeed, from, until, sVec, tVec, dsInv, dtInv, acc)
      }
      val sumZ = sums(0); val sumZ2 = sums(1)
      totalWalks += 2L * eta // a walk from s and a walk from t per sample
      batches += 1
      z = sumZ / eta
      val sigma2 = sumZ2 / eta - z * z
      if (bernstein(eta, sigma2, psiV, delta / tau) <= eps / 2.0) done = true
      else i += 1
    }
    PerResult(z, walks = totalWalks, batches = batches)
  }

  /** Standalone ε-approximate PER query (Theorem 3.4): run [[estimate]]
    * with `s = e_s`, `t = e_t`, `ℓ_f = ℓ` (Eq. 6), then add the indicator
    * correction `1_{s≠t}(1/d(s) + 1/d(t))` (since `q` omits the i = 0
    * term of `r_ℓ`).
    */
  def query(g: CsrGraph, lambda: Double, s: Int, t: Int,
            eps: Double, delta: Double, tau: Int,
            engine: WalkEngine, seed: Long): PerResult = {
    requireQuery(g, s, t, delta)
    if (s == t) return PerResult(0.0)
    val ell = Ell.refined(eps, lambda, g.degree(s), g.degree(t))
    val sVec = new Array[Double](g.n); sVec(s) = 1.0
    val tVec = new Array[Double](g.n); tVec(t) = 1.0
    val r = estimate(g, s, t, sVec, tVec, eps, ell, tau, delta, engine, seed)
    r.copy(estimate = r.estimate + 1.0 / g.degree(s) + 1.0 / g.degree(t))
  }
}

/** AMC as a benchmark estimator. */
final class AmcEstimator(g: CsrGraph, lambda: Double, delta: Double, tau: Int,
                         engine: WalkEngine, seed: Long) extends PerEstimator {
  val name = "AMC"
  def query(s: Int, t: Int, eps: Double): PerResult =
    timed(Amc.query(g, lambda, s, t, eps, delta, tau, engine, repro.util.Rng.derive(seed, (s.toLong << 32) | t)))
}
