package repro.core

/** Maximum truncated-walk-length formulas.
  *
  * Both guarantee `|r(s,t) − r_ℓ(s,t)| ≤ ε/2` given
  * `λ = max{|λ₂|, |λ_n|}` of the transition matrix.
  */
object Ell {

  /** Peng et al.'s generic ℓ (Eq. 5):
    * `ℓ = ⌈ ln(4 / (ε(1−λ))) / ln(1/λ) − 1 ⌉`, identical for all pairs.
    */
  def peng(eps: Double, lambda: Double): Int = ell(4.0, eps, lambda)

  /** The paper's refined per-pair ℓ (Theorem 3.1 / Eq. 6):
    * `ℓ = ⌈ log( (2/d(s) + 2/d(t)) / (ε(1−λ)) ) / log(1/λ) − 1 ⌉`.
    * Smaller than [[peng]] whenever `2/d(s) + 2/d(t) < 4`, i.e. always for
    * degrees ≥ 2 — the gap grows with the degrees of the query nodes.
    */
  def refined(eps: Double, lambda: Double, ds: Int, dt: Int): Int = {
    require(ds > 0 && dt > 0, "query nodes must have positive degree")
    ell(2.0 / ds + 2.0 / dt, eps, lambda)
  }

  /** `⌈ log(num / (ε(1−λ))) / log(1/λ) − 1 ⌉`, at least 1; fails when λ is
    * so close to 1 that ℓ does not fit an `Int`.
    */
  private def ell(num: Double, eps: Double, lambda: Double): Int = {
    require(eps > 0 && lambda > 0 && lambda < 1, s"need eps>0, 0<lambda<1; got eps=$eps lambda=$lambda")
    val raw = math.log(num / (eps * (1.0 - lambda))) / math.log(1.0 / lambda) - 1.0
    require(raw < Int.MaxValue, s"ell = $raw walk steps does not fit an Int: lambda=$lambda is too close to 1 (eps=$eps)")
    math.max(1, math.ceil(raw).toInt)
  }
}
