package repro.util

/** Small counter-based RNG (SplitMix64).
  *
  * Every random draw in the reproduction is derived from an explicit
  * `(seed, stream)` pair so that results are deterministic regardless of
  * thread scheduling: the walk engine gives sample `k` of a batch the
  * stream `(batchSeed, k)`, so which thread draws a sample does not change
  * the sample.
  */
final class Rng(seed0: Long) extends Serializable {
  private var state: Long = seed0

  @inline private def nextLong(): Long = {
    state += 0x9e3779b97f4a7c15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform in `[0, bound)`; `bound > 0`. */
  @inline def nextInt(bound: Int): Int = {
    // Rejection-free modulo is fine here: bound << 2^63 so bias is ~2^-40.
    val v = nextLong() >>> 1
    (v % bound).toInt
  }

  /** Uniform double in `[0, 1)`. */
  @inline def nextDouble(): Double =
    (nextLong() >>> 11) * 1.1102230246251565e-16 // 2^-53
}

object Rng {
  /** Mixes two 64-bit values into a well-dispersed child seed. */
  def derive(seed: Long, stream: Long): Long = {
    var z = seed ^ (stream * 0x9e3779b97f4a7c15L)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def apply(seed: Long, stream: Long = 0L): Rng = new Rng(derive(seed, stream))
}
