package repro.util

/** Small counter-based RNG (SplitMix64).
  *
  * Every random draw in the reproduction is derived from an explicit
  * `(seed, stream)` pair so that results are deterministic regardless of
  * thread scheduling: the walk engine gives sample `k` of a batch the
  * stream `(batchSeed, k)`, so which thread draws a sample does not change
  * the sample.
  *
  * The state is a plain counter: each draw adds a fixed odd constant and
  * mixes the sum. So skipping `n` draws is one multiply-add
  * ([[Rng.skip]]), and a hot loop may keep bare counters in a `Long` array
  * and draw with [[Rng.boundedInt]]. The AMC walk kernel does both: it
  * steps many walks in lockstep, and starts each walk from `t` where the
  * walk from `s` of the same stream stops.
  */
final class Rng(seed0: Long) {
  private var state: Long = seed0

  @inline private def nextLong(): Long = {
    state = Rng.skip(state, 1L)
    Rng.mix(state)
  }

  /** Uniform in `[0, bound)`; `bound > 0`. */
  @inline def nextInt(bound: Int): Int = {
    state = Rng.skip(state, 1L)
    Rng.boundedInt(state, bound)
  }

  /** Uniform double in `[0, 1)`. */
  @inline def nextDouble(): Double =
    (nextLong() >>> 11) * 1.1102230246251565e-16 // 2^-53
}

object Rng {

  /** The counter increment of one draw (the golden-ratio constant). */
  private final val Gamma = 0x9e3779b97f4a7c15L

  /** SplitMix64's output function. */
  @inline private def mix(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** The counter `state` advanced by `n` draws. */
  @inline def skip(state: Long, n: Long): Long = state + n * Gamma

  /** The draw of `nextInt(bound)` whose advanced counter is `state`.
    * Rejection-free modulo is fine here: bound << 2^63 so bias is ~2^-40.
    */
  @inline def boundedInt(state: Long, bound: Int): Int =
    ((mix(state) >>> 1) % bound).toInt

  /** Mixes two 64-bit values into a well-dispersed child seed; also the
    * initial counter of `Rng(seed, stream)`.
    */
  def derive(seed: Long, stream: Long): Long = mix(seed ^ (stream * Gamma))

  def apply(seed: Long, stream: Long = 0L): Rng = new Rng(derive(seed, stream))
}
