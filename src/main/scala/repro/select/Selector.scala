package repro.select

import repro.sketch.SketchSet

/** The selection key of a vertex: its integer gain Σ_r δ_r (R × the
  * paper's Marginal) in the high 32 bits and `~id` in the low 32 bits, so
  * a higher key is a better vertex — higher gain first, then the smaller
  * id. Every selector compares, stores and publishes this one `Long`, so
  * CELF, P-tree and Win-Tree share one strict total order and select
  * *identical* seed sets (the paper assumes no ties; the key makes that
  * true by construction), which tests assert.
  */
object Key {
  @inline def of(gain: Int, id: Int): Long = (gain.toLong << 32) | (~id & 0xffffffffL)
  @inline def id(key: Long): Int = ~key.toInt
  @inline def gain(key: Long): Int = (key >>> 32).toInt
}

/** Result of a full k-seed selection.
  *
  * @param seeds        selected seeds in selection order
  * @param evaluations  number of marginal-gain re-evaluations (Tab. 5's
  *                     metric; the initial scoring of all n vertices is
  *                     memoized during sketch construction and not counted,
  *                     matching the paper's counts that are below n)
  * @param structBytes  bytes of the priority structure itself
  */
final case class SelectionResult(seeds: Array[Int], evaluations: Long, structBytes: Long)

/** A seed-selection strategy: repeatedly find arg-max marginal gain
  * (NextSeed) and commit it (MarkSeed) — the Step-2 loop of Alg. 1.
  * Implementations: [[CelfSelector]] (sequential baseline, Alg. 2),
  * [[PTreeSelector]] (Alg. 4), [[WinTreeSelector]] (Alg. 5).
  */
trait Selector {
  def name: String

  /** Select k seeds, mutating `sk` via markSeed between rounds. */
  def select(sk: SketchSet, k: Int): SelectionResult
}
