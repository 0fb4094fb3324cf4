package repro.sketch

import java.util.concurrent.atomic.LongAdder

import repro.graph.CSRGraph
import repro.sample.EdgeSampler
import repro.util.{Par, Scratch}

/** The compressed sketches of PaC-IM (Sec. 3, Alg. 3).
  *
  * A sketch Φ_r memoizes one int per center for ρ = αn uniformly random
  * *centers*. The sampled graph G'_r itself is implicit: it is fully
  * determined by (sampler, r) and re-hashed on the fly.
  *
  *  - `comp(r)(j)` for center index j: if j is not its component's
  *    representative on G'_r, the representative's center index (≥ 0);
  *    if j is the representative, `~influence` (< 0) — `~size` after the
  *    build, `~0` once any vertex of the component has been chosen as a
  *    seed (MarkSeed). The representative is the smallest center index in
  *    the component (centers are sorted by vertex id, so "smallest index"
  *    == the paper's "smallest center id").
  *  - `initGains(v)`: Σ_r of v's component size on G'_r, i.e. v's gain on
  *    the empty seed set, memoized at build time.
  *
  * Scores are integer *gains*: v's gain is Σ_r δ_r, which is R × the
  * paper's Marginal (an average). Every selector ranks by the gain, so
  * no floating point is involved in selection; `marginal` divides by R
  * for callers that want the paper's value. `fromCCLabels` requires
  * R·n ≤ Int.MaxValue, so a gain always fits in an Int.
  *
  * `getCenter(r, v)` answers with one int: v's representative center
  * index on G'_r when v's component has a center (δ_r is then `~comp` at
  * that representative), otherwise `~δ_r` (< 0) — `~0` for a seed,
  * `~visited` for a component the BFS exhausted without a center.
  *
  * With α = 1 this degenerates to InfuserMG's full memoization (every
  * GetCenter terminates at its first vertex); with α = 0 to StaticGreedy's
  * pure simulation. The marginal-gain *values* are identical for every α —
  * only the evaluation cost changes (Thm. 3.1) — which tests assert.
  *
  * Thread safety: `gain`/`marginal` are read-only and safe to call from many
  * threads; `markSeed` must be called from one thread at a time (between
  * selection rounds), which is how Alg. 1 uses it.
  */
final class SketchSet(
    val g: CSRGraph,
    val sampler: EdgeSampler,
    val R: Int,
    val centers: Array[Int],
    val centerIndex: Array[Int], // n entries: vertex -> center index, or -1
    val comp: Array[Array[Int]], // R × ρ: representative index, or ~influence
    val initGains: Array[Int], // gain(v) on the empty seed set
) {
  val rho: Int = centers.length
  require(comp.length == R && comp.forall(_.length == rho), s"comp must be $R rows of $rho entries")

  private val isSeed = new Array[Boolean](g.n)

  /** Total vertices visited by all GetCenter BFS — the Thm-3.1 metric. */
  val visitCounter = new LongAdder

  /** Fresh copy with independent `comp` (for running several selectors
    * against identical sketches) and seed state.
    */
  def copy(): SketchSet =
    new SketchSet(g, sampler, R, centers, centerIndex, comp.map(_.clone()), initGains)

  /** Auxiliary sketch bytes (Tab. 2's O((1+αR)n) term, measured):
    * R·ρ ints of comp + n ints of centerIndex + n ints of initGains.
    */
  def sketchBytes: Long = 4L * R * rho + 8L * g.n

  /** Representative center index of center j on sketch r. */
  @inline private def rep(r: Int, j: Int): Int = {
    val c = comp(r)(j)
    if (c < 0) j else c
  }

  /** Alg. 3 GetCenter, answered as one int (encoding in the class doc).
    * BFS over the implicit G'_r; stops at the first center, or at the end
    * of the neighbor list in which it first meets a seed (either
    * determines the answer).
    */
  def getCenter(r: Int, v: Int): Int = getCenter(r, v, null)

  /** GetCenter with the caller's BFS scratch `s`, or null to look up the
    * thread's own only if a BFS is needed.
    */
  private def getCenter(r: Int, v: Int, s0: Scratch): Int = {
    if (isSeed(v)) return ~0
    val ci = centerIndex(v)
    if (ci >= 0) {
      visitCounter.increment()
      return rep(r, ci)
    }
    val s = if (s0 != null) s0 else Scratch.local(g.n)
    val rs = sampler.saltOf(r)
    val offsets = g.offsets; val adj = g.adj
    s.reset()
    s.visit(v)
    s.queue(0) = v
    // Every vertex enqueued so far has been visited, so `tail` counts visits.
    var head = 0; var tail = 1
    while (head < tail) {
      val u = s.queue(head); head += 1
      var seedSeen = false
      var i = offsets(u)
      val end = offsets(u + 1)
      while (i < end) {
        val w = adj(i)
        if (!s.visited(w) && sampler.sampleSalted(u, w, rs)) {
          val cw = centerIndex(w)
          if (cw >= 0) { visitCounter.add(tail.toLong + 1); return rep(r, cw) }
          if (isSeed(w)) seedSeen = true
          else { s.visit(w); s.queue(tail) = w; tail += 1 }
        }
        i += 1
      }
      // A seed makes δ_r = 0, but u's list is finished first: a center
      // later in it answers instead (its component is seeded, so its
      // influence is 0 too). The visit count follows this order.
      if (seedSeen) { visitCounter.add(tail.toLong); return ~0 }
    }
    visitCounter.add(tail.toLong)
    ~tail
  }

  /** δ_r of v: its marginal influence on sketch r. */
  @inline private def delta(r: Int, v: Int, s: Scratch): Int = {
    val c = getCenter(r, v, s)
    if (c >= 0) ~comp(r)(c) else ~c
  }

  /** v's gain Σ_r δ_r over all R sketches (R × the paper's Marginal). */
  def gain(v: Int, parallel: Boolean = false): Int = {
    if (parallel) {
      // Each task runs on its own thread, so it looks up its own scratch.
      Par.parSumL(R)(r => delta(r, v, null).toLong).toInt
    } else {
      // With every vertex a center (ρ = n), GetCenter never searches.
      val s = if (rho < g.n) Scratch.local(g.n) else null
      var sum = 0
      var r = 0
      while (r < R) { sum += delta(r, v, s); r += 1 }
      sum
    }
  }

  /** Alg. 3 Marginal: average of δ_r over all R sketches. */
  def marginal(v: Int, parallel: Boolean = false): Double =
    gain(v, parallel).toDouble / R

  /** Alg. 3 MarkSeed: zero the influence of v's component on every
    * sketch where that component is represented by a center.
    */
  def markSeed(v: Int): Unit = {
    Par.parFor(R) { r =>
      val c = getCenter(r, v)
      if (c >= 0) comp(r)(c) = ~0
    }
    isSeed(v) = true
  }

  def seeded(v: Int): Boolean = isSeed(v)
}
