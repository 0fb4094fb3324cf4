package repro.sample

import repro.prob.{Constant, ProbModel}
import repro.util.Rand

/** Deterministic ("fusion") edge sampling — Alg. 3, lines 8–10.
  *
  * Whether edge e = {u, v} is present in sampled graph r is a pure
  * function of (e, r): `hash01(edgeKey(u,v), salt(r)) < p_e`. The
  * comparison is strict, so p = 0 keeps no edge; hash01 < 1, so p = 1
  * keeps every edge. A sampled graph is therefore never materialized; BFS
  * over it re-hashes edges on the fly, and any process (test, Spark
  * executor, oracle) reconstructs the identical graph from the sketch id r.
  *
  * A probe is computed in integers: hash01(key, rs) is
  * `(mix64(mix64(key) ^ rs) >>> 11) · 2^-53`, so it is below p_e exactly
  * when the 53-bit hash is below `threshold(u, v)` = ceil(p_e · 2^53)
  * ([[ProbModel.thresholdOf]]). Only the last `mix64` depends on the
  * sketch: [[sampleLanes]] computes the edge's hash and threshold once
  * for a block of sketches.
  *
  * `salt` decouples families of draws: sketches, Monte-Carlo influence
  * simulations, and RR-set sampling each use their own salt so they are
  * independent experiments.
  */
final class EdgeSampler(val model: ProbModel, val salt: Long) extends Serializable {
  import EdgeSampler.{edgeHash, keeps}

  // A Constant model's threshold is computed once, so its probes call no model method.
  private val constThreshold: Long = model match {
    case Constant(p) => ProbModel.thresholdOf(p)
    case _ => -1L
  }

  /** Salt of sampled graph r. A loop over one sketch (or simulation)
    * computes it once and probes with [[sampleSalted]].
    */
  @inline def saltOf(r: Int): Long = Rand.mix2(salt, r.toLong)

  /** p_uv as the integer threshold on the 53-bit hash. */
  @inline def threshold(u: Int, v: Int): Long =
    if (constThreshold >= 0) constThreshold else ProbModel.thresholdOf(model.prob(u, v))

  /** Is {u, v} present in the sampled graph whose salt is `rs = saltOf(r)`? */
  @inline def sampleSalted(u: Int, v: Int, rs: Long): Boolean =
    keeps(edgeHash(u, v), rs, threshold(u, v))

  /** The sampled graphs of a block of sketches that keep {u, v}: bit b of
    * the result is set iff bit b of `lanes` is set and the edge is present
    * in the graph whose salt is `salts(b)`. The edge's hash and threshold
    * are computed once for all lanes.
    */
  def sampleLanes(u: Int, v: Int, salts: Array[Long], lanes: Int): Int = {
    val h = edgeHash(u, v)
    val t = threshold(u, v)
    var kept = 0
    var rest = lanes
    while (rest != 0) {
      val b = Integer.numberOfTrailingZeros(rest)
      rest &= rest - 1
      if (keeps(h, salts(b), t)) kept |= 1 << b
    }
    kept
  }

  /** Is {u, v} present in sampled graph r? Symmetric in (u, v). */
  @inline def sample(u: Int, v: Int, r: Int): Boolean = sampleSalted(u, v, saltOf(r))
}

object EdgeSampler {
  /** The sketch-independent half of a probe of edge {u, v}. */
  @inline private def edgeHash(u: Int, v: Int): Long = Rand.mix64(Rand.edgeKey(u, v))

  /** Does the edge with hash `h` survive in the graph salted `rs`, whose
    * threshold for it is `t`? `mix64(h ^ rs) >>> 11` is the 53-bit hash
    * that `hash01(edgeKey, rs)` scales by 2^-53.
    */
  @inline private def keeps(h: Long, rs: Long, t: Long): Boolean = (Rand.mix64(h ^ rs) >>> 11) < t

  /** Salt for the R sketches (Alg. 1 step 1). */
  val SketchSalt = 0x51e7c4afL
  /** Salt for Monte-Carlo influence estimation (Tab. 3/4 "Influence"). */
  val EvalSalt = 0x0e7a1bbcL
  /** Salt for reverse-reachable sampling in the Ripples-style baseline. */
  val RisSalt = 0x7157a9d3L

  def forSketches(model: ProbModel) = new EdgeSampler(model, SketchSalt)
  def forEval(model: ProbModel) = new EdgeSampler(model, EvalSalt)
  def forRis(model: ProbModel) = new EdgeSampler(model, RisSalt)
}
