package repro.prob

import repro.graph.CSRGraph
import repro.util.Rand

/** IC edge-activation probability p_e.
  *
  * The three assignments evaluated by the paper:
  *  - [[Constant]] — the main-body "Consistent" setting (p = 0.02 on
  *    scale-free graphs, 0.2 on sparse graphs);
  *  - [[UniformHash]] — Appendix A "Uniform": p_e ~ U(lo, hi), drawn
  *    deterministically from a hash of the (undirected) edge so every
  *    component of the pipeline sees the same probability;
  *  - [[WIC]] — Appendix A "WIC": p_uv = 2 / (d_u + d_v).
  */
sealed trait ProbModel extends Serializable {
  /** Activation probability of undirected edge {u, v}. */
  def prob(u: Int, v: Int): Double
  /** Short label used by bench tables. */
  def label: String
}

/** Fixed probability for every edge. */
final case class Constant(p: Double) extends ProbModel {
  require(p >= 0 && p <= 1, s"p=$p out of [0,1]")
  override def prob(u: Int, v: Int): Double = p
  override def label: String = s"const($p)"
}

/** Per-edge uniform draw from [lo, hi), hashed from the edge key. */
final case class UniformHash(lo: Double, hi: Double, salt: Long = 0x5eedL) extends ProbModel {
  require(lo >= 0 && hi <= 1 && lo <= hi)
  override def prob(u: Int, v: Int): Double =
    lo + (hi - lo) * Rand.hash01(Rand.edgeKey(u, v), salt)
  override def label: String = s"U($lo,$hi)"
}

/** Weighted-IC analog for undirected graphs: p_uv = 2/(d_u + d_v). */
final case class WIC(degrees: Array[Int]) extends ProbModel {
  override def prob(u: Int, v: Int): Double = {
    val d = degrees(u) + degrees(v)
    if (d == 0) 0.0 else math.min(1.0, 2.0 / d)
  }
  override def label: String = "WIC"
}

object ProbModel {
  /** p as the exact integer threshold the sampler compares a 53-bit hash
    * against, ceil(p · 2^53): for an integer x in [0, 2^53),
    * x · 2^-53 < p ⇔ x < ceil(p · 2^53).
    * Both products are exact in double arithmetic (scaling by a power of
    * two), so comparing the raw 53-bit hash against this threshold keeps
    * exactly the edges `hash01 < p` keeps. p = 0 gives 0 (no x passes),
    * p = 1 gives 2^53 (every x passes).
    */
  def thresholdOf(p: Double): Long = math.ceil(p * 9007199254740992.0).toLong // 2^53
}

object WIC {
  def of(g: CSRGraph): WIC = WIC(Array.tabulate(g.n)(g.degree))
}
