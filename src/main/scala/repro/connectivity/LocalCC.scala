package repro.connectivity

import repro.graph.CSRGraph
import repro.sample.EdgeSampler

/** Connected components of an (implicitly) sampled graph, computed two
  * ways:
  *
  *  - [[byUnionFind]] — what PaC-IM's sketch builder uses (ConnectIt
  *    stand-in);
  *  - [[byColoring]] — iterative min-label propagation, the "standard
  *    coloring idea" the paper attributes to InfuserMG's sketch phase
  *    (Sec. 5.2). Same output, different cost profile: O(#iterations · m)
  *    where #iterations is the max sampled-component diameter.
  *
  * Both return the canonical labeling: label(v) = min vertex id in v's
  * component of the sampled graph `G'_r` (r < 0 means "use all edges").
  *
  * Each is the one-lane case of a block function ([[unionFindBlock]],
  * [[coloringBlock]]) that labels up to [[Block]] consecutive sketches in
  * one CSR pass (one pass per round for coloring): an edge is read once,
  * its hash and threshold are computed once, and only the last hash step
  * is repeated per sketch — Infuser-MG's fusion of B samples per edge
  * pass (Göktürk & Kaya, IEEE TPDS 2021).
  */
object LocalCC {

  /** Sketches per CSR pass in the fused build (lane masks are Ints, so at
    * most 31). Chosen by measurement (DESIGN.md §2): 16 was faster than 8
    * for coloring on EP*, and the two were even for union–find.
    */
  final val Block = 16

  def byUnionFind(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val out = Array(new Array[Int](g.n))
    unionFindBlock(g, sampler, r, 1, Array(new UnionFind(g.n)), out, new Array[Int](g.n))
    out(0)
  }

  def byColoring(g: CSRGraph, sampler: EdgeSampler = null, r: Int = -1): Array[Int] = {
    val out = Array(new Array[Int](g.n))
    coloringBlock(g, sampler, r, 1, out)
    out(0)
  }

  // Salts of sketches r0 until r0 + count, computed once per block; r0 < 0
  // keeps every edge, and `sampler` may then be null.
  private def saltsOf(sampler: EdgeSampler, r0: Int, count: Int): Array[Long] = {
    require(count >= 1 && count <= Block, s"block of $count sketches; 1 to $Block allowed")
    require(r0 >= 0 || count == 1, "the all-edges mode (r < 0) labels one graph")
    val salts = new Array[Long](count)
    if (r0 >= 0) { var b = 0; while (b < count) { salts(b) = sampler.saltOf(r0 + b); b += 1 } }
    salts
  }

  /** Canonical labels of sketches r0 until r0 + count (count ≤ [[Block]])
    * into `out(0 until count)` by union–find, in one CSR pass. `ufs` and
    * `firstOf` (n ints) are the caller's reusable scratch; `ufs(b)` is
    * reset before use.
    */
  def unionFindBlock(g: CSRGraph, sampler: EdgeSampler, r0: Int, count: Int,
                     ufs: Array[UnionFind], out: Array[Array[Int]], firstOf: Array[Int]): Unit = {
    val salts = saltsOf(sampler, r0, count)
    val all = r0 < 0
    val lanes = (1 << count) - 1
    val offsets = g.offsets; val adj = g.adj
    var b = 0
    while (b < count) { ufs(b).reset(); b += 1 }
    var u = 0
    while (u < g.n) {
      var i = offsets(u)
      val end = offsets(u + 1)
      while (i < end) {
        val v = adj(i)
        if (u < v) {
          var kept = if (all) lanes else sampler.sampleLanes(u, v, salts, lanes)
          while (kept != 0) {
            ufs(Integer.numberOfTrailingZeros(kept)).union(u, v)
            kept &= kept - 1
          }
        }
        i += 1
      }
      u += 1
    }
    b = 0
    while (b < count) { ufs(b).labelsInto(out(b), firstOf); b += 1 }
  }

  /** Canonical labels of sketches r0 until r0 + count (count ≤ [[Block]])
    * into `out(0 until count)` by min-label propagation. Each round is one
    * CSR pass over the lanes still active; a lane drops out after its
    * first round without a change, so it runs exactly the rounds of a
    * one-sketch propagation.
    */
  def coloringBlock(g: CSRGraph, sampler: EdgeSampler, r0: Int, count: Int,
                    out: Array[Array[Int]]): Unit = {
    val salts = saltsOf(sampler, r0, count)
    val all = r0 < 0
    val offsets = g.offsets; val adj = g.adj
    var b = 0
    while (b < count) {
      val label = out(b)
      var v = 0
      while (v < g.n) { label(v) = v; v += 1 }
      b += 1
    }
    var active = (1 << count) - 1
    while (active != 0) {
      var changed = 0
      var u = 0
      while (u < g.n) {
        var i = offsets(u)
        val end = offsets(u + 1)
        while (i < end) {
          val v = adj(i)
          if (u < v) {
            var kept = if (all) active else sampler.sampleLanes(u, v, salts, active)
            while (kept != 0) {
              val lane = Integer.numberOfTrailingZeros(kept)
              kept &= kept - 1
              val label = out(lane)
              val lu = label(u); val lv = label(v)
              if (lu < lv) { label(v) = lu; changed |= 1 << lane }
              else if (lv < lu) { label(u) = lv; changed |= 1 << lane }
            }
          }
          i += 1
        }
        u += 1
      }
      active &= changed
    }
    // Propagation by increasing u already reaches a fixpoint of canonical
    // labels: min labels flow along edges until no edge is bichromatic.
  }
}
