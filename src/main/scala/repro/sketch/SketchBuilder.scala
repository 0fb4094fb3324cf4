package repro.sketch

import repro.connectivity.{LocalCC, UnionFind}
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.util.{Par, Rand}

/** Parallel sketch construction — Alg. 1 step 1 / Alg. 3 Sketch(G, r).
  *
  * Builds all R sketches in parallel (one task per core, each running
  * sequential CCs over blocks of implicitly sampled graphs). The CC
  * algorithm is pluggable:
  *  - [[CCAlgo.UnionFind]] — PaC-IM's choice (ConnectIt stand-in);
  *  - [[CCAlgo.Coloring]] — min-label propagation, the algorithm the
  *    paper attributes to InfuserMG's sketch phase; same output, pays a
  *    factor of the sampled-component diameter.
  */
object SketchBuilder {

  sealed trait CCAlgo
  object CCAlgo {
    case object UnionFind extends CCAlgo
    case object Coloring extends CCAlgo
  }

  /** Uniformly random ρ = round(αn) centers (sorted by vertex id),
    * deterministic in `seed` — Sec. 3's uniform center selection.
    */
  def chooseCenters(n: Int, alpha: Double, seed: Long = 0xce57e5L): Array[Int] = {
    require(alpha >= 0 && alpha <= 1, s"alpha=$alpha out of [0,1]")
    val rho = math.round(alpha * n).toInt
    if (rho == 0) return Array.empty
    if (rho == n) return Array.tabulate(n)(identity)
    // Partial Fisher–Yates over [0, n).
    val perm = Array.tabulate(n)(identity)
    val rng = new Rand.Pcg(seed)
    var i = 0
    while (i < rho) {
      val j = i + rng.nextInt(n - i)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i += 1
    }
    val c = java.util.Arrays.copyOf(perm, rho)
    java.util.Arrays.sort(c)
    c
  }

  /** Build a SketchSet from per-sketch canonical CC labelings.
    * `ccOf(r)` must return, for sketch r, an n-array mapping each vertex
    * to the minimum vertex id of its component in G'_r. `centers` may be
    * any strictly increasing subset of [0, n); the gains do not depend on it.
    */
  def fromCCLabels(g: CSRGraph, sampler: EdgeSampler, numSketches: Int,
                   centers: Array[Int])(ccOf: Int => Array[Int]): SketchSet =
    assemble(g, sampler, numSketches, centers, 1) { () => (r0, _) => Array(ccOf(r0)) }

  /** Local parallel build (what the benches use): each task labels blocks
    * of [[LocalCC.Block]] sketches in one CSR pass into its own reusable
    * buffers.
    */
  def build(g: CSRGraph, model: ProbModel, numSketches: Int, alpha: Double,
            ccAlgo: CCAlgo = CCAlgo.UnionFind, centerSeed: Long = 0xce57e5L): SketchSet = {
    val sampler = EdgeSampler.forSketches(model)
    val centers = chooseCenters(g.n, alpha, centerSeed)
    val n = g.n
    assemble(g, sampler, numSketches, centers, LocalCC.Block) { () =>
      val out = Array.fill(LocalCC.Block)(new Array[Int](n))
      ccAlgo match {
        case CCAlgo.UnionFind =>
          val ufs = Array.fill(LocalCC.Block)(new UnionFind(n))
          val firstOf = new Array[Int](n)
          (r0, count) => { LocalCC.unionFindBlock(g, sampler, r0, count, ufs, out, firstOf); out }
        case CCAlgo.Coloring =>
          (r0, count) => { LocalCC.coloringBlock(g, sampler, r0, count, out); out }
      }
    }
  }

  /** The SketchSet of `numSketches` sketches labeled `width` at a time.
    * One task per core calls `newTask()` once for its labeler, which maps
    * a block (r0, count) to the canonical labels of sketches r0 until
    * r0 + count. Tasks claim blocks from a shared counter, so a task on a
    * slow or late thread does not hold up the others.
    */
  private def assemble(g: CSRGraph, sampler: EdgeSampler, numSketches: Int, centers: Array[Int],
                       width: Int)(newTask: () => (Int, Int) => Array[Array[Int]]): SketchSet = {
    val n = g.n
    require(numSketches.toLong * n <= Int.MaxValue,
      s"numSketches * n = ${numSketches.toLong * n} exceeds Int.MaxValue: a gain must fit in an Int")
    val rho = centers.length
    val centerIndex = new Array[Int](n)
    java.util.Arrays.fill(centerIndex, -1)
    var i = 0
    while (i < rho) {
      val c = centers(i)
      require(c >= 0 && c < n && (i == 0 || c > centers(i - 1)),
        s"centers must be strictly increasing vertex ids in [0, $n); centers($i) = $c")
      centerIndex(c) = i
      i += 1
    }

    val comp = new Array[Array[Int]](numSketches)
    // v's gain on ∅ comes free during construction (every vertex's CC
    // size is in hand before compression discards it) — the MixGreedy
    // first-seed observation; it also means selection counts only
    // RE-evaluations, as in the paper's Tab. 5. Each task sums component
    // sizes into its own n ints, and the sums are merged once.
    val blocks = (numSketches + width - 1) / width
    val tasks = math.max(1, math.min(blocks, Runtime.getRuntime.availableProcessors))
    val sums = new Array[Array[Int]](tasks)
    val nextBlock = new java.util.concurrent.atomic.AtomicInteger
    Par.parFor(tasks) { t =>
      val labelBlock = newTask()
      val sum = new Array[Int](n)
      val sizeByLabel = new Array[Int](n)
      var blk = nextBlock.getAndIncrement()
      while (blk < blocks) {
        val r0 = blk * width
        val count = math.min(width, numSketches - r0)
        val labels = labelBlock(r0, count)
        var b = 0
        while (b < count) { comp(r0 + b) = sketchRow(labels(b), centers, sizeByLabel, sum); b += 1 }
        blk = nextBlock.getAndIncrement()
      }
      sums(t) = sum
    }
    val initGains = sums(0)
    var k = 1
    while (k < tasks) {
      val sum = sums(k)
      var v = 0
      while (v < n) { initGains(v) += sum(v); v += 1 }
      k += 1
    }
    new SketchSet(g, sampler, numSketches, centers, centerIndex, comp, initGains)
  }

  /** One sketch's `comp` row from its canonical labels `cc`; adds every
    * vertex's component size to `sum`. `sizeByLabel` (n ints) must be
    * zero and is left zero.
    */
  private def sketchRow(cc: Array[Int], centers: Array[Int], sizeByLabel: Array[Int],
                        sum: Array[Int]): Array[Int] = {
    val n = cc.length
    var v = 0
    while (v < n) { sizeByLabel(cc(v)) += 1; v += 1 }
    v = 0
    while (v < n) { sum(v) += sizeByLabel(cc(v)); v += 1 }
    // Forward scan: centers are sorted by vertex id, so a component's
    // first center is its representative. It stores ~size, and the
    // component's size slot becomes ~rep, which later centers copy.
    val rho = centers.length
    val row = new Array[Int](rho)
    var j = 0
    while (j < rho) {
      val l = cc(centers(j))
      val s = sizeByLabel(l)
      row(j) = ~s
      if (s > 0) sizeByLabel(l) = ~j
      j += 1
    }
    java.util.Arrays.fill(sizeByLabel, 0)
    row
  }
}
