package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.connectivity.LocalCC
import repro.core.InfluenceEval
import repro.graph.CSRGraph
import repro.prob.ProbModel
import repro.sample.EdgeSampler
import repro.sketch.{SketchBuilder, SketchSet}
import repro.sketch.SketchBuilder.CCAlgo
import repro.util.{Par, Rand}

/** The PaC-IM benchmark: one workload per JVM, driven only through the
  * program's public functions, with parallelism only from the program's
  * own use of the common fork-join pool.
  *
  *   --trace 0  set up (three times), warm up (at least WarmupCalls calls and
  *              WarmupMinS seconds, counted in setup_s), then time whole calls of the
  *              workload's configuration for `--seconds`; report the
  *              end-to-end metrics.
  *   --trace 1  same set-up, then alternate an untimed-by-layer call with a
  *              traced replay of the calls `PaCIM.run` makes, one span per
  *              layer; report the per-layer metrics and write the spans.
  *
  * Every call's seeds are compared with reference seeds computed in set-up
  * by a configuration that differs in selector or α.
  */
object Main {
  import Workloads.{K, R, Sims}

  final case class Args(w: Workload, seed: Long, seconds: Double, trace: Boolean, sha: String)

  private val SetupReps = 3
  private val WarmupCalls = 2
  private val WarmupMinS = 2.0
  private val MarginalProbes = 1000
  private val cores = Runtime.getRuntime.availableProcessors
  private val TraceDir = ".bench_build/traces"

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val out = run(args)
    out.lines.foreach(println)
    println(Json.write(out.result))
    System.out.flush()
  }

  private def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = {
      System.err.println(s"perfbench: $msg\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "--seed <int> --seconds <s> --trace <0|1> [--sha <git sha>]")
      sys.exit(2)
    }
    if (argv.length % 2 != 0 || kv.size * 2 != argv.length) fail("arguments must be --key value pairs")
    def get(k: String) = kv.getOrElse(k, fail(s"missing --$k"))
    val w = Workloads.byName(get("workload")).getOrElse(fail(s"unknown workload ${get("workload")}"))
    val seed = get("seed").toLongOption.getOrElse(fail("--seed must be an integer"))
    val seconds = get("seconds").toDoubleOption.filter(_ > 0).getOrElse(fail("--seconds must be > 0"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => fail(s"--trace must be 0 or 1, not $t")
    }
    Args(w, seed, seconds, trace, kv.getOrElse("sha", "unknown"))
  }

  // ---------------------------------------------------------------- helpers

  private def now(): Long = System.nanoTime()
  private def secs(t0: Long): Double = (now() - t0) / 1e9

  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Order-sensitive 64-bit digest of a graph's CSR arrays. */
  def graphFingerprint(g: CSRGraph): Long = {
    var h = Rand.mix2(g.n.toLong, g.arcs.toLong)
    g.offsets.foreach(x => h = Rand.mix2(h, x.toLong))
    g.adj.foreach(x => h = Rand.mix2(h, x.toLong))
    h
  }

  /** Digest of the edge probabilities of (up to) the first 4096 arcs. */
  def modelFingerprint(g: CSRGraph, model: ProbModel): Long = {
    var h = 0L
    var u = 0
    var seen = 0
    while (u < g.n && seen < 4096) {
      g.foreachNeighbor(u) { v => h = Rand.mix2(h, java.lang.Double.doubleToLongBits(model.prob(u, v))); seen += 1 }
      u += 1
    }
    h
  }

  /** Heap in use after a full collection. */
  private def usedAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  private val threadBean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by all live threads. */
  private def allocatedBytes(): Long =
    threadBean.getThreadAllocatedBytes(threadBean.getAllThreadIds).filter(_ > 0).sum

  /** Times calls of `f` until the next one would end after `deadline`
    * (judged by the median so far); always at least one.
    */
  private def timeUntil(deadline: Long)(f: => Unit): Unit = {
    val taken = ArrayBuffer[Double]()
    do {
      val t0 = now()
      f
      taken += secs(t0)
    } while (now() + median(taken) * 1e9 <= deadline)
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Counts every checked call and collects every failed check. */
  final class Gate(reference: Array[Int]) {
    var attempted = 0
    var failed = 0
    val problems = ArrayBuffer[String]()
    def seeds(what: String, got: Array[Int]): Unit = {
      attempted += 1
      if (!java.util.Arrays.equals(got, reference)) {
        failed += 1
        problems += s"$what: seeds differ from the reference"
      }
    }
    def check(ok: Boolean, msg: => String): Unit = if (!ok) problems += msg
  }

  final class Metrics {
    val rows = ArrayBuffer[(String, Double, String, String)]()
    def add(name: String, value: Double, unit: String, note: String = ""): Unit =
      rows += ((name, value, unit, note))
  }

  final case class Output(lines: Seq[String], result: Json.V)

  // ------------------------------------------------------------------ setup

  /** What set-up leaves behind. `graph` is dropped before the final heap
    * measurement, so nothing else may hold it.
    */
  final class Setup(var graph: CSRGraph, val model: ProbModel, val reference: Array[Int],
                    val influence: Double, val fingerprint: (Long, Long), val seconds: Seq[Double],
                    val genS: Seq[Double], val influenceS: Seq[Double], val problems: Seq[String])

  /** Generates the inputs, computes the reference seeds and their influence,
    * SetupReps times; later repetitions must reproduce the first exactly.
    */
  private def setup(w: Workload, seed: Long): Setup = {
    val total, gen, infl = ArrayBuffer[Double]()
    val problems = ArrayBuffer[String]()
    var first: Setup = null
    for (rep <- 0 until SetupReps) {
      val t0 = now()
      val g = w.graph(seed)
      val genS = secs(t0)
      val model = w.model(seed)
      val ref = w.reference.run(g, model)
      val t2 = now()
      val influence = InfluenceEval.estimate(g, ref.seeds, model, Sims)
      infl += secs(t2)
      total += secs(t0)
      gen += genS
      val fp = (graphFingerprint(g), modelFingerprint(g, model))
      if (first == null) first = new Setup(g, model, ref.seeds, influence, fp, Nil, Nil, Nil, Nil)
      else {
        if (fp != first.fingerprint) problems += s"set-up $rep: seed $seed produced different inputs"
        if (!java.util.Arrays.equals(ref.seeds, first.reference)) problems += s"set-up $rep: reference seeds changed"
        if (influence != first.influence) problems += s"set-up $rep: influence changed"
      }
    }
    new Setup(first.graph, first.model, first.reference, first.influence, first.fingerprint,
      total.toSeq, gen.toSeq, infl.toSeq, problems.toSeq)
  }

  // ------------------------------------------------------------------- run

  private def run(a: Args): Output = {
    val w = a.w
    val st = setup(w, a.seed)
    val gate = new Gate(st.reference)
    st.problems.foreach(p => gate.check(ok = false, p))

    val tw = now()
    var warmCalls = 0
    do {
      val warm = w.timed.run(st.graph, st.model)
      warmCalls += 1
      gate.seeds(s"warm-up call $warmCalls", warm.seeds)
    } while (warmCalls < WarmupCalls || secs(tw) < WarmupMinS)
    val warmS = secs(tw)
    val setupS = median(st.seconds) + warmS

    val m = new Metrics
    val info = ArrayBuffer[(String, Json.V)]()
    val deadline = now() + (a.seconds * 1e9).toLong
    if (!a.trace) {
      val samples = ArrayBuffer[Double]()
      var modelBytes = 0L
      timeUntil(deadline) {
        val t0 = now()
        val r = w.timed.run(st.graph, st.model)
        samples += secs(t0)
        modelBytes = r.totalBytes
        gate.seeds(s"timed call ${samples.length}", r.seeds)
      }
      val sk = buildAndMeasure(st, w.timed, _ => ())
      st.graph = null // the caller holds no other reference to it
      val withoutGraph = usedAfterGc()
      m.add("run_s", median(samples), "s",
        f"median of ${samples.length} warm calls (min ${samples.min}%.4f, max ${samples.max}%.4f)")
      m.add("setup_s", setupS, "s",
        f"median of $SetupReps set-ups (${st.seconds.map(s => f"$s%.3f").mkString(", ")}) + $warmCalls warm-up calls $warmS%.3f")
      m.add("mem_mb", (sk.withSketches - withoutGraph) / 1e6, "MB", "heap retained after full GC by the CSR graph + SketchSet")
      m.add("model_mb", modelBytes / 1e6, "MB", "PaCIM.Result.totalBytes (Table 2 accounting)")
      m.add("influence", st.influence, "vertices", s"InfluenceEval.estimate of the seeds, $Sims simulations")
      m.add("match_frac", (gate.attempted - gate.failed).toDouble / gate.attempted, "ratio",
        s"1 - failed_frac; ${gate.failed} of ${gate.attempted} checked calls differ from the reference")
      info += "run_s_samples" -> Json.arr(samples.toSeq.map(Json.dbl))
    } else {
      traced(a, st, gate, m, info, deadline)
    }

    val meta = Json.obj(
      "workload" -> w.name, "input" -> w.input, "seed" -> a.seed, "trace" -> a.trace,
      "seconds" -> a.seconds, "git_sha" -> a.sha, "cores" -> cores,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "R" -> R, "k" -> K, "alpha" -> w.timed.alpha, "config" -> w.timed.label,
      "reference" -> w.reference.label, "graph_fingerprint" -> f"${st.fingerprint._1}%016x",
      "model_fingerprint" -> f"${st.fingerprint._2}%016x", "checked_calls" -> gate.attempted,
      "failed_calls" -> gate.failed)
    val lines = ArrayBuffer[String]()
    lines += s"meta ${Json.write(meta)}"
    info.foreach { case (k, v) => lines += s"info $k ${Json.write(v)}" }
    m.rows.foreach { case (n, v, u, note) => lines += f"metric $n%-26s $v%16.6f $u%-9s $note" }
    gate.problems.foreach(p => lines += s"FAILED $p")
    val result = Json.obj(
      "correct" -> gate.problems.isEmpty, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> Json.Obj(m.rows.toSeq.map { case (n, v, u, _) => n -> Json.obj("value" -> v, "unit" -> u) }))
    Output(lines.toSeq, result)
  }

  // ---------------------------------------------------------------- memory

  /** Heap in use after full GC with the graph alone, then with the graph
    * and the workload's SketchSet (built by `SketchBuilder.build`).
    */
  final case class Sketched(withGraph: Long, withSketches: Long, buildS: Double)

  /** `probe` runs while the sketch set is alive. A separate frame, so no
    * local of the caller keeps the sketch set reachable.
    */
  private def buildAndMeasure(st: Setup, cfg: Config, probe: SketchSet => Unit): Sketched = {
    val withGraph = usedAfterGc()
    val t0 = now()
    val sk = SketchBuilder.build(st.graph, st.model, R, cfg.alpha, cfg.cc)
    val buildS = secs(t0)
    val withSketches = usedAfterGc()
    probe(sk)
    java.lang.ref.Reference.reachabilityFence(sk)
    Sketched(withGraph, withSketches, buildS)
  }

  // ------------------------------------------------------------------ trace

  final case class Replay(seeds: Array[Int], evaluations: Long, structBytes: Long,
                          centers: Span, cc: Span, ccBusyS: Double, assemble: Span, select: Span) {
    def layerSumS: Double = centers.seconds + cc.seconds + assemble.seconds + select.seconds
  }

  private def ccCall(algo: CCAlgo, g: CSRGraph, sampler: EdgeSampler, r: Int): Array[Int] = algo match {
    case CCAlgo.UnionFind => LocalCC.byUnionFind(g, sampler, r)
    case CCAlgo.Coloring => LocalCC.byColoring(g, sampler, r)
  }

  /** The public calls `PaCIM.run` makes, one span each: centers, the R
    * per-sketch CCs (one child span per sketch), assembly over the
    * precomputed labels, and selection.
    */
  private def replay(tr: Tracer, id: Int, cfg: Config, g: CSRGraph, model: ProbModel): Replay = {
    tr.span(id, "replay", 0) { rootId =>
      val sampler = EdgeSampler.forSketches(model)
      val (centers, cSpan) = tr.span(id, "sketch.centers", rootId)(_ => SketchBuilder.chooseCenters(g.n, cfg.alpha))
      val labels = new Array[Array[Int]](R)
      val (_, ccSpan) = tr.span(id, "connectivity.cc", rootId) { ccId =>
        Par.parFor(R)(r => labels(r) = tr.span(id, "connectivity.cc_sketch", ccId)(_ => ccCall(cfg.cc, g, sampler, r))._1)
      }
      val ccBusy = tr.childrenOf(ccSpan).map(_.seconds).sum
      val (sk, aSpan) = tr.span(id, "sketch.assemble", rootId)(_ =>
        SketchBuilder.fromCCLabels(g, sampler, R, centers)(labels(_)))
      val (sel, sSpan) = tr.span(id, "select", rootId)(_ => cfg.selector().select(sk, K))
      Replay(sel.seeds, sel.evaluations, sel.structBytes, cSpan, ccSpan, ccBusy, aSpan, sSpan)
    }._1
  }

  @volatile private var blackhole = 0L

  /** ns per `EdgeSampler.sample` over full CSR passes (median of 7, after 3 warm-up passes). */
  private def probeNs(g: CSRGraph, model: ProbModel): Double = {
    val sampler = EdgeSampler.forSketches(model)
    val off = g.offsets
    val adj = g.adj
    def pass(r: Int): Long = {
      var hits = 0L
      var u = 0
      while (u < g.n) {
        var i = off(u)
        val end = off(u + 1)
        while (i < end) { if (sampler.sample(u, adj(i), r)) hits += 1; i += 1 }
        u += 1
      }
      hits
    }
    (0 until 3).foreach(r => blackhole += pass(r))
    median((3 until 10).map { r =>
      val t0 = now()
      blackhole += pass(r)
      (now() - t0).toDouble / g.arcs
    })
  }

  private def traced(a: Args, st: Setup, gate: Gate, m: Metrics, info: ArrayBuffer[(String, Json.V)],
                     deadline: Long): Unit = {
    val w = a.w
    val g = st.graph
    val tr = new Tracer
    val wall, alloc, gc, sketchS, selectS = ArrayBuffer[Double]()
    val replays = ArrayBuffer[Replay]()
    timeUntil(deadline) {
      val a0 = allocatedBytes()
      val gc0 = gcMillis()
      val t0 = now()
      val r = w.timed.run(g, st.model)
      wall += secs(t0)
      alloc += (allocatedBytes() - a0) / 1e6
      gc += (gcMillis() - gc0) / 1e3
      sketchS += r.sketchTimeMs / 1e3
      selectS += r.selectTimeMs / 1e3
      gate.seeds(s"call ${wall.length}", r.seeds)
      val rp = replay(tr, replays.length + 1, w.timed, g, st.model)
      replays += rp
      gate.seeds(s"traced replay ${replays.length}", rp.seeds)
    }

    val probe = probeNs(g, st.model)

    // A different seed must change the inputs: the R-MAT graph or the salt.
    val other = w.graph(a.seed + 1)
    val otherFp = (graphFingerprint(other), modelFingerprint(other, w.model(a.seed + 1)))
    gate.check(otherFp._1 != st.fingerprint._1 || otherFp._2 != st.fingerprint._2,
      s"seeds ${a.seed} and ${a.seed + 1} produced identical inputs")
    info += "seed_plus_one_changes" -> Json.obj(
      "graph" -> (otherFp._1 != st.fingerprint._1), "model" -> (otherFp._2 != st.fingerprint._2))

    var markS, marginalUs, visitsPerEval = 0.0
    val n = g.n
    val arcs = g.arcs
    val mem = buildAndMeasure(st, w.timed, { sk =>
      val c = sk.copy()
      val t0 = now()
      st.reference.foreach(c.markSeed)
      markS = secs(t0)
      val rng = new Rand.Pcg(a.seed ^ 0x3a9c1L)
      val probes = Array.fill(MarginalProbes)(rng.nextInt(n))
      val v0 = c.visitCounter.sum()
      var acc = 0.0
      val t1 = now()
      probes.foreach(v => acc += c.marginal(v))
      marginalUs = secs(t1) * 1e6 / MarginalProbes
      visitsPerEval = (c.visitCounter.sum() - v0).toDouble / (MarginalProbes.toLong * R)
      gate.check(acc >= 0 && acc <= n.toDouble * MarginalProbes, s"marginal sum $acc out of range")
    })

    def med(f: Replay => Double): Double = median(replays.map(f))
    val evals = replays.map(_.evaluations.toDouble)
    val runS = median(wall)
    val layerS = med(_.layerSumS)
    m.add("graph.gen_s", median(st.genS), "s", "GraphGen, median of set-ups")
    m.add("sample.probe_ns", probe, "ns", "EdgeSampler.sample, one full CSR pass, median of 7")
    m.add("sample.build_probes", R.toDouble * (arcs / 2), "count",
      "computed: R*m (one probe per edge per sketch; coloring repeats it per pass)")
    m.add("connectivity.cc_s", med(_.cc.seconds), "s", "wall time of the R per-sketch CC calls")
    m.add("connectivity.cc_busy_s", med(_.ccBusyS), "s", "CC time summed over threads")
    m.add("connectivity.cc_util", med(r => r.ccBusyS / (r.cc.seconds * cores)), "ratio", s"busy / (wall * $cores cores)")
    m.add("sketch.build_s", mem.buildS, "s", "SketchBuilder.build, one call")
    m.add("sketch.assemble_s", med(_.assemble.seconds), "s", "fromCCLabels over precomputed labels")
    m.add("sketch.marginal_us", marginalUs, "us", s"mean of $MarginalProbes seeded marginal calls, k seeds marked")
    m.add("sketch.visits_per_eval", visitsPerEval, "count", "GetCenter visits per (marginal call * R)")
    m.add("sketch.mark_seed_s", markS, "s", s"$K markSeed calls on a copy")
    m.add("sketch.retained_mb", (mem.withSketches - mem.withGraph) / 1e6, "MB", "heap retained by the SketchSet after full GC")
    m.add("select.s", med(_.select.seconds), "s", "Selector.select on the replayed sketches")
    m.add("select.evaluations_min", evals.min, "count", s"over ${replays.length} replays")
    m.add("select.evaluations_max", evals.max, "count", s"over ${replays.length} replays")
    m.add("select.us_per_eval", med(r => r.select.seconds * 1e6 / math.max(1L, r.evaluations)), "us", "select.s / evaluations")
    m.add("select.evals_per_n", median(evals) / n, "ratio", s"median evaluations / n (n=$n)")
    m.add("select.struct_mb", med(_.structBytes.toDouble) / 1e6, "MB", "SelectionResult.structBytes")
    m.add("core.sketch_s", median(sketchS), "s", s"PaCIM.Result.sketchTimeMs, median of ${wall.length} calls")
    m.add("core.select_s", median(selectS), "s", "PaCIM.Result.selectTimeMs")
    m.add("core.alloc_mb", median(alloc), "MB", "bytes allocated by all threads per call")
    m.add("core.gc_s", median(gc), "s", "collector time per call")
    m.add("core.influence_s", median(st.influenceS), "s", s"InfluenceEval.estimate, $Sims simulations")
    m.add("trace.gap_frac", math.abs(layerS - runS) / runS, "ratio",
      f"|layer spans $layerS%.4f s - untraced call $runS%.4f s| / untraced call")

    val file = Paths.get(TraceDir, s"${w.name}-seed${a.seed}.json")
    Files.createDirectories(file.getParent)
    val doc = Json.obj("workload" -> w.name, "seed" -> a.seed, "untraced_call_s" -> Json.arr(wall.toSeq.map(Json.dbl)),
      "computed" -> Json.arr(Seq(Json.str("sample.build_probes"))), "spans" -> tr.toJson)
    Files.write(file, Json.write(doc).getBytes(StandardCharsets.UTF_8))
    info += "trace_file" -> file.toString
    info += "replays" -> replays.length
  }
}
