package repro.util

import java.util.stream.IntStream

/** Shared-memory fork-join helpers.
  *
  * The paper's algorithms are written for the fork-join model (ParlayLib).
  * On the JVM the common ForkJoinPool plays that role: `parFor` is the
  * "ParallelForEach" of Alg. 1/3/4, and `WinTreeSelector` forks recursive
  * tasks directly. Spark remains the dataflow layer; this is the
  * shared-memory layer the paper's data structures require.
  */
object Par {

  /** Parallel for over [0, n) on the common ForkJoin pool. */
  def parFor(n: Int)(body: Int => Unit): Unit =
    IntStream.range(0, n).parallel().forEach(i => body(i))

  /** Parallel map over [0, n) into a fresh array. */
  def parTabulate[T: reflect.ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    parFor(n)(i => out(i) = f(i))
    out
  }

  /** Parallel sum of a per-index Long function. */
  def parSumL(n: Int)(f: Int => Long): Long = {
    val acc = new java.util.concurrent.atomic.LongAdder
    parFor(n)(i => acc.add(f(i)))
    acc.sum()
  }
}

/** Reusable, allocation-free BFS scratch: a stamp-versioned visited array
  * plus an int queue. One instance per thread (see [[Scratch.local]]);
  * `reset()` is O(1) by bumping the version stamp.
  */
final class Scratch(val n: Int) {
  private val stamp = new Array[Int](n)
  private var version = 0
  val queue = new Array[Int](n)

  def reset(): Unit = {
    version += 1
    if (version == Int.MaxValue) { java.util.Arrays.fill(stamp, 0); version = 1 }
  }
  @inline def visited(v: Int): Boolean = stamp(v) == version
  @inline def visit(v: Int): Unit = stamp(v) = version
}

object Scratch {
  // Keyed by n so different graphs in one JVM don't share undersized scratch.
  private val pool = new ThreadLocal[java.util.HashMap[Integer, Scratch]] {
    override def initialValue() = new java.util.HashMap[Integer, Scratch]()
  }

  /** Thread-local scratch for graphs with n vertices. */
  def local(n: Int): Scratch = {
    val m = pool.get()
    var s = m.get(n)
    if (s == null) { s = new Scratch(n); m.put(n, s) }
    s
  }
}
