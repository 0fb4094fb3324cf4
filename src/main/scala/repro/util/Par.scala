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

/** Reusable BFS scratch: a stamp-versioned visited array plus an int
  * queue; `reset()` is O(1) by bumping the version stamp. Obtained through
  * [[Scratch.local]], which keeps one instance per thread and n only on
  * threads that keep their ThreadLocals. Common fork-join pool workers do
  * not: on JDK 17 they drop their ThreadLocals after every top-level task
  * (1000 parallel loops of 256 iterations on 4 cores created ~2000
  * thread-local values, not ~4), so on a worker each stolen task
  * allocates a fresh instance.
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

  /** Thread-local scratch for graphs with n vertices (see the class doc
    * for how long a pool worker keeps it).
    */
  def local(n: Int): Scratch = {
    val m = pool.get()
    var s = m.get(n)
    if (s == null) { s = new Scratch(n); m.put(n, s) }
    s
  }
}
