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

/** Reusable BFS scratch for graphs of up to `n` vertices: a
  * stamp-versioned visited array plus an int queue; `reset()` is O(1) by
  * bumping the version stamp. Obtained through [[Scratch.local]], which
  * keeps at most one instance per thread, and only on threads that keep
  * their ThreadLocals. Common fork-join pool workers do not: on JDK 17
  * they drop their ThreadLocals after every top-level task (1000 parallel
  * loops of 256 iterations on 4 cores created ~2000 thread-local values,
  * not ~4), so on a worker each stolen task allocates a fresh instance.
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
  private val mine = new ThreadLocal[Scratch]

  /** This thread's scratch, good for any graph of at most n vertices. It
    * is replaced only by a request for a larger n, so a thread retains one
    * instance, sized for the largest graph it has searched.
    */
  def local(n: Int): Scratch = {
    var s = mine.get()
    if (s == null || s.n < n) { s = new Scratch(n); mine.set(s) }
    s
  }
}
