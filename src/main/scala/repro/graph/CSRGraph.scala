package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.Rand

/** Compact undirected graph in Compressed Sparse Row form.
  *
  * Vertices are `0 until n`. Every undirected edge {u, v} is stored as two
  * arcs. `offsets` has n+1 entries; the neighbors of v are
  * `adj(offsets(v) until offsets(v+1))`, sorted ascending.
  *
  * This is the paper's input representation (its "CSR" space column is
  * 8 bytes per vertex and per arc; ours is 4 since vertex ids are Int).
  */
final class CSRGraph private (val n: Int, val offsets: Array[Int], val adj: Array[Int]) {

  /** Number of undirected edges. */
  def m: Long = adj.length / 2L

  /** Number of stored arcs (2m). */
  def arcs: Int = adj.length

  @inline def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Iterate neighbors of v without allocation. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(adj(i)); i += 1 }
  }

  def neighbors(v: Int): Array[Int] = java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  def hasEdge(u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(adj, offsets(u), offsets(u + 1), v) >= 0

  /** Bytes of the CSR arrays (the paper's "CSR" reference column). */
  def csrBytes: Long = 4L * (n + 1) + 4L * adj.length

  /** Distinct undirected edges as canonical (u < v) pairs. */
  def edgeList: Array[(Int, Int)] = {
    val out = Array.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      foreachNeighbor(u)(v => if (u < v) out += ((u, v)))
      u += 1
    }
    out.result()
  }

  /** Edge table as a DataFrame of (src, dst) canonical pairs — the
    * dataflow-side view used by Spark CC and oracle tests.
    */
  def edgeDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.createDataset(edgeList.toSeq).toDF("src", "dst")
  }
}

object CSRGraph {

  /** Build from undirected edges packed as edgeKey(u, v) longs.
    * Self-loops are dropped; duplicates are merged; both arcs are stored.
    */
  def fromPackedEdges(n: Int, packed: Array[Long]): CSRGraph = {
    val keys = packed.filter { k => (k >>> 32) != (k & 0xffffffffL) }
    // Primitive sort + adjacent-equal scan: a boxed hash set degrades to
    // quadratic on grid keys, whose Long.hashCode values collide heavily.
    java.util.Arrays.sort(keys)
    var m = 0
    keys.foreach { k => if (m == 0 || keys(m - 1) != k) { keys(m) = k; m += 1 } }
    val sorted = java.util.Arrays.copyOf(keys, m)
    val deg = new Array[Int](n + 1)
    sorted.foreach { k =>
      val u = (k >>> 32).toInt; val v = (k & 0xffffffffL).toInt
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range for n=$n")
      deg(u + 1) += 1; deg(v + 1) += 1
    }
    var i = 0
    while (i < n) { deg(i + 1) += deg(i); i += 1 }
    val offsets = deg
    val adj = new Array[Int](sorted.length * 2)
    val cursor = java.util.Arrays.copyOf(offsets, n)
    sorted.foreach { k =>
      val u = (k >>> 32).toInt; val v = (k & 0xffffffffL).toInt
      adj(cursor(u)) = v; cursor(u) += 1
      adj(cursor(v)) = u; cursor(v) += 1
    }
    var v = 0
    while (v < n) { java.util.Arrays.sort(adj, offsets(v), offsets(v + 1)); v += 1 }
    new CSRGraph(n, offsets, adj)
  }

  /** Wrap pre-validated CSR arrays without copying (used to rebuild a
    * graph view around broadcast arrays on Spark executors).
    */
  def wrap(n: Int, offsets: Array[Int], adj: Array[Int]): CSRGraph = {
    require(offsets.length == n + 1 && offsets(n) == adj.length)
    new CSRGraph(n, offsets, adj)
  }

  /** Build from (u, v) pairs (order/duplication insensitive). */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): CSRGraph =
    fromPackedEdges(n, edges.iterator.map { case (u, v) => Rand.edgeKey(u, v) }.toArray)
}
