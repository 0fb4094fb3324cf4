package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

/** A finished span. `trace` groups the spans of one replayed call;
  * `parent` is 0 for a root. Times are nanoseconds since the tracer began.
  */
final case class Span(id: Int, trace: Int, name: String, parent: Int, start: Long, end: Long) {
  def seconds: Double = (end - start) / 1e9
}

/** In-memory span recorder; safe to use from the fork-join workers that
  * run a layer's parallel calls. Spans are written out once, at the end.
  */
final class Tracer {
  private val origin = System.nanoTime()
  private val nextId = new AtomicInteger(1)
  private val done = new ConcurrentLinkedQueue[Span]()

  /** Runs `body` inside a new span; `body` gets the span's id so it can
    * parent child spans.
    */
  def span[A](trace: Int, name: String, parent: Int)(body: Int => A): (A, Span) = {
    val id = nextId.getAndIncrement()
    val start = System.nanoTime() - origin
    val out = body(id)
    val s = Span(id, trace, name, parent, start, System.nanoTime() - origin)
    done.add(s)
    (out, s)
  }

  def spans: Seq[Span] = done.asScala.toSeq.sortBy(s => (s.start, s.id))

  def childrenOf(parent: Span): Seq[Span] = spans.filter(_.parent == parent.id)

  def toJson: Json.V = Json.arr(spans.map(s => Json.obj(
    "id" -> s.id, "trace" -> s.trace, "name" -> s.name, "parent" -> s.parent,
    "start_ns" -> s.start, "end_ns" -> s.end)))
}

/** Just enough JSON to write the report and the trace. */
object Json {
  sealed trait V
  final case class Str(s: String) extends V
  final case class Num(d: Double) extends V
  final case class Bool(b: Boolean) extends V
  final case class Arr(xs: Seq[V]) extends V
  final case class Obj(kv: Seq[(String, V)]) extends V

  import scala.language.implicitConversions
  implicit def str(s: String): V = Str(s)
  implicit def int(i: Int): V = Num(i.toDouble)
  implicit def long(l: Long): V = Num(l.toDouble)
  implicit def dbl(d: Double): V = Num(d)
  implicit def bool(b: Boolean): V = Bool(b)

  def obj(kv: (String, V)*): V = Obj(kv)
  def arr(xs: Seq[V]): V = Arr(xs)

  def write(v: V): String = {
    val sb = new StringBuilder
    def quote(s: String): Unit = {
      sb += '"'
      s.foreach {
        case '"' => sb ++= "\\\""
        case '\\' => sb ++= "\\\\"
        case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
        case c => sb += c
      }
      sb += '"'
    }
    def go(v: V): Unit = v match {
      case Str(s) => quote(s)
      case Num(d) =>
        require(!d.isNaN && !d.isInfinite, s"non-finite number $d in JSON output")
        if (d == math.rint(d) && math.abs(d) < 1e15) sb ++= d.toLong.toString else sb ++= d.toString
      case Bool(b) => sb ++= b.toString
      case Arr(xs) =>
        sb += '['
        xs.zipWithIndex.foreach { case (x, i) => if (i > 0) sb += ','; go(x) }
        sb += ']'
      case Obj(kv) =>
        sb += '{'
        kv.zipWithIndex.foreach { case ((k, x), i) => if (i > 0) sb += ','; quote(k); sb += ':'; go(x) }
        sb += '}'
    }
    go(v)
    sb.result()
  }
}
