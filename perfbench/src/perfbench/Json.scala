package perfbench

/** Minimal JSON writer for the run record the JVM hands to `run.py`.
  * Objects are `collection.Map`s (use `ListMap` to keep field order).
  */
object Json {

  def write(v: Any): String = {
    val sb = new StringBuilder
    put(sb, v)
    sb.toString
  }

  private def put(sb: StringBuilder, v: Any): Unit = v match {
    case null | None => sb ++= "null"
    case Some(x)     => put(sb, x)
    case b: Boolean  => sb ++= b.toString
    case i: Int      => sb ++= i.toString
    case l: Long     => sb ++= l.toString
    case d: Double   =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number in run record: $d")
      sb ++= d.toString
    case s: String   => quote(sb, s)
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        quote(sb, k.toString); sb += ':'; put(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; put(sb, x) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"cannot write ${other.getClass} as JSON")
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }
}
