val used_qualified : int
val spelled_unit : int

module Sub : sig
  val nested : int
end
