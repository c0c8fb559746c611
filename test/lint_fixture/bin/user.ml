let qualified = Fixlib.Qual.used_qualified + Fixlib.Qual.Sub.nested
let spelled = Fixlib__Qual.spelled_unit

open Fixlib

let opened = Opened.through_open

module A = Fixlib.Aliased

let aliased = A.through_alias

let let_aliased =
  let module L = Fixlib.Let_aliased in
  L.through_let_module

let reexported = Fixlib.Reexport.T.through_reexport
let include_reexported = Fixlib.Incl_reexport.through_include_reexport

include Fixlib.Included

module F (X : sig
  val through_functor : int
end) =
struct
  let v = X.through_functor
end

module Applied = F (Fixlib.Arg)

let public = Fixlib.Own.public + Fixmain.total
