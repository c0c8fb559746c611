(** Products and local definitions ([LET]).

    The pairing axioms ([FST (x,y) = x], [SND (x,y) = y],
    [(FST p, SND p) = p]) are part of the audited axiomatic basis: in full
    HOL they follow from a type definition over [bool -> bool -> bool];
    here the product type is primitive.  [LET] is definitional. *)

open Hol

type thm = Kernel.thm

val mk_pair : Term.t -> Term.t -> Term.t
val list_mk_pair : Term.t list -> Term.t
(** Right-nested tuple; the singleton case is the term itself.
    @raise Failure on the empty list. *)

val mk_fst : Term.t -> Term.t
val mk_snd : Term.t -> Term.t

val mk_let : Term.t -> Term.t -> Term.t -> Term.t
(** [mk_let v e body] is [LET (\v. body) e], i.e. [let v = e in body]. *)

val proj : Term.t -> int -> int -> Term.t
(** [proj tup i n]: the [i]-th (0-based) projection term out of a term of
    [n]-tuple type, built from [FST]/[SND]. *)

(** {1 Theorems and conversions} *)

val pair_eta : thm
(** [|- (FST p, SND p) = p]. *)

val let_conv : Conv.conv
(** [let_conv (LET (\v. b) e)] is [|- LET (\v. b) e = b[e/v]]. *)

val proj_conv : Conv.conv
(** Reduce [FST (a, b)] or [SND (a, b)] by one step. *)

val let_proj_conv : Conv.conv
(** One step of [let_conv] or [proj_conv] or beta; the redex set used by
    the circuit-term normaliser. *)
