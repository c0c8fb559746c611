(** Words (bit vectors) in the logic: the RT-level value domain.

    A word is a [(bool)list], LSB first.  The word operators used by
    RT-level circuits are specified by primitive-recursion equations over
    [NIL]/[CONS], registered as audited axioms (the analogue of HOL's
    [new_recursive_definition], whose justification — the list recursion
    theorem — we take as part of the axiomatic basis).  Evaluation of a
    word operator on literal words is pure rewriting with these equations
    plus the boolean clauses; cost is linear in the width (the paper's
    point that RT-level retiming keeps the initial-state evaluation cost,
    §V). *)

open Hol
open Logic

type thm = Kernel.thm

val mk_bv : bool list -> Term.t
(** Literal word, LSB first. *)

val dest_bv : Term.t -> bool list
(** @raise Failure if the term is not a literal word. *)

(** {1 Operators} *)

val bv_inc_tm : Term.t
(** [BV_INC : bv -> bv], wrapping increment. *)

val bv_add_tm : Term.t
(** [BV_ADD : bv -> bv -> bv], wrapping addition (equal widths). *)

val bv_eq_tm : Term.t
(** [BV_EQ : bv -> bv -> bool]. *)

val bv_not_tm : Term.t
val bv_and_tm : Term.t
val bv_or_tm : Term.t
val bv_xor_tm : Term.t

val word_eval_conv : Conv.conv
(** Ground evaluation of a term built from word operators, [COND], boolean
    gates, pairs and literals; proves [|- tm = literal]. *)
