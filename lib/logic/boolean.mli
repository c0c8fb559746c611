(** The boolean theory: logical constants bootstrapped from equality, the
    standard natural-deduction-style derived rules, and the evaluation
    clauses used by HASH's deductive gate evaluation.

    Everything here is {e derived} through the kernel except the two [COND]
    axioms (if-then-else on an arbitrary type), which are part of the
    audited axiomatic basis (they are definable from Hilbert choice in full
    HOL; we take them as primitive instead of embedding choice). *)

open Hol

type thm = Kernel.thm

(** {1 Terms and syntax} *)

val t_tm : Term.t
(** The constant [T]. *)

val f_tm : Term.t
(** The constant [F]. *)

val bool_const : bool -> Term.t
(** [bool_const b] is [T] or [F]. *)

val mk_conj : Term.t -> Term.t -> Term.t
val mk_disj : Term.t -> Term.t -> Term.t
val mk_imp : Term.t -> Term.t -> Term.t
val mk_neg : Term.t -> Term.t
val mk_xor : Term.t -> Term.t -> Term.t
val mk_forall : Term.t -> Term.t -> Term.t
val mk_cond : Term.t -> Term.t -> Term.t -> Term.t
(** [mk_cond b x y] is [COND b x y] (if [b] then [x] else [y]). *)

(** {1 Derived rules} *)

val truth : thm
(** [|- T]. *)

val eqt_intro : thm -> thm
(** [|- p] to [|- p = T]. *)

val eqt_elim : thm -> thm
(** [|- p = T] to [|- p]. *)

val conj : thm -> thm -> thm
val conjunct1 : thm -> thm
val conjunct2 : thm -> thm
val mp : thm -> thm -> thm
val disch : Term.t -> thm -> thm
val undisch : thm -> thm
val gen : Term.t -> thm -> thm
val gen_all : Term.t list -> thm -> thm
val spec : Term.t -> thm -> thm
val spec_all : Term.t list -> thm -> thm
val contr : Term.t -> thm -> thm
(** [contr p |- F] is [|- p]. *)

val disj1 : thm -> Term.t -> thm
(** [disj1 |- p q] is [|- p \/ q]. *)

val disj2 : Term.t -> thm -> thm
(** [disj2 p |- q] is [|- p \/ q]. *)

val prove_hyp : thm -> thm -> thm
(** [prove_hyp |- p (A |- q)] is [A - {p} |- q]. *)

(** {1 Evaluation clauses}

    Ground rewrites sufficient to evaluate any boolean gate applied to
    constant arguments; used by the initial-state evaluation step of the
    retiming procedure. *)

val and_clauses : thm list
(** [T /\ t = t], [t /\ T = t], [F /\ t = F], [t /\ F = F]. *)

val or_clauses : thm list
(** [T \/ t = T], [t \/ T = T], [F \/ t = t], [t \/ F = t],
    [F \/ F = F]. *)

val not_clauses : thm list
(** [~T = F], [~F = T]. *)

val eq_bool_clauses : thm list
(** [(T = t) = t], [(F = F) = T], [(T = F) = F], [(F = T) = F]. *)

val xor_clauses : thm list
(** All four ground [XOR] evaluations. *)

val cond_clauses : thm list
(** [COND T x y = x] and [COND F x y = y] (polymorphic). *)

val eval_rewrites : thm list
(** The clause lists above, in the order and/or/not/xor/eq/cond: the
    rewrites {!bool_eval_conv} tries. *)

val bool_eval_conv : Conv.conv
(** Bottom-up evaluation of a ground boolean term built from the constants
    above; proves [|- tm = T] or [|- tm = F]. *)
