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

(** {1 Derived rules}

    The rules the evaluation clauses below are proved with ([TRUTH],
    conjunction and disjunction introduction and elimination, [CONTR],
    [EQT_INTRO]/[EQT_ELIM]) stay inside this module; a client reads
    their results through {!Kernel.registered_theorems}. *)

val conj : thm -> thm -> thm
val mp : thm -> thm -> thm
val disch : Term.t -> thm -> thm
val gen : Term.t -> thm -> thm
val spec : Term.t -> thm -> thm

val prove_hyp : thm -> thm -> thm
(** [prove_hyp |- p (A |- q)] is [A - {p} |- q]. *)

(** {1 Evaluation clauses}

    Ground rewrites sufficient to evaluate any boolean gate applied to
    constant arguments; used by the initial-state evaluation step of the
    retiming procedure.  [|- T] and each clause are registered with the
    kernel, in this order, as [Boolean.truth] and [Boolean.<list>.<i>]:
    - [and_clauses]: [T /\ t = t], [t /\ T = t], [F /\ t = F],
      [t /\ F = F];
    - [or_clauses]: [T \/ t = T], [t \/ T = T], [F \/ t = t],
      [t \/ F = t], [F \/ F = F];
    - [eq_bool_clauses]: [(T = t) = t], [(F = F) = T], [(T = F) = F],
      [(F = T) = F];
    - [not_clauses]: [~T = F], [~F = T];
    - [xor_clauses]: all four ground [XOR] evaluations.
    The [COND] clauses [COND T x y = x] and [COND F x y = y] are the
    axioms [COND_T] and [COND_F]. *)

val eval_rewrites : thm list
(** The clauses, in the order and/or/not/xor/eq/cond: the rewrites
    {!bool_eval_conv} tries. *)

val bool_eval_conv : Conv.conv
(** Bottom-up evaluation of a ground boolean term built from the constants
    above; proves [|- tm = T] or [|- tm = F]. *)
