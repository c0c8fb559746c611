(** Step 1 of the formal retiming procedure: split the combinational part
    into [f] (registers move over it) and [g] (unaffected), and prove the
    split correct:

    {v |- fd = \i s. g (i) (f (s)) v}

    The proof normalises both sides to the fully-inlined dataflow form and
    links them by transitivity — a forward derivation, never a search
    (paper §III.A).  An invalid cut makes this step {b fail} with
    {!Errors.Cut_mismatch}; no theorem about the circuit is produced
    (paper §IV.C). *)

open Hol
open Logic

(** [f] binds the embedding's [s_var], and [g] binds its [i_var] and
    then ["s"] at [x_ty], the names [RETIMING_THM]'s [fd2] binds.  This
    is on purpose: the split's [f s] and [g i] and the join's
    [(\s. B) s] are then trivial beta-redexes, one rule each.  Renaming
    these binders would make each of them cost an [inst] that copies
    the body of [f] or [g]. *)
type t = {
  f_term : Term.t;  (** [f : s_ty -> x_ty] *)
  g_term : Term.t;  (** [g : i_ty -> x_ty -> o_ty # s_ty] *)
  x_ty : Ty.t;  (** type of the retimed state *)
  split_thm : Kernel.thm;  (** [|- fd = \i s. g i (f s)] *)
}

val split : Embed.t -> Cut.t -> t
(** @raise Errors.Cut_mismatch *)

val split_gates : Embed.t -> Circuit.signal list -> t
(** Like {!split} but from a raw gate list, {e without} pre-validation:
    the paper's faulty-heuristic scenario — the failure surfaces inside
    the logic (the split equality cannot be established).
    @raise Errors.Cut_mismatch *)

