(** Embedding netlists into the Automata theory.

    A circuit becomes a pair [(fd, q)]: the step function
    [fd = \i s. let w0 = ... in ... ((o1, ..., ok), (s1', ..., sm'))] — a
    let-chain with one binding per gate, in topological order — and the
    literal initial state [q].  Inputs, state and outputs are right-nested
    tuples in declaration order.

    Two levels (paper §V): [Bit_level] maps every signal to [:bool];
    [Rt_level] maps word signals to [:(bool)list], so an n-bit operator is
    a single term node and steps 1–3 of the retiming procedure are
    independent of the bit width. *)

open Hol
open Logic

type level = Bit_level | Rt_level

type t = {
  circuit : Circuit.t;
  level : level;
  fd : Term.t;
  q : Term.t;
  i_ty : Ty.t;
  s_ty : Ty.t;
  o_ty : Ty.t;
  i_var : Term.t;
  s_var : Term.t;
  wire : Term.t array;
      (** for every signal: the term that references it inside the
          let-chain body (a projection of [i]/[s], or a wire variable) *)
}

val embed : level -> Circuit.t -> t
(** @raise Failure on circuits without inputs, outputs or registers, or —
    at [Bit_level] — containing word signals. *)

val mk_automaton_of : t -> Term.t
(** [automaton fd q] for this embedding. *)

val signal_ty : level -> Circuit.width -> Ty.t

val circuit_norm_conv : Conv.conv
(** Full normalisation of a circuit-shaped term: expand [LET]s,
    beta-redexes and tuple projections (no gate evaluation).  Memoised;
    linear in the number of distinct subterm nodes per pass. *)

val equal_by_norm : Conv.conv -> mismatch:exn -> Term.t -> Term.t -> Kernel.thm
(** [equal_by_norm conv ~mismatch t1 t2] is [|- t1 = t2], proved by
    normalising both sides with [conv] and joining the two theorems.
    @raise mismatch if the normal forms are not alpha-equivalent. *)

val gate_term : level -> Circuit.op -> Term.t list -> Term.t
(** The logical term for one gate applied to operand terms. *)
