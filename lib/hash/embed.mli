(** Embedding netlists into the Automata theory.

    A circuit becomes a pair [(fd, q)]: the step function
    [fd = \i s. ((o1, ..., ok), (s1', ..., sm'))] and the literal initial
    state [q].  Each gate's term is built once, in topological order, and
    shared in the heap wherever the gate's signal is read, so [fd] is a
    dag in memory with no binder per gate.  Inputs, state and outputs are
    balanced tuples in declaration order.

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
      (** for every signal: its term inside [fd]'s body — a projection
          of [i]/[s] for an input or a register output, else the gate's
          shared term *)
}

val embed : level -> Circuit.t -> t
(** @raise Failure on circuits without inputs, outputs or registers, or —
    at [Bit_level] — containing word signals. *)

val mk_automaton_of : t -> Term.t
(** [automaton fd q] for this embedding. *)

val circuit_norm_conv : Conv.conv
(** Full normalisation of a circuit-shaped term: expand beta-redexes
    and tuple projections (no gate evaluation).  Memoised;
    linear in the number of distinct subterm nodes per pass. *)

val equal_by_norm : Conv.conv -> mismatch:exn -> Term.t -> Term.t -> Kernel.thm
(** [equal_by_norm conv ~mismatch t1 t2] is [|- t1 = t2], proved by
    normalising both sides with [conv] and joining the two theorems.
    @raise mismatch if the normal forms are not alpha-equivalent. *)

val gate_term : level -> Circuit.op -> Term.t list -> Term.t
(** The logical term for one gate applied to operand terms. *)
