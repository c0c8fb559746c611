(** Retiming cuts: the control information fed to the formal retiming step
    (paper §IV.A step 1 — "assigning combinatorial components to f or g
    can be performed by hand or by some arbitrary external program").

    A {e cut} selects the gate set [f] over which the registers are moved
    forward.  Validity (checked, never trusted — an invalid cut later makes
    the formal step fail, §IV.C):
    - every operand of an [f]-gate is a register output or another
      [f]-gate (i.e. [f] is a function of the state only);

    Derived data:
    - the {e boundary}: [f]-gates read by the rest of the circuit ([g]),
      by primary outputs or by register data inputs;
    - the {e pass-through} registers: registers read outside [f] (their
      value is carried through [f] unchanged, a register duplication in
      retiming terms).

    The new state of the retimed circuit is the tuple of boundary values
    followed by pass-through register values. *)

exception Invalid_cut of string
(** Raised whenever a cut — or any other piece of heuristic control
    information — is rejected: false cuts, non-gate members,
    out-of-range signals, forged records fed to {!Forward.retime}, bad
    arguments to {!prefixes}.  The fault-injection campaign relies on
    this class to tell "heuristic rejected cleanly" from a genuine bug
    (which would surface as any other exception). *)

val invalid_cut : ('a, unit, string, 'b) format4 -> 'a
(** [invalid_cut fmt ...] raises {!Invalid_cut} with a formatted
    message. *)

type t = {
  f_gates : Circuit.signal list;  (** topologically ordered *)
  boundary : Circuit.signal list;  (** ascending signal order *)
  passthrough : int list;  (** register indices, ascending *)
}

val of_gates : Circuit.t -> Circuit.signal list -> t
(** Validate a gate set and compute boundary and pass-through.
    Duplicates in the list are tolerated (the set is what matters);
    members are kept in topological order.
    @raise Invalid_cut if a member is out of range or not a gate, if
    the set violates the fan-in condition (the paper's "false cut"),
    or if the boundary is empty (dead logic only). *)

val maximal : Circuit.t -> t
(** The maximal retimable [f]: every gate whose transitive fan-in avoids
    primary inputs — the paper's worst case for HASH ("f covering a
    maximum number of retimable gates").
    @raise Invalid_cut if no gate is retimable. *)

val prefixes : Circuit.t -> int -> t list
(** [prefixes c k] returns up to [k] valid cuts of increasing size
    (topological prefixes of the maximal cut) — used by the
    cut-independence ablation.  Requires [k >= 1]; fewer than [k] cuts
    are returned when prefix sizes coincide ([k] bounds the count, it is
    not a promise).  The result is never empty: the last prefix is the
    maximal cut itself.
    @raise Invalid_cut if [k < 1] (previously [k < 0] escaped as
    [Invalid_argument "List.init"] and [k = 0] silently returned [[]]),
    or if the circuit has no retimable gate. *)
