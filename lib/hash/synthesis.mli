(** The HASH formal retiming step (paper §IV.A): the four-step procedure

    1. split the combinational part into [f] and [g] ({!Split});
    2. instantiate the universal retiming theorem;
    3. join [f] and [g] back into a single combinational part;
    4. evaluate the new initial values [f q] deductively.

    The result carries the output netlist {e and} the theorem
    [|- automaton fd q = automaton fd' q'] relating input and output
    descriptions — the defining difference from conventional synthesis
    (paper §III.C).  Steps compose by transitivity at constant cost
    ({!compose}, paper §III.A). *)

open Logic

type timings = {
  t_embed : float;
  t_split : float;  (** step 1 *)
  t_apply : float;  (** step 2 *)
  t_join : float;  (** step 3 *)
  t_init : float;  (** step 4 *)
}

type step = {
  before : Circuit.t;
  after : Circuit.t;
  theorem : Kernel.thm;
      (** [|- automaton fd_before q_before = automaton fd_after q_after] *)
  lhs_term : Term.t;
  rhs_term : Term.t;
  timings : timings;
}

val budget_check : Engines.Common.budget option -> unit -> unit
(** [budget_check budget ()] raises [Engines.Common.Out_of_budget] when a
    budget is present and its deadline has passed.  Shared with
    {!Resynth}. *)

val budget_poll : Engines.Common.budget option -> unit -> unit
(** A cheap poll hook for {!Logic.Conv.with_step}: checks the clock every
    256 calls. *)

val retime : ?budget:Engines.Common.budget -> Embed.level -> Circuit.t -> Cut.t -> step
(** Formally retime over the given cut.  When [budget] is given, the
    procedure polls the deadline at phase boundaries and inside the
    normalisation loops and raises [Engines.Common.Out_of_budget] past it.
    @raise Errors.Cut_mismatch on cuts that do not match the pattern. *)

val retime_gates :
  ?budget:Engines.Common.budget ->
  Embed.level ->
  Circuit.t ->
  Circuit.signal list ->
  step
(** Accepts a raw, unvalidated gate set straight from a (possibly faulty)
    heuristic — the paper's §IV.C scenario.
    @raise Errors.Cut_mismatch *)

val compose : step -> step -> step
(** [compose s1 s2] where [s1.after] is [s2.before]: one transitivity rule
    application.  @raise Failure if the interface terms do not agree. *)

val check : step -> bool
(** Independent sanity check: re-embed both netlists and verify the
    theorem's two sides are exactly the embeddings (the theorem speaks
    about the circuits it claims to). *)
