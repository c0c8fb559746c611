(** SIS-style FSM equivalence: explicit breadth-first traversal of the
    product machine's state-transition graph, enumerating the input
    alphabet at every state (the [verify_fsm] approach of SIS).

    Exact and complete, but exponential both in flip-flops (states) and in
    primary inputs (alphabet); the paper's "SIS" baseline. *)

val equiv :
  Common.budget -> Circuit.t -> Circuit.t -> Common.result Obs.run
(** The observed run ({!Common.observe}, engine ["sis"]); [extra] carries
    [visited_states].  This engine builds no BDDs, so its BDD counters
    are zero.  Both circuits must be pure bit-level with matching
    interfaces. *)
