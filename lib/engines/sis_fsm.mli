(** SIS-style FSM equivalence: explicit breadth-first traversal of the
    product machine's state-transition graph, enumerating the input
    alphabet at every state (the [verify_fsm] approach of SIS).

    Exact and complete, but exponential both in flip-flops (states) and in
    primary inputs (alphabet); the paper's "SIS" baseline. *)

val equiv : Common.budget -> Circuit.t -> Circuit.t -> Common.result
(** Both circuits must be pure bit-level with matching interfaces. *)

val equiv_report : Common.budget -> Circuit.t -> Circuit.t -> Common.report
(** Like {!equiv}, with wall time; [extra] carries [visited_states] (this
    engine builds no BDDs, so the kernel counters are empty). *)
