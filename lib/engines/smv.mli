(** SMV-style symbolic model checking for sequential equivalence
    (Burch–Clarke–Long–McMillan–Dill, "Symbolic model checking for
    sequential circuit verification").

    Builds the product machine of the two circuits and a {e partitioned}
    transition relation (one conjunct per next-state bit), and performs a
    breadth-first symbolic state traversal from the initial state; at
    every frontier it checks that no reachable state can distinguish the
    outputs.  Image computation uses early quantification: each
    current-state/input variable is existentially quantified out right
    after the last conjunct depending on it is conjoined, keeping the
    intermediate products small.  This is the paper's "SMV" baseline:
    exact, complete, and exponential in the number of state variables. *)

val equiv :
  Common.budget -> Circuit.t -> Circuit.t -> Common.result Obs.run
(** The observed run ({!Common.observe_bdd}, engine ["smv"]); [extra]
    carries [bfs_iterations], [peak_reached_size] and [peak_image_size]
    (largest intermediate BDD during early-quantified image computation).
    Both circuits must be pure bit-level with matching interfaces. *)
