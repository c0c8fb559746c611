(** Van Eijk-style sequential equivalence checking by signal
    correspondence (van Eijk & Jess, "Exploiting functional dependencies
    in finite state machine verification").

    Candidate equivalence classes over {e all} signals of the product
    machine are seeded by random simulation, then refined to an inductive
    fixpoint with BDD checks:

    - {e base}: class members must have equal BDDs in the initial state;
    - {e step}: assuming register-output equivalences (substituting class
      representative variables), class members must have equal BDDs one
      clock cycle later.

    At the fixpoint the surviving classes form an inductive invariant; the
    circuits are reported equivalent when each output pair falls into one
    class.  The method is incomplete: a failed match is reported as
    [Inconclusive], never as [Not_equivalent].

    The star variant ([~exploit_dependencies:true]) first eliminates
    functionally dependent registers (duplicate/complementary/constant
    next-state functions), shrinking the BDD variable support before the
    fixpoint — the paper's "Eijk*" column.

    Simulation traces are packed 62-to-a-word into int arrays with a
    canonical polarity bit, and the refinement runs over a union-find on
    the product universe (one ascending scan per split, buckets keyed by
    (root, BDD)); a list-of-lists reference refiner is retained for the
    test suite. *)

val equiv :
  ?exploit_dependencies:bool ->
  Common.budget -> Circuit.t -> Circuit.t -> Common.result Obs.run
(** The observed run ({!Common.observe_bdd}): plain van Eijk, engine
    ["eijk"], or with [~exploit_dependencies:true] the star variant,
    engine ["eijk_star"] (default [false]).  [extra] carries
    [inductive_classes] (surviving classes at the fixpoint).  Both
    circuits must be pure bit-level with matching interfaces. *)

val candidate_classes : Circuit.t -> Circuit.t -> int * int
(** [(classes, members)] of the simulation-seeded candidate partition
    (packed signatures only, no BDD work) — the benchmark's microscope on
    the classing front-end.  Deterministic for a given pair. *)

val refine_both_for_tests :
  Common.budget -> Circuit.t -> Circuit.t ->
  (int * bool) list list * (int * bool) list list
(** Run the union-find refiner and the retained list-based reference
    refiner from one shared setup; returns both final partitions in
    canonical form (members [(universe index, inverted)] sorted within a
    class, classes sorted).  Test-suite hook: the two must be equal.
    @raise Common.Out_of_budget like the engine proper. *)
