(** Specialised retiming verifier in the style of Huang, Cheng and Chen
    ("On verifying the correctness of retimed circuits"): no state
    traversal at all — both circuits are driven to a canonical
    maximally-forward-retimed normal form and then structurally matched.

    Very fast, but only applicable when the two circuits differ by pure
    retiming (the paper's point in §II: "this approach is limited to pure
    retiming").  The structural match is a {e verified} isomorphism (edge
    and initial-value consistency is re-checked), so a positive answer is
    trustworthy; failure to match is reported as [Inconclusive]. *)

val equiv :
  Common.budget -> Circuit.t -> Circuit.t -> Common.result Obs.run
(** The observed run ({!Common.observe}, engine ["match"]; no BDDs, no
    [extra] beyond the GC deltas).  Both circuits must be pure bit-level
    with matching interfaces. *)
