(** Conventional (unverified) forward retiming: the synthesis step whose
    output the post-synthesis verification baselines must check, and whose
    formally-derived counterpart HASH produces with a proof.

    Given a valid cut, the registers feeding [f] are removed, the gates of
    [f] are moved behind [g], and new registers are placed on the cut
    boundary with initial values [f(q)] (computed by constant
    propagation); pass-through registers are kept. *)

val validate_cut : Circuit.t -> Cut.t -> unit
(** Audit a cut record against a (well-formed) circuit: membership
    ranges, gate-ness, duplicates, topological order of [f_gates], the
    fan-in condition, boundary/pass-through completeness.  Run by
    {!retime} and by the formal step before trusting the record.
    @raise Cut.Invalid_cut on any defect. *)

val retime : Circuit.t -> Cut.t -> Circuit.t
(** The cut record is audited before use — membership ranges, gate-ness,
    duplicates, topological order of [f_gates], the fan-in condition,
    and boundary/pass-through completeness — so a forged record is
    rejected up front instead of crashing on an unset [-1] slot deep in
    [Circuit.gate].
    @raise Cut.Invalid_cut on malformed cuts. *)
