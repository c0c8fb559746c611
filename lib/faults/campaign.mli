(** The fault-injection campaign: run mutants through the retiming
    pipeline ([Cut.of_gates] → [Forward.retime] → [Hash.Synthesis]) and
    classify every outcome, turning the paper's "fail, never falsify"
    guarantee (§IV.C) into executable evidence.

    Outcomes (see {!Obs.Faults.outcome}): clean rejection by a typed
    exception of the taxonomy ([Invalid_cut], [Invalid_netlist],
    [Cut_mismatch], [Join_mismatch], [Out_of_budget]); wrong-exception
    class (any other exception — the guarantee holds but the error
    surface regressed); accepted, cross-checked for equivalence by
    [Synthesis.check] + random co-simulation + exact symbolic
    equivalence.  Accepted-but-inequivalent is a soundness bug. *)

type config = {
  mutants : int;
  seed : int;
  budget_s : float;  (** per-mutant deadline for the formal step *)
  sim_steps : int;  (** co-simulation cycles for accepted mutants *)
}

val default : config
(** 600 mutants, seed 1, 30 s budget, 64 co-simulation cycles. *)

val default_bases : unit -> Mutate.base array
(** Healthy subjects: Fig2 at RT and gate level plus random retimable
    circuits, each with its maximal cut. *)

val run_range :
  config -> bases:Mutate.base array -> int -> int ->
  (string, Obs.Faults.t) Hashtbl.t
(** Run mutants [lo, hi) and return per-mutator-class counters.  Mutant
    [i] is fully determined by [(config.seed, i)], so a range is the unit
    of deterministic work distribution; a rejection counts under its
    typed class ([Invalid_cut], [Invalid_netlist], [Cut_mismatch],
    [Join_mismatch], [Out_of_budget]), and any other exception
    (including [Hash.Errors.Kernel_invariant], which blames this
    repository rather than the heuristic) as a wrong exception. *)

val run : config -> (string, Obs.Faults.t) Hashtbl.t
(** [run_range] over [0, config.mutants) with {!default_bases}. *)

val merge_tables :
  into:(string, Obs.Faults.t) Hashtbl.t -> (string, Obs.Faults.t) Hashtbl.t ->
  unit

val totals : (string, Obs.Faults.t) Hashtbl.t -> Obs.Faults.t

val report_json :
  config:config -> jobs:int -> (string, Obs.Faults.t) Hashtbl.t -> Obs.Json.t
(** The BENCH_faults.json document: campaign parameters, per-class
    breakdown, totals, and the [zero_accepted] verdict
    (no accepted-inequivalent mutant). *)
