(** Shared result and budget types for the verification engines. *)

type result =
  | Equivalent
  | Not_equivalent of string  (** human-readable witness description *)
  | Inconclusive of string
      (** the (incomplete) method could not decide — e.g. van Eijk's
          correspondence found no matching for the outputs *)
  | Timeout

type budget = {
  deadline : float;  (** absolute monotonic time ([Logic.Clock.now]) *)
  max_bdd_nodes : int;
      (** abort when a manager allocates this many nodes past
          [bdd_base] *)
  mutable bdd_base : int;
      (** manager population at engine entry (see {!arm_nodes});
          managers are reused across runs, so node budgets are
          relative *)
}

val budget_of_seconds : ?max_bdd_nodes:int -> float -> budget
val result_to_string : result -> string

val result_tag : result -> string
(** Stable machine-readable tag: ["equivalent"], ["not_equivalent"],
    ["inconclusive"] or ["timeout"] (used by the benchmark JSON). *)

type report = {
  engine : string;
  result : result;
  wall_s : float;
  bdd : Obs.snapshot;  (** BDD counters; {!Obs.empty} for non-BDD engines *)
  kern : Obs.kernel_snapshot;
      (** logic-kernel counter deltas over the run (rule applications,
          term interning, conversion memos) *)
  extra : (string * float) list;  (** engine-specific scalars *)
}
(** An observed engine run: result plus wall time and kernel counters. *)

val kernel_now : unit -> Obs.kernel_snapshot
(** Current cumulative logic-kernel counters of the {e current domain};
    diff two with {!Obs.kernel_delta} to attribute work to a run. *)

val observe :
  engine:string -> (unit -> result * (string * float) list) -> report
(** Time a non-BDD engine run; [Out_of_budget] maps to [Timeout].  The
    report's [extra] gains [Gc.quick_stat] deltas ([gc_minor_words],
    [gc_major_words], …). *)

val observe_bdd :
  engine:string -> (Bdd.manager -> result * (string * float) list) -> report
(** {!observe} run inside {!with_manager}, with the BDD counters reported
    as deltas over the run — for a reused manager, [peak_nodes] is the
    run's own node allocation. *)

val with_manager : (Bdd.manager -> 'a) -> 'a
(** [with_manager f] applies [f] to the calling domain's BDD manager: an
    empty [Bdd.manager ()] on the domain's first call, the same manager
    on every later one, so its tables stay grown.  However [f] ends, a
    manager grown past the recycle threshold is dropped (the next call
    builds a fresh one), so a blowup cell cannot pin hundreds of MB per
    domain.  The one way an engine gets a manager. *)

val bdd_domain_stats : unit -> int * int
(** [(created, reused)] counts of {!with_manager} calls across all
    domains — the bench asserts [reused > 0] under multi-cell sweeps so
    the per-cell manager-rebuild regression cannot silently return. *)

val arm_nodes : budget -> Bdd.manager -> unit
(** Set [budget.bdd_base] to the manager's current population; engines
    call it at entry so {!check_nodes} measures their own allocation. *)

val report_to_run : report -> Obs.engine_run
(** Convert to the serialisable {!Obs.engine_run} form. *)

exception Out_of_budget

exception Unsupported of string
(** The engine cannot represent the circuit as given — e.g. a word-level
    signal reached a bit-level-only engine (bit-blast first).  Typed so
    callers (the serve protocol in particular) can map it to a structured
    error instead of pattern-matching [Failure] strings. *)

exception Interface_mismatch of string
(** The two circuits handed to an equivalence engine do not share an
    interface (input/output counts differ). *)

val unsupported : ('a, unit, string, 'b) format4 -> 'a
(** [unsupported fmt ...] raises {!Unsupported} with a formatted
    message. *)

val interface_mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [interface_mismatch fmt ...] raises {!Interface_mismatch}. *)

val check : budget -> unit
(** @raise Out_of_budget when the deadline has passed. *)

val check_nodes : budget -> Bdd.manager -> unit
(** @raise Out_of_budget when the manager is over the node limit. *)

val same_interface : Circuit.t -> Circuit.t -> bool
(** Same bit-level input and output counts (the engines' precondition). *)
