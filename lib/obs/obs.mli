(** Observability for the verification engines.

    The BDD kernel updates a {!Counters.t} record in its hot path (plain
    mutable integer fields — no allocation, no indirection through
    closures); engines snapshot it into an immutable {!snapshot} for
    reporting, and the benchmark harness serialises {!engine_run} records
    with the dependency-free {!Json} emitter. *)

module Counters : sig
  type t = {
    mutable mk_calls : int;  (** calls to the hash-consing constructor *)
    mutable unique_hits : int;  (** unique-table lookups that found a node *)
    mutable unique_misses : int;  (** unique-table lookups that allocated *)
    mutable cache_hits : int;  (** ite computed-table hits *)
    mutable cache_misses : int;  (** ite computed-table misses *)
    mutable memo_hits : int;  (** exists/compose/restrict memo hits *)
    mutable memo_misses : int;  (** exists/compose/restrict memo misses *)
  }

  val create : unit -> t
  val reset : t -> unit
end

type snapshot = {
  mk_calls : int;
  unique_hits : int;
  unique_misses : int;
  cache_hits : int;
  cache_misses : int;
  memo_hits : int;
  memo_misses : int;
  peak_nodes : int;
}

val empty : snapshot
val snapshot : ?peak_nodes:int -> Counters.t -> snapshot

val add : snapshot -> snapshot -> snapshot
(** Combine snapshots of distinct managers/domains: monotone counters
    sum; [peak_nodes] sums too (per-table peaks of concurrently live
    tables — an upper bound on the combined simultaneous population). *)

val snapshot_delta : before:snapshot -> after:snapshot -> snapshot
(** Per-run counters of a manager that outlives the run (per-domain
    manager reuse): all fields subtract, including [peak_nodes], which
    for a reused manager means the run's own node allocation. *)

val hit_rate : snapshot -> float
(** Combined computed-table and memo hit rate in [0, 1]; [0.] when no
    lookups were performed. *)

(** Counters of the logic kernel: primitive-rule applications, term
    interning traffic, conversion-memo traffic and node populations.  The
    engines layer populates these from [Logic]'s statistics (this module
    cannot depend on [Logic]); HASH bench rows carry them so the formal
    engine's work is observable alongside the BDD engines'. *)
type kernel_snapshot = {
  rule_apps : int;  (** primitive kernel rule applications *)
  term_mk_calls : int;  (** term smart-constructor calls *)
  term_intern_hits : int;  (** constructor calls answered by interning *)
  term_intern_misses : int;  (** distinct term nodes created *)
  conv_memo_hits : int;  (** conversion memo-table hits *)
  conv_memo_misses : int;  (** conversion memo-table misses *)
  live_term_nodes : int;  (** term nodes alive at snapshot time *)
  peak_term_nodes : int;  (** highest sampled live term population *)
  ty_nodes : int;  (** distinct interned types *)
}

val empty_kernel : kernel_snapshot

val kernel_delta :
  before:kernel_snapshot -> after:kernel_snapshot -> kernel_snapshot
(** Difference of the monotone counters; the population fields
    ([live_term_nodes], [peak_term_nodes], [ty_nodes]) are taken from
    [after] as-is. *)

val kernel_add : kernel_snapshot -> kernel_snapshot -> kernel_snapshot
(** Combine per-domain deltas: monotone counters and the per-table
    populations ([live_term_nodes], [ty_nodes]) sum, [peak_term_nodes]
    takes the max. *)

type engine_run = {
  engine : string;
  wall_s : float;
  status : string;
  snap : snapshot;
  kern : kernel_snapshot;  (** logic-kernel counters (HASH engine work) *)
  extra : (string * float) list;  (** engine-specific scalars *)
}

(** [Gc.quick_stat] deltas bracketing a bench cell, reported as [extra]
    fields ([gc_minor_words], [gc_major_words], [gc_compactions], …) so
    GC pressure is machine-readable per row. *)
module Gcstats : sig
  type t = {
    minor_words : float;
    major_words : float;
    promoted_words : float;
    minor_collections : int;
    major_collections : int;
    compactions : int;
  }

  val now : unit -> t
  val delta : before:t -> after:t -> t

  val extras : t -> (string * float) list
  (** Render a delta as [engine_run.extra] fields. *)
end

(** Minimal JSON tree and compact emitter (strings are escaped; NaN and
    infinities serialise as [null]; finite floats print with enough
    digits to read back exactly). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val to_file : string -> t -> unit

  exception Parse_error of string

  val parse : string -> t
  (** Reader for this emitter's own output (used by the fault-campaign
      baseline gate and the serve protocol).  Numbers without
      fraction/exponent come back as [Int].  [\uXXXX] escapes are decoded
      to UTF-8, pairing surrogates, so write → parse round-trips
      losslessly; unpaired surrogates and malformed hex are rejected.
      @raise Parse_error on malformed input. *)

  val of_file : string -> t
  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on missing fields or non-objects. *)
end

(** Hit/miss/eviction counters of the retiming server's fingerprint-keyed
    proof cache (lib/serve updates them; responses and the service
    benchmark's [serve.cache.*] metrics carry them).  One instance lives
    per cache shard; the fields are atomic so shards can bump them under
    their own lock while responses aggregate every shard without taking
    any. *)
module Cache : sig
  type t = {
    hits : int Atomic.t;  (** requests answered from the cache *)
    misses : int Atomic.t;  (** requests that ran the kernel *)
    evictions : int Atomic.t;
        (** LRU entries dropped at capacity, at either cache level *)
    insertions : int Atomic.t;  (** fingerprint entries stored after a miss *)
    entries : int Atomic.t;
        (** gauge: current fingerprint-cache population of the shard *)
  }

  val create : unit -> t
  val reset : t -> unit

  (** A plain one-pass copy of the counters; what responses and [stats]
      report. *)
  type snapshot = {
    hits : int;
    misses : int;
    evictions : int;
    insertions : int;
    entries : int;
  }

  val snapshot : t -> snapshot

  val total : t array -> snapshot
  (** Aggregate the per-shard counters, lock-free.  Monotone counters
      sum; [entries] sums too, because shards partition the key space. *)

  val snapshot_json : snapshot -> Json.t
end

val snapshot_json : snapshot -> Json.t
val kernel_snapshot_json : kernel_snapshot -> Json.t
val engine_run_json : engine_run -> Json.t

(** Outcome counters of the fault-injection campaign (lib/faults updates
    them, bench/faults serialises them).  Rejections are keyed by typed
    exception class — the campaign's whole point is that every corrupted
    input maps to a class, so the counters make the taxonomy reportable
    and gateable. *)
module Faults : sig
  type outcome =
    | Rejected of string
        (** clean rejection, by typed exception class name *)
    | Wrong_exception of string
        (** rejected, but by a class outside the taxonomy (crash) *)
    | Accepted_equivalent
        (** mutant accepted; cross-check proved it still equivalent *)
    | Accepted_inequivalent  (** soundness bug: accepted and wrong *)

  type t = {
    mutable mutants : int;
    rejections : (string, int) Hashtbl.t;
    mutable wrong_exception : int;
    wrong_classes : (string, int) Hashtbl.t;
    mutable accepted_equivalent : int;
    mutable accepted_inequivalent : int;
  }

  val create : unit -> t
  val record : t -> outcome -> unit

  val merge : into:t -> t -> unit
  (** Fold one counter set into another (per-domain results, per-class
      subtotals into the campaign total). *)

  val rejected : t -> int
  (** Total clean rejections across all classes. *)

  val to_json : t -> Json.t
end
