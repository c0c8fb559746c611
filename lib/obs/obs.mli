(** Observability for the verification engines.

    The BDD kernel updates a {!Counters.t} record in its hot path (plain
    mutable integer fields — no allocation, no indirection through
    closures); a run's counters are a copy of it.  Every observed run,
    engine or HASH step, is one {!run} record, and the benchmark harness
    serialises it with {!run_json} through the dependency-free {!Json}
    emitter. *)

module Counters : sig
  type t = {
    mutable mk_calls : int;  (** calls to the hash-consing constructor *)
    mutable unique_hits : int;  (** unique-table lookups that found a node *)
    mutable unique_misses : int;  (** unique-table lookups that allocated *)
    mutable cache_hits : int;  (** ite computed-table hits *)
    mutable cache_misses : int;  (** ite computed-table misses *)
    mutable memo_hits : int;  (** exists/compose memo hits *)
    mutable memo_misses : int;  (** exists/compose memo misses *)
    mutable peak_nodes : int;
        (** manager population; written only in a copy ([Bdd.stats]),
            never in the hot path *)
  }

  val create : unit -> t
  (** A fresh record, all zero: the counters of a run that builds no
      BDDs. *)

  val delta : before:t -> after:t -> t
  (** Per-run counters of a manager that outlives the run (per-domain
      manager reuse): all fields subtract, including [peak_nodes], which
      for a reused manager means the run's own node allocation. *)
end

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

val kernel_delta :
  before:kernel_snapshot -> after:kernel_snapshot -> kernel_snapshot
(** Difference of the monotone counters; the population fields
    ([live_term_nodes], [peak_term_nodes], [ty_nodes]) are taken from
    [after] as-is. *)

type 'r run = {
  engine : string;
  result : 'r;  (** what the run ended in *)
  wall_s : float;  (** monotonic seconds *)
  bdd : Counters.t;  (** BDD counter deltas; all zero for non-BDD runs *)
  kern : kernel_snapshot;  (** logic-kernel counter deltas over the run *)
  extra : (string * float) list;  (** engine-specific scalars *)
}
(** One observed run: the engines' results and the bench's HASH cells
    alike. *)

(** Allocation and collection deltas bracketing a bench cell, reported
    as [extra] fields ([gc_minor_words], [gc_major_words],
    [gc_compactions], …) so GC pressure is machine-readable per row.
    Words are read with [Gc.minor_words] and [Gc.counters], so a bracket
    shorter than one minor heap still counts what it allocated. *)
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
  (** Render a delta as [run.extra] fields. *)
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

  val add_quoted : Buffer.t -> string -> unit
  (** [add_quoted buf s] appends [to_string (Str s)] to [buf]. *)

  val to_file : string -> t -> unit

  exception Parse_error of string

  val parse : string -> t
  (** Reader for this emitter's own output and for untrusted input
      (baseline gates read their files with it, and request lines from
      outside the program are parsed by it).  Numbers without
      fraction/exponent come back as [Int].  [\uXXXX] escapes are decoded
      to UTF-8, pairing surrogates, so write → parse round-trips
      losslessly; unpaired surrogates and malformed hex are rejected.
      @raise Parse_error on malformed input. *)

  val of_file : string -> t
  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on missing fields or non-objects. *)
end

val run_json : ('r -> string) -> 'r run -> Json.t
(** A BENCH_table engine row: [engine], [wall_s], [status] (the run's
    result rendered by the first argument), [bdd] (the counters and their
    [cache_hit_rate]), [kernel], then each [extra] field. *)

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
