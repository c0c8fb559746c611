(** The daemon's two-level proof cache, the one place a response is
    answered with a theorem the kernel did not just prove.

    {b Soundness.}  An entry is stored only after the kernel proved its
    theorem, and holds the rendered response text, never a theorem or a
    certificate.  The fingerprint level (L2) answers a circuit only if
    both the digest and the full canonical form
    ({!Fingerprint.canon}) equal those stored, so a digest collision can
    cause a spurious miss, never a wrong answer.  The exact-text level
    (L1) is keyed on the level-tagged BLIF bytes themselves, so a hit
    there is a byte-identical repeat.  Both levels key on the embedding
    level: a bit-level proof never answers an RT-level request.

    Only maximal-cut requests may be cached: the maximal cut is a
    function of the circuit alone, so (fingerprint, level) determines
    the result.

    Each level is split over [shards] independent LRU shards, each
    behind its own mutex; counters are per-shard atomics, aggregated
    lock-free by {!totals}.  Every function is thread- and domain-safe. *)

type entry = {
  fields : string;
      (** the constant middle of the ok response
          (["circuit":…,"retimed":…,"blif":…,"theorem":…]), JSON-escaped
          once when the entry is built: the retimed netlist and theorem
          dominate the response bytes, and re-escaping them on every
          hit would cost more than the hit itself *)
  terse : string;
      (** the same leading ["circuit":…,"retimed":…] fragment without
          the proof echo, for [echo:false] responses *)
}

type t

val create : capacity:int -> shards:int -> t
(** [capacity] entries per level in total, split over [shards] (both
    clamped to >= 1; each shard holds at least one entry per level). *)

type text_key
(** The exact-text key of a request: its level and BLIF bytes. *)

val text_key : Hash.Embed.level -> string -> text_key

val find_text : t -> text_key -> (string * entry) option
(** L1 lookup: the fingerprint digest and entry of a byte-identical
    earlier request.  A hit counts as a hit; a miss is not counted,
    because the fingerprint lookup that follows counts it. *)

val find : t -> text:text_key -> Hash.Embed.level -> Fingerprint.t -> entry option
(** L2 lookup: a hit needs the digest and the canonical form to match.
    Counts a hit or a miss.  A hit also stores [text] at L1, so the
    next byte-identical repeat skips the parse. *)

val add : t -> text:text_key -> Hash.Embed.level -> Fingerprint.t -> entry -> unit
(** Store a freshly proved entry at both levels. *)

(** Counters aggregated over the shards. *)
type totals = {
  hits : int;  (** lookups answered from the cache, at either level *)
  misses : int;  (** fingerprint lookups that found no matching entry *)
  evictions : int;  (** LRU entries dropped at capacity, at either level *)
  insertions : int;  (** fingerprint entries stored after a miss *)
  entries : int;  (** current fingerprint-level population *)
}

val totals : t -> totals
(** One lock-free pass over the shards; allocates only the result. *)

val stats : t -> Obs.Json.t
(** {!totals} as a JSON object, plus a ["shards"] field. *)
