(* The proof cache: the one place the daemon answers with a theorem the
   kernel did not just prove, so its soundness argument lives here and
   nowhere else.

   The cache has two levels.  L2 is the fingerprint cache: the key is
   [Fingerprint.digest ^ level], and a hit additionally requires
   equality of the full canonical form — a digest collision can cause a
   spurious miss, never a wrong answer.  L1 is an exact-text front
   cache keyed on the level-tagged raw BLIF bytes, so byte-identical
   repeats skip the netlist parse and fingerprint entirely; it is sound
   trivially — identical bytes at the same level denote the same
   circuit.  Entries hold only the response text the kernel's theorem
   was rendered into, never a theorem or a certificate.

   Both levels are split into N shards keyed by a hash of the key, each
   shard with its own mutex, so concurrent connections don't serialize
   on one global lock; counters are per-shard atomics, bumped under the
   shard's lock and aggregated lock-free into every response.

   The cache stores only strings, so entries are safe to share across
   OCaml domains — terms never flow between domains, per the pool's
   discipline. *)

(* ------------------------------------------------------------------ *)
(* Bounded LRU table (caller locks)                                     *)
(* ------------------------------------------------------------------ *)

module Lru (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v node = {
    key : K.t;
    value : 'v;
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  type 'v t = {
    capacity : int;
    tbl : 'v node H.t;
    mutable first : 'v node option;  (* most recently used *)
    mutable last : 'v node option;  (* least recently used *)
  }

  let create capacity =
    { capacity = max 1 capacity; tbl = H.create 64; first = None; last = None }

  let length t = H.length t.tbl

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.first;
    (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
    t.first <- Some n

  let find t key =
    match H.find_opt t.tbl key with
    | None -> None
    | Some n ->
        unlink t n;
        push_front t n;
        Some n.value

  (* Insert (or replace) as most recently used; true if the insert
     pushed the table over capacity and evicted the least recently used
     entry. *)
  let add t key value =
    (match H.find_opt t.tbl key with
    | Some old ->
        unlink t old;
        H.remove t.tbl key
    | None -> ());
    let n = { key; value; prev = None; next = None } in
    H.replace t.tbl key n;
    push_front t n;
    if H.length t.tbl > t.capacity then (
      match t.last with
      | Some lru ->
          unlink t lru;
          H.remove t.tbl lru.key;
          true
      | None -> false)
    else false
end

(* ------------------------------------------------------------------ *)
(* Entries, shards and counters                                         *)
(* ------------------------------------------------------------------ *)

type entry = { fields : string; terse : string }

(* [entries] is a gauge (current population of the shard's fingerprint
   cache), not a monotone counter; it still sums across shards because
   the shards partition the key space. *)
type counters = {
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  insertions : int Atomic.t;
  entries : int Atomic.t;
}

let level_tag = function
  | Hash.Embed.Bit_level -> "bit"
  | Hash.Embed.Rt_level -> "rt"

(* The L1 key: the request's level and BLIF bytes (not a copy), with
   the bytes' hash computed once.  The shard choice and the shard's
   table both use that hash, and two keys are equal only if their
   levels and every byte are. *)
type text_key = { level : Hash.Embed.level; text : string; hash : int }

module Text_key = struct
  type t = text_key

  let same_level a b =
    match (a, b) with
    | Hash.Embed.Bit_level, Hash.Embed.Bit_level
    | Hash.Embed.Rt_level, Hash.Embed.Rt_level ->
        true
    | Hash.Embed.Bit_level, Hash.Embed.Rt_level
    | Hash.Embed.Rt_level, Hash.Embed.Bit_level ->
        false

  let equal a b =
    a == b
    || a.hash = b.hash && same_level a.level b.level
       && String.equal a.text b.text

  let hash k = k.hash
end

module Fp_lru = Lru (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Text_lru = Lru (Text_key)

(* [mu] guards the two LRU tables only; the counters are atomics, bumped
   while the lock is held and read lock-free by {!totals}. *)
type shard = {
  mu : Mutex.t;
  by_fp : (string * entry) Fp_lru.t;  (* L2: key -> (canonical form, entry) *)
  (* L1: a request's level and bytes -> (L2 digest, entry).  A lookup
     reads the text once to hash it in [text_key], and once more to
     compare it with an entry of equal hash: the byte compare is the
     table's key equality, so a hash collision can only cause a bucket
     scan, never a wrong answer.  Storing a spelling after an L2 hit, or
     evicting one, hashes nothing. *)
  by_text : (string * entry) Text_lru.t;
  counters : counters;
}

type t = shard array

let create ~capacity ~shards =
  let n = max 1 shards in
  (* each shard gets its proportional slice (at least 1 entry), so total
     capacity is ~capacity, never less *)
  let per_shard = (max 1 capacity + n - 1) / n in
  Array.init n (fun _ ->
      {
        mu = Mutex.create ();
        by_fp = Fp_lru.create per_shard;
        by_text = Text_lru.create per_shard;
        counters =
          {
            hits = Atomic.make 0;
            misses = Atomic.make 0;
            evictions = Atomic.make 0;
            insertions = Atomic.make 0;
            entries = Atomic.make 0;
          };
      })

let shard_for t hash = t.(hash mod Array.length t)

let locked sh f =
  Mutex.lock sh.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mu) f

let count_eviction sh evicted =
  if evicted then Atomic.incr sh.counters.evictions

let text_key level text = { level; text; hash = Hashtbl.hash text }
let fp_key level fp = Fingerprint.digest fp ^ "/" ^ level_tag level

let find_text t tkey =
  let sh = shard_for t tkey.hash in
  locked sh (fun () ->
      match Text_lru.find sh.by_text tkey with
      | Some _ as hit ->
          Atomic.incr sh.counters.hits;
          hit
      | None -> None)

(* Store a spelling in its text shard.  Never called with a fingerprint
   shard's lock held: L1 lives in its own shard and locks never nest. *)
let remember_text t tkey digest e =
  let sh = shard_for t tkey.hash in
  locked sh (fun () ->
      count_eviction sh (Text_lru.add sh.by_text tkey (digest, e)))

let find t ~text level fp =
  let key = fp_key level fp in
  let sh = shard_for t (Hashtbl.hash key) in
  let cached =
    locked sh (fun () ->
        match Fp_lru.find sh.by_fp key with
        | Some (canon, e) when String.equal canon (Fingerprint.canon fp) ->
            Atomic.incr sh.counters.hits;
            Some e
        | Some _ | None ->
            Atomic.incr sh.counters.misses;
            None)
  in
  Option.iter (remember_text t text (Fingerprint.digest fp)) cached;
  cached

let add t ~text level fp e =
  let key = fp_key level fp in
  let sh = shard_for t (Hashtbl.hash key) in
  locked sh (fun () ->
      count_eviction sh (Fp_lru.add sh.by_fp key (Fingerprint.canon fp, e));
      Atomic.incr sh.counters.insertions;
      Atomic.set sh.counters.entries (Fp_lru.length sh.by_fp));
  remember_text t text (Fingerprint.digest fp) e

type totals = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  entries : int;
}

(* One lock-free pass over the per-shard atomics, no intermediate
   snapshots: this runs once per response. *)
let totals t =
  let hits = ref 0
  and misses = ref 0
  and evictions = ref 0
  and insertions = ref 0
  and entries = ref 0 in
  for i = 0 to Array.length t - 1 do
    let c = t.(i).counters in
    hits := !hits + Atomic.get c.hits;
    misses := !misses + Atomic.get c.misses;
    evictions := !evictions + Atomic.get c.evictions;
    insertions := !insertions + Atomic.get c.insertions;
    entries := !entries + Atomic.get c.entries
  done;
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    insertions = !insertions;
    entries = !entries;
  }

let stats t =
  let s = totals t in
  Obs.Json.(
    Obj
      [
        ("shards", Int (Array.length t));
        ("hits", Int s.hits);
        ("misses", Int s.misses);
        ("evictions", Int s.evictions);
        ("insertions", Int s.insertions);
        ("entries", Int s.entries);
      ])
