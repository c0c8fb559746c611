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

module Lru = struct
  type 'v node = {
    key : string;
    value : 'v;
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  type 'v t = {
    capacity : int;
    tbl : (string, 'v node) Hashtbl.t;
    mutable first : 'v node option;  (* most recently used *)
    mutable last : 'v node option;  (* least recently used *)
  }

  let create capacity =
    { capacity = max 1 capacity; tbl = Hashtbl.create 64; first = None; last = None }

  let length t = Hashtbl.length t.tbl

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
    match Hashtbl.find_opt t.tbl key with
    | None -> None
    | Some n ->
        unlink t n;
        push_front t n;
        Some n.value

  (* Insert (or replace) as most recently used; true if the insert
     pushed the table over capacity and evicted the least recently used
     entry. *)
  let add t key value =
    (match Hashtbl.find_opt t.tbl key with
    | Some old ->
        unlink t old;
        Hashtbl.remove t.tbl key
    | None -> ());
    let n = { key; value; prev = None; next = None } in
    Hashtbl.replace t.tbl key n;
    push_front t n;
    if Hashtbl.length t.tbl > t.capacity then (
      match t.last with
      | Some lru ->
          unlink t lru;
          Hashtbl.remove t.tbl lru.key;
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

(* [mu] guards the two LRU tables only; the counters are atomics, bumped
   while the lock is held and read lock-free by {!totals}. *)
type shard = {
  mu : Mutex.t;
  by_fp : (string * entry) Lru.t;  (* L2: key -> (canonical form, entry) *)
  (* L1: level-tagged raw BLIF bytes -> (L2 digest, entry).  The key is
     the request text itself — the table's key equality is the
     byte-compare, so a hash collision can only cause a bucket scan,
     never a wrong answer.  The payload is not hashed cheaply, though:
     [Hashtbl.hash] reads a string's whole length, so a lookup reads the
     full request text three times before the compare — [text_key]
     copies it, then [shard_for] and this table each hash it. *)
  by_text : (string * entry) Lru.t;
  counters : counters;
}

type t = shard array
type text_key = string

let create ~capacity ~shards =
  let n = max 1 shards in
  (* each shard gets its proportional slice (at least 1 entry), so total
     capacity is ~capacity, never less *)
  let per_shard = (max 1 capacity + n - 1) / n in
  Array.init n (fun _ ->
      {
        mu = Mutex.create ();
        by_fp = Lru.create per_shard;
        by_text = Lru.create per_shard;
        counters =
          {
            hits = Atomic.make 0;
            misses = Atomic.make 0;
            evictions = Atomic.make 0;
            insertions = Atomic.make 0;
            entries = Atomic.make 0;
          };
      })

let shard_for t key = t.(Hashtbl.hash key mod Array.length t)

let locked sh f =
  Mutex.lock sh.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.mu) f

let count_eviction sh evicted =
  if evicted then Atomic.incr sh.counters.evictions

let level_tag = function
  | Hash.Embed.Bit_level -> "bit"
  | Hash.Embed.Rt_level -> "rt"

let text_key level blif = level_tag level ^ "\x00" ^ blif
let fp_key level fp = Fingerprint.digest fp ^ "/" ^ level_tag level

let find_text t tkey =
  let sh = shard_for t tkey in
  locked sh (fun () ->
      match Lru.find sh.by_text tkey with
      | Some _ as hit ->
          Atomic.incr sh.counters.hits;
          hit
      | None -> None)

(* Store a spelling in its text shard.  Never called with a fingerprint
   shard's lock held: L1 lives in its own shard and locks never nest. *)
let remember_text t tkey digest e =
  let sh = shard_for t tkey in
  locked sh (fun () -> count_eviction sh (Lru.add sh.by_text tkey (digest, e)))

let find t ~text level fp =
  let key = fp_key level fp in
  let sh = shard_for t key in
  let cached =
    locked sh (fun () ->
        match Lru.find sh.by_fp key with
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
  let sh = shard_for t key in
  locked sh (fun () ->
      count_eviction sh (Lru.add sh.by_fp key (Fingerprint.canon fp, e));
      Atomic.incr sh.counters.insertions;
      Atomic.set sh.counters.entries (Lru.length sh.by_fp));
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
