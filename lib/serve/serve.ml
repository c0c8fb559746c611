(* Retiming as a service (ROADMAP item 1): a long-lived daemon speaking
   newline-delimited JSON over stdio, a Unix-domain socket or TCP.  Each
   request carries a BLIF netlist and a cut heuristic; the daemon
   validates at the trust boundary, dispatches the formal step to the
   domain pool with a per-request deadline, and keys a bounded LRU proof
   cache on the circuit's structural fingerprint so repeated or
   isomorphic requests are answered without touching the kernel.

   The cache has two levels.  L2 is the fingerprint cache: the key is
   [Fingerprint.digest ^ level], and a hit additionally requires
   equality of the full canonical form — a digest collision can cause a
   spurious miss, never a wrong answer.  L1 is an exact-text front
   cache keyed on a digest of the raw BLIF bytes (verified against the
   stored text on hit), so byte-identical repeats skip the netlist
   parse and fingerprint entirely; it is sound trivially — identical
   bytes at the same level denote the same circuit.  Only
   [maximal]-cut requests are cached at either level: the maximal cut
   is canonical (a function of the circuit alone), whereas an explicit
   gate list refers to signal indices of one particular representation
   and is deliberately recomputed every time.

   Both levels are split into N shards keyed by a hash of the digest,
   each shard with its own mutex, so concurrent connections don't
   serialize on one global lock; counters are per-shard atomics
   ({!Obs.Cache}), aggregated lock-free into every response.

   The cache stores only strings (the retimed BLIF and the printed
   theorem), so entries are safe to share across OCaml domains — terms
   never flow between domains, per the pool's discipline.

   Connection handling: one accept loop (a systhread) per listener
   hands each connection to its own handler thread, bounded by
   [max_connections].  A handler answers exact-text (L1) repeats itself
   and blocks otherwise only on socket IO: every other request — BLIF
   parse, fingerprint, L2 lookup and kernel work — is one task on the
   shared domain pool (lib/parallel), so many light connections cost
   threads, not domains, and hits and misses alike scale with the
   pool.
   Responses within a connection are written in request order by a
   per-connection writer thread.  [request_stop] (async-signal-safe: an
   atomic flag plus a self-pipe write) wakes the accept loop;
   [stop]/[await] then close the listening socket, unlink the Unix
   path and drain in-flight connections. *)

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

  (* Returns the number of evicted entries (0 or 1). *)
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
          1
      | None -> 0)
    else 0
end

(* ------------------------------------------------------------------ *)
(* Protocol types                                                       *)
(* ------------------------------------------------------------------ *)

type error_code =
  | Bad_request
  | Invalid_netlist
  | Invalid_cut
  | Cut_mismatch
  | Join_mismatch
  | Kernel_invariant
  | Unsupported
  | Interface_mismatch
  | Deadline_exceeded
  | Cert_unavailable
  | Shutdown
  | Internal

let code_string = function
  | Bad_request -> "bad_request"
  | Invalid_netlist -> "invalid_netlist"
  | Invalid_cut -> "invalid_cut"
  | Cut_mismatch -> "cut_mismatch"
  | Join_mismatch -> "join_mismatch"
  | Kernel_invariant -> "kernel_invariant"
  | Unsupported -> "unsupported"
  | Interface_mismatch -> "interface_mismatch"
  | Deadline_exceeded -> "deadline_exceeded"
  | Cert_unavailable -> "cert_unavailable"
  | Shutdown -> "shutdown"
  | Internal -> "internal"

(* Every typed exception of the stack maps to a protocol error — the
   point of finishing the typed-error unification in lib/engines and
   Pool.submit.  [Internal] is the catch-all for genuine bugs. *)
let error_of_exn = function
  | Circuit.Invalid_netlist msg -> (Invalid_netlist, msg)
  | Cut.Invalid_cut msg -> (Invalid_cut, msg)
  | Hash.Errors.Cut_mismatch msg -> (Cut_mismatch, msg)
  | Hash.Errors.Join_mismatch msg -> (Join_mismatch, msg)
  | Hash.Errors.Kernel_invariant msg -> (Kernel_invariant, msg)
  | Engines.Common.Unsupported msg -> (Unsupported, msg)
  | Engines.Common.Interface_mismatch msg -> (Interface_mismatch, msg)
  | Engines.Common.Out_of_budget -> (Deadline_exceeded, "deadline exceeded")
  | Parallel.Pool.Cancelled -> (Deadline_exceeded, "deadline exceeded")
  | Parallel.Pool.Shutdown -> (Shutdown, "server is shutting down")
  | Failure msg -> (Unsupported, msg)  (* Embed's precondition failures *)
  | e -> (Internal, Printexc.to_string e)

type cut_spec = Maximal | Gates of int list

type request = {
  id : Obs.Json.t option;  (* echoed back verbatim *)
  blif : string;
  level : Hash.Embed.level;
  cut : cut_spec;
  deadline_s : float;
  echo : bool;
      (* [false] elides the retimed BLIF and theorem text from the ok
         response — the proof still ran (or was found cached); fleet
         drivers that only want status/stats/digest skip paying the
         multi-KB proof echo per circuit *)
  cert : bool;
      (* [true] records the kernel derivation and attaches a replayable
         proof certificate to the ok response.  Only a proof run by this
         request can be certified: a cache hit answers with the typed
         [Cert_unavailable] error instead of fabricating a certificate
         the server never recorded. *)
}

(* ------------------------------------------------------------------ *)
(* Server state                                                         *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_canon : string;  (* full canonical form; checked on every hit *)
  e_blif : string;
  e_theorem : string;
  e_gates : int * int;  (* before, after *)
  e_ffs : int * int;
  e_fields : string;
      (* the constant middle of the ok response
         (["circuit":…,"retimed":…,"blif":…,"theorem":…]), JSON-escaped
         once when the entry is built: the retimed netlist and theorem
         dominate the response bytes, and re-escaping them on every hit
         would cost more than the hit itself *)
  e_terse : string;
      (* the same leading ["circuit":…,"retimed":…] fragment without the
         proof echo, for [echo:false] responses *)
}

(* One shard of the two-level cache.  [sh_mu] guards the LRU structures
   only; the counters are atomics, bumped while the lock is held and
   read lock-free by response rendering and [stats]. *)
type shard = {
  sh_mu : Mutex.t;
  sh_cache : entry Lru.t;  (* L2: fingerprint-keyed *)
  (* L1: level-tagged raw BLIF bytes -> (L2 digest, entry).  The key is
     the request text itself — the table's key equality is the
     byte-compare, so no hashing of the payload happens beyond
     [Hashtbl.hash]'s bounded prefix, and a hash collision can only
     cause a bucket scan, never a wrong answer. *)
  sh_text : (string * entry) Lru.t;
  sh_counters : Obs.Cache.t;
}

type t = {
  pool : Parallel.Pool.t;
  shards : shard array;
  default_deadline_s : float;
}

let create ?(jobs = 1) ?(cache_capacity = 64) ?(shards = 8)
    ?(default_deadline_s = 30.0) () =
  let n = max 1 shards in
  (* each shard gets its proportional slice (at least 1 entry), so total
     capacity is ~cache_capacity, never less *)
  let per_shard = (max 1 cache_capacity + n - 1) / n in
  {
    pool = Parallel.Pool.create ~jobs ();
    shards =
      Array.init n (fun _ ->
          {
            sh_mu = Mutex.create ();
            sh_cache = Lru.create per_shard;
            sh_text = Lru.create per_shard;
            sh_counters = Obs.Cache.create ();
          });
    default_deadline_s;
  }

let shutdown t = Parallel.Pool.shutdown t.pool

let shard_for t key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

let locked sh f =
  Mutex.lock sh.sh_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.sh_mu) f

(* One lock-free pass over the per-shard atomics, no intermediate
   snapshots: this runs once per response. *)
let counters_total t =
  let hits = ref 0
  and misses = ref 0
  and evictions = ref 0
  and insertions = ref 0
  and entries = ref 0 in
  Array.iter
    (fun sh ->
      let c = sh.sh_counters in
      hits := !hits + Atomic.get c.Obs.Cache.hits;
      misses := !misses + Atomic.get c.Obs.Cache.misses;
      evictions := !evictions + Atomic.get c.Obs.Cache.evictions;
      insertions := !insertions + Atomic.get c.Obs.Cache.insertions;
      entries := !entries + Atomic.get c.Obs.Cache.entries)
    t.shards;
  {
    Obs.Cache.hits = !hits;
    misses = !misses;
    evictions = !evictions;
    insertions = !insertions;
    entries = !entries;
  }

let stats t =
  match Obs.Cache.snapshot_json (counters_total t) with
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (("shards", Obs.Json.Int (Array.length t.shards)) :: fields)
  | j -> j

(* ------------------------------------------------------------------ *)
(* Request parsing                                                      *)
(* ------------------------------------------------------------------ *)

let parse_request t json : (request, string) result =
  let open Obs.Json in
  match json with
  | Obj _ -> (
      let id = member "id" json in
      match member "blif" json with
      | None -> Error "missing field: blif"
      | Some (Str blif) -> (
          let level_r =
            match member "level" json with
            | None | Some (Str "bit") -> Ok Hash.Embed.Bit_level
            | Some (Str "rt") -> Ok Hash.Embed.Rt_level
            | Some _ -> Error "bad field: level (expected \"bit\" or \"rt\")"
          in
          let cut_r =
            match member "cut" json with
            | None | Some (Str "maximal") -> Ok Maximal
            | Some (List l) ->
                let rec ints acc = function
                  | [] -> Ok (Gates (List.rev acc))
                  | Int i :: rest -> ints (i :: acc) rest
                  | _ -> Error "bad field: cut (expected integer gate list)"
                in
                ints [] l
            | Some _ ->
                Error "bad field: cut (expected \"maximal\" or a gate list)"
          in
          let deadline_r =
            match member "deadline_s" json with
            | None -> Ok t.default_deadline_s
            | Some (Int i) -> Ok (float_of_int i)
            | Some (Float f) -> Ok f
            | Some _ -> Error "bad field: deadline_s (expected a number)"
          in
          let echo_r =
            match member "echo" json with
            | None -> Ok true
            | Some (Bool b) -> Ok b
            | Some _ -> Error "bad field: echo (expected a boolean)"
          in
          let cert_r =
            match member "cert" json with
            | None -> Ok false
            | Some (Bool b) -> Ok b
            | Some _ -> Error "bad field: cert (expected a boolean)"
          in
          match (level_r, cut_r, deadline_r, echo_r, cert_r) with
          | Ok level, Ok cut, Ok dl, Ok echo, Ok cert ->
              if not (dl > 0.0) then
                Error "bad field: deadline_s (must be positive)"
              else
                Ok
                  {
                    id;
                    blif;
                    level;
                    cut;
                    deadline_s = min dl 3600.0;
                    echo;
                    cert;
                  }
          | Error e, _, _, _, _
          | _, Error e, _, _, _
          | _, _, Error e, _, _
          | _, _, _, Error e, _
          | _, _, _, _, Error e ->
              Error e)
      | Some _ -> Error "bad field: blif (expected a string)")
  | _ -> Error "request is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let base_fields id =
  match id with Some id -> [ ("id", id) ] | None -> []

(* A response stays structural until the moment it is written: a warm
   hit over a socket then costs no response-sized allocation at all —
   the writer streams the entry's pre-rendered fields straight into the
   channel buffer.  (Rendering per hit was the warm-path bottleneck:
   the theorem text makes responses ~20KB, far above the major-heap
   threshold, and GC dominated.) *)
type response =
  | Rendered of string
  | Ok_body of {
      ok_id : Obs.Json.t option;
      ok_e : entry;
      ok_echo : bool;
      ok_hit : bool;
      ok_cacheable : bool;
      ok_digest : string option;  (* hex — needs no JSON escaping *)
      ok_cert : string option;  (* recorded proof certificate text *)
      ok_snap : Obs.Cache.snapshot;
      ok_wall : float;
    }

let error_line ?id code msg =
  Obs.Json.to_string
    (Obs.Json.Obj
       (base_fields id
       @ [
           ("status", Obs.Json.Str "error");
           ( "error",
             Obs.Json.Obj
               [
                 ("code", Obs.Json.Str (code_string code));
                 ("message", Obs.Json.Str msg);
               ] );
         ]))

let error_response ?id code msg = Rendered (error_line ?id code msg)

(* [wall_s] is a difference of two {!Logic.Clock.now} readings, reported
   to the microsecond, so it is emitted as fixed six-decimal seconds
   with integer arithmetic — [Printf "%.15g"] cost ~0.5us per response,
   a real fraction of a warm hit.  Out-of-range values fall back to the
   exact renderer. *)
let wall_string w =
  if w >= 0.0 && w < 1e6 then begin
    let us = int_of_float ((w *. 1e6) +. 0.5) in
    let sec = us / 1_000_000 and frac = us mod 1_000_000 in
    let fs = string_of_int frac in
    let pad = String.make (6 - String.length fs) '0' in
    String.concat "" [ string_of_int sec; "."; pad; fs ]
  end
  else Obs.Json.to_string (Obs.Json.Float w)

(* The per-entry constant fields, rendered to JSON fragments (no outer
   braces) exactly as [Obs.Json.to_string] would emit them inline:
   the full middle (with the proof echo) and the terse prefix
   (["circuit":…,"retimed":…] alone). *)
let render_entry_fields ~blif ~theorem ~gates ~ffs =
  let gb, ga = gates and fb, fa = ffs in
  let circ g f =
    Obs.Json.Obj [ ("gates", Obs.Json.Int g); ("flipflops", Obs.Json.Int f) ]
  in
  let s =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("circuit", circ gb fb);
           ("retimed", circ ga fa);
           ("blif", Obs.Json.Str blif);
           ("theorem", Obs.Json.Str theorem);
         ])
  in
  let t =
    Obs.Json.to_string
      (Obs.Json.Obj [ ("circuit", circ gb fb); ("retimed", circ ga fa) ])
  in
  ( String.sub s 1 (String.length s - 2),
    String.sub t 1 (String.length t - 2) )

(* [t0m] is the request's {!Logic.Clock.now} reading on arrival: the
   one clock that bounds its deadline also times its [wall_s]. *)
let ok_response t ~id ~echo ~hit ~cacheable ~digest ?cert ~(e : entry) ~t0m
    () =
  (* The counter snapshot is taken here, lock-free, after this
     request's own bumps landed — rendering never touches a shard
     mutex, and the response sees one consistent aggregate. *)
  Ok_body
    {
      ok_id = id;
      ok_e = e;
      ok_echo = echo;
      ok_hit = hit;
      ok_cacheable = cacheable;
      ok_digest = digest;
      ok_cert = cert;
      ok_snap = counters_total t;
      ok_wall = Logic.Clock.now () -. t0m;
    }

(* Append a response to [buf], the one renderer behind both
   [handle_line] and the channel writer.  Everything is emitted from
   scalars: the warm path builds no intermediate JSON tree, and the only
   response-sized string it touches ([e_fields]) is the one shared by
   the cache entry. *)
let add_response buf r =
  let f = Buffer.add_string buf in
  match r with
  | Rendered s -> f s
  | Ok_body
      {
        ok_id;
        ok_e;
        ok_echo;
        ok_hit;
        ok_cacheable;
        ok_digest;
        ok_cert;
        ok_snap;
        ok_wall;
      } ->
      let b tag = f (if tag then "true" else "false") in
      let i n = f (string_of_int n) in
      f "{";
      (match ok_id with
      | Some id ->
          f "\"id\":";
          f (Obs.Json.to_string id);
          f ","
      | None -> ());
      f "\"status\":\"ok\",";
      if ok_echo then f ok_e.e_fields else f ok_e.e_terse;
      (match ok_cert with
      | Some cert ->
          (* cold path only (a fresh proof with recording on): the
             escape cost is dwarfed by the synthesis it certifies *)
          f ",\"cert\":";
          f (Obs.Json.to_string (Obs.Json.Str cert))
      | None -> ());
      f ",\"cache\":{\"hit\":";
      b ok_hit;
      f ",\"cacheable\":";
      b ok_cacheable;
      (match ok_digest with
      | Some d ->
          f ",\"digest\":\"";
          f d;
          f "\""
      | None -> ());
      f ",\"hits\":";
      i ok_snap.Obs.Cache.hits;
      f ",\"misses\":";
      i ok_snap.Obs.Cache.misses;
      f ",\"evictions\":";
      i ok_snap.Obs.Cache.evictions;
      f ",\"insertions\":";
      i ok_snap.Obs.Cache.insertions;
      f ",\"entries\":";
      i ok_snap.Obs.Cache.entries;
      f "},\"wall_s\":";
      f (wall_string ok_wall);
      f "}"

(* ------------------------------------------------------------------ *)
(* The request pipeline                                                 *)
(* ------------------------------------------------------------------ *)

let bump c = Atomic.incr c
let bump_by c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)

(* Store the spelling of a cacheable request in the text shard, counting
   the L1 eviction if the insert displaced an entry. *)
let remember_text t tkey digest e =
  let tsh = shard_for t tkey in
  locked tsh (fun () ->
      let evicted = Lru.add tsh.sh_text tkey (digest, e) in
      bump_by tsh.sh_counters.Obs.Cache.evictions evicted)

(* Kernel work, the tail of the front-door task.  [keyfp] is present for
   cacheable (maximal-cut) requests: the worker inserts the finished entry
   itself, so concurrent requests can already hit it. *)
let run_and_respond t (req : request) circuit keyfp ~deadline ~t0m =
  let cut =
    match req.cut with
    | Maximal -> Cut.maximal circuit
    | Gates gs -> Cut.of_gates circuit gs
  in
  let budget =
    { Engines.Common.deadline; max_bdd_nodes = 20_000_000; bdd_base = 0 }
  in
  let step, cert =
    if not req.cert then
      (Hash.Synthesis.retime ~budget req.level circuit cut, None)
    else begin
      (* Recording is per-domain, and this thunk owns its worker
         domain (inline pools serialize execution), so the trace
         captures exactly this request's derivation.  A poisoned
         trace or failed emission blames this repository, not the
         request: Kernel_invariant. *)
      Logic.Kernel.start_recording ();
      let step =
        try Hash.Synthesis.retime ~budget req.level circuit cut
        with e ->
          ignore (Logic.Kernel.stop_recording ());
          raise e
      in
      match Logic.Kernel.stop_recording () with
      | Error msg ->
          raise
            (Hash.Errors.Kernel_invariant
               ("certificate recording poisoned: " ^ msg))
      | Ok tr -> (
          match Cert.emit tr step.Hash.Synthesis.theorem with
          | Ok c -> (step, Some c)
          | Error msg ->
              raise
                (Hash.Errors.Kernel_invariant
                   ("certificate emission failed: " ^ msg)))
    end
  in
  let blif = Blif.to_string step.Hash.Synthesis.after in
  let theorem = Logic.Kernel.string_of_thm step.Hash.Synthesis.theorem in
  let gates =
    ( Circuit.gate_count circuit,
      Circuit.gate_count step.Hash.Synthesis.after )
  in
  let ffs =
    ( Circuit.flipflop_count circuit,
      Circuit.flipflop_count step.Hash.Synthesis.after )
  in
  let fields, terse = render_entry_fields ~blif ~theorem ~gates ~ffs in
  let e =
    {
      e_canon = "";
      e_blif = blif;
      e_theorem = theorem;
      e_gates = gates;
      e_ffs = ffs;
      e_fields = fields;
      e_terse = terse;
    }
  in
  match keyfp with
  | Some (key, fp, tkey) ->
      let e = { e with e_canon = Fingerprint.canon fp } in
      let fsh = shard_for t key in
      locked fsh (fun () ->
          let evicted = Lru.add fsh.sh_cache key e in
          bump fsh.sh_counters.Obs.Cache.insertions;
          bump_by fsh.sh_counters.Obs.Cache.evictions evicted;
          Atomic.set fsh.sh_counters.Obs.Cache.entries
            (Lru.length fsh.sh_cache));
      remember_text t tkey (Fingerprint.digest fp) e;
      ok_response t ~id:req.id ~echo:req.echo ~hit:false ~cacheable:true
        ~digest:(Some (Fingerprint.digest fp))
        ?cert ~e ~t0m ()
  | None ->
      ok_response t ~id:req.id ~echo:req.echo ~hit:false ~cacheable:false
        ~digest:None ?cert ~e ~t0m ()

(* ------------------------------------------------------------------ *)
(* Submission and channel loops                                         *)
(* ------------------------------------------------------------------ *)

type pending =
  | Immediate of response
  | Queued of Obs.Json.t option * response Parallel.Pool.future
  | Batch of pending list

(* A cache hit.  A certificate request cannot be honoured by one: no
   proof ran for it, and the server will not fabricate one. *)
let hit_response t (req : request) ~digest e ~t0m =
  if req.cert then
    error_response ?id:req.id Cert_unavailable
      "result served from cache; no proof was replayed for this request, \
       so no certificate exists"
  else
    ok_response t ~id:req.id ~echo:req.echo ~hit:true ~cacheable:true
      ~digest:(Some digest) ~e ~t0m ()

let level_tag = function
  | Hash.Embed.Bit_level -> "bit"
  | Hash.Embed.Rt_level -> "rt"

(* Everything an exact-text miss needs, as one pool task on a worker
   domain: netlist parse, validation, fingerprint and the L2 lookup,
   then — on a miss — the kernel work in the same task.  L2 hits and
   trust-boundary rejections are answered by a worker too, so the front
   door scales with the pool instead of saturating the one domain the
   connection threads share.  [tkey] is the L1 key of a cacheable
   (maximal-cut) request; explicit gate lists name signal indices of
   this particular representation and are never served from (or stored
   into) the caches.  No term crosses a domain: the netlist layer keeps
   no mutable state beyond the call, and the cache holds strings behind
   shard mutexes. *)
let front_door t (req : request) tkey ~deadline ~t0m () =
  try
    let circuit = Blif.of_string req.blif in
    match tkey with
    | None ->
        Circuit.validate circuit;
        run_and_respond t req circuit None ~deadline ~t0m
    | Some tkey -> (
        let fp = Fingerprint.of_circuit circuit in
        let digest = Fingerprint.digest fp in
        let key = digest ^ "/" ^ level_tag req.level in
        let fsh = shard_for t key in
        let cached =
          locked fsh (fun () ->
              match Lru.find fsh.sh_cache key with
              | Some e when String.equal e.e_canon (Fingerprint.canon fp) ->
                  bump fsh.sh_counters.Obs.Cache.hits;
                  Some e
              | Some _ | None ->
                  bump fsh.sh_counters.Obs.Cache.misses;
                  None)
        in
        match cached with
        | Some e ->
            (* remember the spelling for next time (after releasing the
               fingerprint shard — L1 lives in its own shard and locks
               never nest) *)
            remember_text t tkey digest e;
            hit_response t req ~digest e ~t0m
        | None ->
            run_and_respond t req circuit
              (Some (key, fp, tkey))
              ~deadline ~t0m)
  with e ->
    let code, msg = error_of_exn e in
    error_response ?id:req.id code msg

(* The connection thread keeps only what needs no worker: the L1
   exact-text lookup, answered before the BLIF is even parsed, however
   the JSON line around it was spelled.  Everything else is one
   {!front_door} task, so an L1 miss — L2 hit and rejection included —
   is bounded by its deadline from arrival: a task still queued when
   the deadline passes answers [deadline_exceeded].  Deadlines are
   monotonic arithmetic: [t0m] came from {!Logic.Clock.now}, so a
   wall-clock step (NTP, manual reset) cannot expire — or resurrect —
   an in-flight request. *)
let submit_request t ~t0m (req : request) =
  let deadline = t0m +. req.deadline_s in
  let tkey =
    match req.cut with
    | Gates _ -> None
    | Maximal -> Some (level_tag req.level ^ "\x00" ^ req.blif)
  in
  let text_hit =
    Option.bind tkey (fun tkey ->
        let tsh = shard_for t tkey in
        locked tsh (fun () ->
            match Lru.find tsh.sh_text tkey with
            | Some _ as hit ->
                bump tsh.sh_counters.Obs.Cache.hits;
                hit
            | None -> None))
  in
  match text_hit with
  | Some (digest, e) -> Immediate (hit_response t req ~digest e ~t0m)
  | None -> (
      (* On an inline pool (--jobs 1, the default) [submit] runs the
         task in this thread under the pool's inline mutex, and a task
         that submitted again would deadlock there: [front_door] runs
         the kernel work itself and never touches the pool. *)
      match
        Parallel.Pool.submit ~deadline t.pool
          (front_door t req tkey ~deadline ~t0m)
      with
      | fut -> Queued (req.id, fut)
      | exception Parallel.Pool.Shutdown ->
          Immediate
            (error_response ?id:req.id Shutdown "server is shutting down"))

let submit_json t ~t0m json =
  match parse_request t json with
  | Error msg ->
      Immediate
        (error_response ?id:(Obs.Json.member "id" json) Bad_request msg)
  | Ok req -> submit_request t ~t0m req

(* A {"batch": [...]} line amortizes per-line protocol overhead for
   fleets of small circuits: one read, one parse, one response write —
   and the misses inside the batch fan out over the pool concurrently.
   Items are answered as a JSON array in order, each item succeeding or
   failing on its own. *)
let max_batch = 4096

let submit_line t line =
  let t0m = Logic.Clock.now () in
  match Obs.Json.parse line with
  | exception Obs.Json.Parse_error msg ->
      Immediate (error_response Bad_request msg)
  | json -> (
      match Obs.Json.member "batch" json with
      | None -> submit_json t ~t0m json
      | Some (Obs.Json.List items) ->
          if List.length items > max_batch then
            Immediate
              (error_response
                 ?id:(Obs.Json.member "id" json)
                 Bad_request
                 (Printf.sprintf "batch too large (max %d items)" max_batch))
          else
            Batch
              (List.map
                 (fun item ->
                   match Obs.Json.member "batch" item with
                   | Some _ ->
                       Immediate
                         (error_response
                            ?id:(Obs.Json.member "id" item)
                            Bad_request "batches do not nest")
                   | None -> submit_json t ~t0m item)
                 items)
      | Some _ ->
          Immediate
            (error_response
               ?id:(Obs.Json.member "id" json)
               Bad_request "bad field: batch (expected a list of requests)"))

let await_queued id fut =
  match Parallel.Pool.await fut with
  | r -> r
  | exception Parallel.Pool.Cancelled ->
      error_response ?id Deadline_exceeded
        "deadline passed before the request was scheduled"
  | exception e ->
      let code, msg = error_of_exn e in
      error_response ?id code msg

(* Await a submitted line's responses in request order and append them
   to [buf] — a batch as one JSON array.  The per-connection writer
   reuses one scratch buffer for every line: after the first response
   the warm path allocates nothing response-sized at all (a batch never
   materializes its potentially megabyte array line as a string), and
   the channel is touched once per line instead of once per JSON
   piece. *)
let rec add_pending buf = function
  | Immediate r -> add_response buf r
  | Queued (id, fut) -> add_response buf (await_queued id fut)
  | Batch ps ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char buf ',';
          add_pending buf p)
        ps;
      Buffer.add_char buf ']'

let handle_line t line =
  let buf = Buffer.create 1024 in
  add_pending buf (submit_line t line);
  Buffer.contents buf

(* Requests pipeline through the pool; responses come back in request
   order.  The reader (this thread) parses each JSON line, answers
   exact-text repeats from L1 and hands everything else to the pool; a
   writer thread awaits each pending response in request order and
   emits it the moment it resolves.  Splitting the two is what lets an
   interactive client see its response while the reader is blocked on
   [input_line] — a single-threaded read-then-drain loop would hold
   finished responses hostage until the next request (or EOF)
   arrived.  (A thread, not a domain: every concurrent connection gets
   one of these, and they only block on IO.) *)
let serve_channel t ic oc =
  let q = Queue.create () in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let push item =
    Mutex.lock mu;
    Queue.push item q;
    Condition.signal cv;
    Mutex.unlock mu
  in
  let writer =
    Thread.create
      (fun () ->
        let scratch = Buffer.create 4096 in
        let rec wloop () =
          Mutex.lock mu;
          while Queue.is_empty q do
            Condition.wait cv mu
          done;
          let item = Queue.pop q in
          Mutex.unlock mu;
          match item with
          | None -> ()
          | Some p ->
              Buffer.clear scratch;
              add_pending scratch p;
              Buffer.add_char scratch '\n';
              Buffer.output_buffer oc scratch;
              flush oc;
              wloop ()
        in
        (* a writer that died mid-emit (client hung up) already lost the
           connection; swallow so the default thread handler doesn't
           print it *)
        try wloop () with Sys_error _ | Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      push None;
      (* best-effort join during teardown: the writer drains the queue and
         exits once it pops [None]; if the runtime cannot join (systhreads
         reports failures as [Sys_error]) the process is shutting the
         channel down anyway and the thread dies with it.  Anything else —
         Out_of_memory, a bug — must propagate. *)
      try Thread.join writer with Sys_error _ -> ())
    (fun () ->
      try
        let rec loop () =
          let line = input_line ic in
          if String.trim line <> "" then push (Some (submit_line t line));
          loop ()
        in
        loop ()
      with End_of_file | Sys_error _ -> ())

let run_stdio t = serve_channel t stdin stdout

(* ------------------------------------------------------------------ *)
(* Listeners: concurrent connections over Unix or TCP sockets           *)
(* ------------------------------------------------------------------ *)

type listener = {
  l_server : t;
  l_sock : Unix.file_descr;
  l_path : string option;  (* Unix path, unlinked on stop *)
  l_addr : Unix.sockaddr;  (* actual bound address (TCP port 0 resolved) *)
  l_stop_r : Unix.file_descr;  (* self-pipe: wakes the accept loop *)
  l_stop_w : Unix.file_descr;
  l_stop : bool Atomic.t;
  l_max : int;
  l_mu : Mutex.t;
  l_cv : Condition.t;
  mutable l_active : int;  (* in-flight connections *)
  l_conns : (Unix.file_descr, unit) Hashtbl.t;
      (* live connection fds, so a stop can half-close them; guarded by
         [l_mu], and fds are closed under [l_mu] too so a drain never
         shuts down a recycled descriptor *)
  mutable l_cleaned : bool;
  mutable l_accept : Thread.t option;
}

let listener_addr l = l.l_addr

let handle_conn l fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try serve_channel l.l_server ic oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try flush oc with Sys_error _ -> ());
  Mutex.lock l.l_mu;
  Hashtbl.remove l.l_conns fd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  l.l_active <- l.l_active - 1;
  Condition.broadcast l.l_cv;
  Mutex.unlock l.l_mu

let accept_loop l =
  let stopped () = Atomic.get l.l_stop in
  let rec loop () =
    if stopped () then ()
    else begin
      let full =
        Mutex.lock l.l_mu;
        let f = l.l_active >= l.l_max in
        Mutex.unlock l.l_mu;
        f
      in
      if full then begin
        (* at capacity: poll for a free slot, waking instantly on stop
           (the self-pipe becomes readable) *)
        (try ignore (Unix.select [ l.l_stop_r ] [] [] 0.05)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
      else
        match Unix.select [ l.l_sock; l.l_stop_r ] [] [] (-1.0) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | ready, _, _ ->
            if List.mem l.l_stop_r ready || stopped () then ()
            else (
              match Unix.accept l.l_sock with
              | exception
                  Unix.Unix_error
                    ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                      | Unix.EWOULDBLOCK ),
                      _,
                      _ ) ->
                  loop ()
              | exception Unix.Unix_error _ ->
                  ()  (* listening socket is gone: stop accepting *)
              | fd, _ ->
                  Mutex.lock l.l_mu;
                  l.l_active <- l.l_active + 1;
                  Hashtbl.replace l.l_conns fd ();
                  Mutex.unlock l.l_mu;
                  ignore (Thread.create (fun () -> handle_conn l fd) ());
                  loop ())
    end
  in
  loop ()

let make_listener t sock path max_connections =
  (* a client that hangs up mid-response must cost us the connection,
     not the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Unix.listen sock 64;
  let stop_r, stop_w = Unix.pipe () in
  let l =
    {
      l_server = t;
      l_sock = sock;
      l_path = path;
      l_addr = Unix.getsockname sock;
      l_stop_r = stop_r;
      l_stop_w = stop_w;
      l_stop = Atomic.make false;
      l_max = max 1 max_connections;
      l_mu = Mutex.create ();
      l_cv = Condition.create ();
      l_active = 0;
      l_conns = Hashtbl.create 16;
      l_cleaned = false;
      l_accept = None;
    }
  in
  l.l_accept <- Some (Thread.create (fun () -> accept_loop l) ());
  l

let listen_unix ?(max_connections = 64) t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  make_listener t sock (Some path) max_connections

let listen_tcp ?(max_connections = 64) t ~host ~port =
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] -> raise (Invalid_argument ("serve: cannot resolve " ^ host))
        | addrs -> addrs.(0)
        | exception Not_found ->
            raise (Invalid_argument ("serve: cannot resolve " ^ host)))
  in
  let sa = Unix.ADDR_INET (addr, port) in
  let sock = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock sa
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  make_listener t sock None max_connections

(* Async-signal-safe: an atomic flag plus one self-pipe write, so it can
   run inside a SIGINT/SIGTERM handler. *)
let request_stop l =
  if not (Atomic.exchange l.l_stop true) then
    try ignore (Unix.write l.l_stop_w (Bytes.of_string "!") 0 1)
    with Unix.Unix_error _ -> ()

let await l =
  (match l.l_accept with
  (* best-effort join during shutdown: the accept loop already saw the
     self-pipe wakeup and is exiting; a [Sys_error] from systhreads'
     join machinery must not abort the drain of live connections below.
     Other exceptions propagate — stop() must not mask real failures. *)
  | Some th -> ( try Thread.join th with Sys_error _ -> ())
  | None -> ());
  Mutex.lock l.l_mu;
  let first = not l.l_cleaned in
  l.l_cleaned <- true;
  Mutex.unlock l.l_mu;
  (* stop taking connections before draining the in-flight ones *)
  if first then begin
    (try Unix.close l.l_sock with Unix.Unix_error _ -> ());
    (match l.l_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | None -> ())
  end;
  Mutex.lock l.l_mu;
  (* half-close every live connection: its reader sees EOF once the
     requests already on the wire are through, so an idle client cannot
     hold the drain open, yet pending responses still go out *)
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ | Invalid_argument _ -> ())
    l.l_conns;
  while l.l_active > 0 do
    Condition.wait l.l_cv l.l_mu
  done;
  Mutex.unlock l.l_mu;
  if first then begin
    (try Unix.close l.l_stop_r with Unix.Unix_error _ -> ());
    try Unix.close l.l_stop_w with Unix.Unix_error _ -> ()
  end

let stop l =
  request_stop l;
  await l
