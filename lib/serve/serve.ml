(* Retiming as a service (ROADMAP item 1): a long-lived daemon speaking
   newline-delimited JSON over stdio, a Unix-domain socket or TCP.  Each
   request carries a BLIF netlist and a cut heuristic; the daemon
   validates at the trust boundary, dispatches the formal step to the
   domain pool with a per-request deadline, and answers repeated or
   isomorphic requests from the proof cache ({!Proof_cache}, which
   holds the cache's soundness argument) without touching the kernel.
   The wire format is {!Protocol}'s.

   Connection handling: one accept loop (a systhread) per listener
   hands each connection to its own handler thread, bounded by
   [max_connections].  A handler answers exact-text (L1) repeats itself
   and blocks otherwise only on socket IO: every other request — BLIF
   parse, fingerprint, L2 lookup and kernel work — is one task on the
   shared domain pool (lib/parallel), so many light connections cost
   threads, not domains, and hits and misses alike scale with the
   pool, up to the host's CPUs.  The connection domain is never idle
   (it parses every line, answers L1 hits and writes every response),
   so it counts as one of the domains the host recommends: [create]
   sizes the pool at [jobs] workers but at most
   [Domain.recommended_domain_count () - 1], and at least one, so that
   no proof runs on the connection domain.  A domain more than the
   host has CPUs stalls every stop-the-world collection until it is
   scheduled again (EXPERIMENTS.md, "No more domains than CPUs").
   Responses within a connection are written in request order by a
   per-connection writer thread.  [request_stop] (async-signal-safe: an
   atomic flag plus a self-pipe write) wakes the accept loop;
   [await] then closes the listening socket, unlinks the Unix
   path and drains in-flight connections. *)

open Protocol

type t = {
  pool : Parallel.Pool.t;
  cache : Proof_cache.t;
  default_deadline_s : float;
}

let create ?(jobs = 1) ?(cache_capacity = 64) ?(shards = 8)
    ?(default_deadline_s = 30.0) () =
  let workers =
    if jobs <= 1 then 0
    else max 1 (min jobs (Domain.recommended_domain_count () - 1))
  in
  {
    pool = Parallel.Pool.create ~workers;
    cache = Proof_cache.create ~capacity:cache_capacity ~shards;
    default_deadline_s =
      (if default_deadline_s > 0.0 then default_deadline_s else 30.0);
  }

let shutdown t = Parallel.Pool.shutdown t.pool
let stats t = Proof_cache.stats t.cache

(* ------------------------------------------------------------------ *)
(* The request pipeline                                                 *)
(* ------------------------------------------------------------------ *)

(* [t0m] is the request's {!Logic.Clock.now} reading on arrival: the
   one clock that bounds its deadline also times its [wall_s]. *)
let ok_response t ~id ~echo ~hit ~cacheable ~digest ?cert ~e ~t0m () =
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
      ok_snap = Proof_cache.totals t.cache;
      ok_wall = Logic.Clock.now () -. t0m;
    }

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
  let e = render_entry_fields ~blif ~theorem ~gates ~ffs in
  match keyfp with
  | Some (text, fp) ->
      Proof_cache.add t.cache ~text req.level fp e;
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

(* Everything an exact-text miss needs, as one pool task on a worker
   domain: netlist parse, validation, fingerprint and the L2 lookup,
   then — on a miss — the kernel work in the same task.  L2 hits and
   trust-boundary rejections are answered by a worker too, so the front
   door scales with the pool instead of saturating the one domain the
   connection threads share.  A task that starts after its deadline
   does none of it: the wait for a worker used the whole budget.  [tkey]
   is the L1 key of a cacheable (maximal-cut) request; explicit gate
   lists name signal indices of this particular representation and are
   never served from (or stored into) the caches.  No term crosses a
   domain: the netlist layer keeps no mutable state beyond the call, and
   the cache holds strings behind shard mutexes. *)
let front_door t (req : request) tkey ~deadline ~t0m () =
  if Logic.Clock.now () > deadline then
    error_response ?id:req.id Deadline_exceeded
      "deadline passed before the request was scheduled"
  else
    try
      let circuit = Blif.of_string req.blif in
      match tkey with
      | None ->
          Circuit.validate circuit;
          run_and_respond t req circuit None ~deadline ~t0m
      | Some text -> (
          let fp = Fingerprint.of_circuit circuit in
          match Proof_cache.find t.cache ~text req.level fp with
          | Some e ->
              hit_response t req ~digest:(Fingerprint.digest fp) e ~t0m
          | None ->
              run_and_respond t req circuit (Some (text, fp)) ~deadline ~t0m)
    with e ->
      let code, msg = error_of_exn e in
      error_response ?id:req.id code msg

(* The connection thread keeps only what needs no worker: the L1
   exact-text lookup, answered before the BLIF is even parsed, however
   the JSON line around it was spelled.  Everything else is one
   {!front_door} task, so an L1 miss — L2 hit and rejection included —
   is bounded by its deadline from arrival: a task that a worker starts
   after the deadline answers [deadline_exceeded].  Deadlines are
   monotonic arithmetic: [t0m] came from {!Logic.Clock.now}, so a
   wall-clock step (NTP, manual reset) cannot expire — or resurrect —
   an in-flight request. *)
let submit_request t ~t0m (req : request) =
  let deadline = t0m +. req.deadline_s in
  let tkey =
    match req.cut with
    | Gates _ -> None
    | Maximal -> Some (Proof_cache.text_key req.level req.blif)
  in
  match Option.bind tkey (Proof_cache.find_text t.cache) with
  | Some (digest, e) -> Immediate (hit_response t req ~digest e ~t0m)
  | None -> (
      (* On an inline pool (--jobs 1, the default) [submit] runs the
         task in this thread under the pool's inline mutex, and a task
         that submitted again would deadlock there: [front_door] runs
         the kernel work itself and never touches the pool. *)
      match
        Parallel.Pool.submit t.pool (front_door t req tkey ~deadline ~t0m)
      with
      | fut -> Queued (req.id, fut)
      | exception Parallel.Pool.Shutdown ->
          Immediate
            (error_response ?id:req.id Shutdown "server is shutting down"))

let submit_json t ~t0m json =
  match parse_request ~default_deadline_s:t.default_deadline_s json with
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

let drain_deadline_s = 2.0

let await l =
  (match l.l_accept with
  (* best-effort join during shutdown: the accept loop already saw the
     self-pipe wakeup and is exiting; a [Sys_error] from systhreads'
     join machinery must not abort the drain of live connections below.
     Other exceptions propagate — [await] must not mask real failures. *)
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
  let shutdown how =
    Hashtbl.iter
      (fun fd () ->
        try Unix.shutdown fd how
        with Unix.Unix_error _ | Invalid_argument _ -> ())
      l.l_conns
  in
  shutdown Unix.SHUTDOWN_RECEIVE;
  let deadline = Logic.Clock.now () +. drain_deadline_s in
  while l.l_active > 0 && Logic.Clock.now () < deadline do
    Mutex.unlock l.l_mu;
    Thread.delay 0.01;
    Mutex.lock l.l_mu
  done;
  (* a writer still blocked on a client that stopped reading fails once
     its connection is shut down both ways, and its handler exits *)
  shutdown Unix.SHUTDOWN_ALL;
  while l.l_active > 0 do
    Condition.wait l.l_cv l.l_mu
  done;
  Mutex.unlock l.l_mu;
  if first then begin
    (try Unix.close l.l_stop_r with Unix.Unix_error _ -> ());
    try Unix.close l.l_stop_w with Unix.Unix_error _ -> ()
  end
