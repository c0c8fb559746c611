(* The service benchmark: one workload of BENCHMARK.json against
   bin/serve.exe daemons, driven over a Unix socket from this one
   process (at most 2 client threads, one connection each).

     bash bench/e2e/run.sh --workload cold_iwls --seed 1 --seconds 15 --trace 0

   Run from the repository root.  A run is [sessions] sessions, each a
   fresh daemon: set-up (spawn, first answered probe, the workload's
   untimed warm-up), then its share of the timed lines in closed loop.
   [--seconds] sets how many lines: what the baseline machine answers
   in that time ({!Traffic.lines_per_s}).  Every answer is then checked
   off the clock by {!Oracle}.  With [--trace 1] the last session's
   lines are also replayed in process along the path each took in the
   daemon (miss, fingerprint hit, exact-text hit, rejection), timing
   each layer's public functions: the per-layer metrics.  The last line of stdout is the
   result object; the run is appended to [--out] (default
   BENCH_e2e.json), which compare.exe reads.  A run with a failed item
   exits 1 after printing its result. *)

let now = Logic.Clock.monotonic_seconds

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

let daemon_exe = "_build/default/bin/serve.exe"
let cache_capacity = 64

(* A run is this many sessions, each against a fresh daemon and each a
   third of the run's timed lines.  The daemon's heap grows with every
   cold request and it pauses for hundreds of milliseconds as it does,
   at points that shift from process to process; three shorter-lived
   daemons per run average those pauses, and give set-up time three
   samples. *)
let sessions = 3

(* A reply slower than this is a failure, not a latency sample. *)
let reply_timeout_s = 30.0

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let spawn k =
  (* relative, so it fits the 108 bytes of a socket path wherever the
     checkout lives, and inside the build directory, which the build
     has made and version control ignores *)
  let sock = Printf.sprintf "_build/e2e-%d-%d.sock" (Unix.getpid ()) k in
  let args =
    [|
      daemon_exe; "--socket"; sock; "--jobs"; "2"; "--cache";
      string_of_int cache_capacity; "--shards"; "8";
    |]
  in
  let pid =
    Unix.create_process daemon_exe args Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; sock } in
  live := d :: !live;
  d

let rec waitpid_nohang pid =
  try Unix.waitpid [ Unix.WNOHANG ] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

(* SIGTERM makes the daemon drain and exit; SIGKILL after 10 s. *)
let stop d =
  live := List.filter (fun x -> x != d) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match waitpid_nohang d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  try Sys.remove d.sock with Sys_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of every thread of the process, in seconds (USER_HZ
   is 100 on Linux). *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields from the third on follow the parenthesised command name *)
  let from = String.rindex s ')' + 2 in
  let fields =
    Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from)))
  in
  let field k = float_of_string fields.(k - 3) in
  (field 14 +. field 15) /. 100.0

let peak_rss_kb pid =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
  | None -> die "no VmHWM in /proc/%d/status" pid

(* ------------------------------------------------------------------ *)
(* Connections and answers                                              *)
(* ------------------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel }

let connect d =
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
        { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> (
        Unix.close fd;
        match waitpid_nohang d.pid with
        | 0, _ when now () < deadline ->
            Unix.sleepf 0.001;
            go ()
        | 0, _ -> die "the daemon did not listen within 30 s"
        | _ -> die "the daemon exited before listening (is %s built?)" daemon_exe)
  in
  go ()

let close c = close_out_noerr c.oc

let exchange c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

(* One distinct answer text.  Clients keep an answer only when it
   differs from every earlier answer to the same question; a repeat
   points at the kept one, so a long warm run holds a few hundred
   answers, not tens of thousands, and each is checked once. *)
type answer = { serial : int; text : string }
type body = Own of answer | Like of answer | Lost of string

type record = {
  item : Traffic.item;
  t0 : float;
  t1 : float;
  tail : string;  (** the cache counters and [wall_s], verbatim *)
  body : body;
}

let serials = Atomic.make 0

let matches_at s i pat =
  let rec go k = k = String.length pat || (s.[i + k] = pat.[k] && go (k + 1)) in
  go 0

let cache_member = ",\"cache\":{"

(* The bytes of an answer that must repeat for a repeated question:
   after the id member, before the cache counters and timing. *)
let answer_span r =
  let n = String.length r in
  let start =
    if String.starts_with ~prefix:"{\"id\":" r then
      match String.index_from_opt r 6 ',' with Some i -> i + 1 | None -> n
    else 0
  in
  let rec last i =
    if i < max start (n - 512) then n
    else if matches_at r i cache_member then i
    else last (i - 1)
  in
  (start, last (n - String.length cache_member))

let span_equal a (sa, ea) b (sb, eb) =
  let n = ea - sa in
  n = eb - sb
  &&
  let rec words i =
    i + 8 > n
    || (String.get_int64_ne a (sa + i) : int64) = String.get_int64_ne b (sb + i)
       && words (i + 8)
  in
  let rec bytes i = i >= n || (a.[sa + i] = b.[sb + i] && bytes (i + 1)) in
  words 0 && bytes (n - (n mod 8))

(* Questions whose right answer repeats: the same circuit with the same
   echo, or the same rejection class. *)
let question (it : Traffic.item) =
  match it.kind with
  | Same b | Renamed b -> Some (Printf.sprintf "%d/%b" b it.echo)
  | Malformed c -> Some ("m" ^ string_of_int c)
  | Cold | Batch _ -> None

let record seen it t0 t1 r =
  let span = answer_span r in
  let tail = String.sub r (snd span) (String.length r - snd span) in
  let keep key =
    let a = { serial = Atomic.fetch_and_add serials 1; text = r } in
    Option.iter
      (fun k ->
        Hashtbl.replace seen k
          ((a, span) :: Option.value ~default:[] (Hashtbl.find_opt seen k)))
      key;
    Own a
  in
  let body =
    match question it with
    | None -> keep None
    | Some k -> (
        let prior = Option.value ~default:[] (Hashtbl.find_opt seen k) in
        match List.find_opt (fun (a, sp) -> span_equal a.text sp r span) prior with
        | Some (a, _) -> Like a
        | None -> keep (Some k))
  in
  { item = it; t0; t1; tail; body }

(* A closed-loop client: one line in flight, the next sent when the
   answer is in, until the deadline or the stream ends. *)
let drive c ~deadline next =
  let seen = Hashtbl.create 64 in
  let rec loop acc =
    if now () >= deadline then acc
    else
      match next () with
      | None -> acc
      | Some (it : Traffic.item) -> (
          let t0 = now () in
          match exchange c it.line with
          | r ->
              let t1 = now () in
              loop (record seen it t0 t1 r :: acc)
          | exception ((End_of_file | Sys_error _ | Unix.Unix_error _) as e) ->
              { item = it; t0; t1 = now (); tail = ""; body = Lost (Printexc.to_string e) }
              :: acc)
  in
  List.rev (loop [])

(* ------------------------------------------------------------------ *)
(* Set-up and the timed phase                                           *)
(* ------------------------------------------------------------------ *)

let setup (tr : Traffic.t) k =
  let t0 = now () in
  let d = spawn k in
  let c = connect d in
  let seen = Hashtbl.create 64 in
  let send (it : Traffic.item) =
    let s = now () in
    match exchange c it.line with
    | r -> record seen it s (now ()) r
    | exception ((End_of_file | Sys_error _) as e) ->
        die "set-up request %d failed: %s" it.id (Printexc.to_string e)
  in
  let recs = List.map send (tr.probe :: Array.to_list tr.warmup) in
  close c;
  (d, now () -. t0, recs)

(* One fresh daemon: set-up, then timed lines [first, first + lines)
   of the stream in closed loop from [clients] connections, then stop.
   A session that overruns [cap] seconds stops early ([capped]). *)
type session = {
  setup_s : float;
  setup_recs : record list;
  recs : record list;
  wall_s : float;
  cpu_s : float;
  rss_kb : int;
  capped : bool;
}

let session (tr : Traffic.t) k ~clients ~first ~lines ~cap =
  let d, setup_s, setup_recs = setup tr k in
  let conns = List.init clients (fun _ -> connect d) in
  let taken = Atomic.make first in
  let take () =
    let i = Atomic.fetch_and_add taken 1 in
    if i < first + lines then Some tr.items.(i mod Array.length tr.items) else None
  in
  let cpu0 = cpu_seconds d.pid in
  let t_start = now () in
  let deadline = t_start +. cap in
  let threads =
    List.map
      (fun c ->
        let out = ref [] in
        (Thread.create (fun () -> out := drive c ~deadline take) (), out))
      conns
  in
  List.iter (fun (th, _) -> Thread.join th) threads;
  let wall_s = now () -. t_start in
  let cpu_s = cpu_seconds d.pid -. cpu0 and rss_kb = peak_rss_kb d.pid in
  List.iter close conns;
  stop d;
  {
    setup_s;
    setup_recs;
    recs = List.concat_map (fun (_, out) -> !out) threads;
    wall_s;
    cpu_s;
    rss_kb;
    capped = Atomic.get taken < first + lines;
  }

(* ------------------------------------------------------------------ *)
(* The oracle pass (off the clock)                                      *)
(* ------------------------------------------------------------------ *)

type verdict = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the report *)
  replays : (int, float) Hashtbl.t;  (** answer serial -> cert replay s *)
}

let check (tr : Traffic.t) recs =
  let expects = Hashtbl.create 64 in
  let expect blif =
    match Hashtbl.find_opt expects blif with
    | Some e -> e
    | None ->
        let e = Oracle.expect_of_blif blif in
        Hashtbl.replace expects blif e;
        e
  in
  let errors = List.filter_map (function Error m -> Some m | Ok () -> None) in
  let judged = Hashtbl.create 1024 and replays = Hashtbl.create 64 in
  let judge (it : Traffic.item) a =
    match Hashtbl.find_opt judged a.serial with
    | Some v -> v
    | None ->
        let v =
          match Obs.Json.parse a.text with
          | exception Obs.Json.Parse_error m ->
              List.init (Traffic.items_of it) (fun _ -> "unparseable answer: " ^ m)
          | j -> (
              match (it.kind, j) with
              | (Cold | Same _ | Renamed _), _ ->
                  errors
                    [
                      Oracle.check_ok
                        ~on_replay:(Hashtbl.replace replays a.serial)
                        (expect it.blif) ~echo:it.echo ~cert:it.cert j;
                    ]
              | Batch bs, Obs.Json.List js when List.length js = Array.length bs ->
                  errors
                    (List.map2
                       (fun b j ->
                         Oracle.check_ok (expect tr.bases.(b)) ~echo:false
                           ~cert:false j)
                       (Array.to_list bs) js)
              | Batch bs, _ ->
                  List.init (Array.length bs) (fun _ ->
                      "batch answer is not an array of its items")
              | Malformed c, _ ->
                  errors [ Oracle.check_error (Traffic.malformed_code c) j ])
        in
        Hashtbl.replace judged a.serial v;
        v
  in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  List.iter
    (fun r ->
      let n = Traffic.items_of r.item in
      attempted := !attempted + n;
      let fs =
        match r.body with
        | Lost m -> List.init n (fun _ -> "no answer: " ^ m)
        | Own a | Like a -> judge r.item a
      in
      failed := !failed + List.length fs;
      List.iter
        (fun m ->
          if List.length !failures < 5 then
            failures := Printf.sprintf "line %d: %s" r.item.id m :: !failures)
        fs)
    recs;
  {
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    replays;
  }

(* ------------------------------------------------------------------ *)
(* The traced replay                                                    *)
(* ------------------------------------------------------------------ *)

type layer = {
  name : string;
  mutable calls : int;
  mutable total : float;
  samples : Float.Array.t;
}

let layer_names =
  [
    "obs.json.parse"; "netlist.blif.parse"; "netlist.fingerprint";
    "retiming.cut.maximal"; "hash.synthesis.retime"; "hash.step.embed";
    "hash.step.split"; "hash.step.instantiate"; "hash.step.join";
    "hash.step.init"; "cert.emit"; "netlist.blif.render";
    "logic.kernel.string_of_thm"; "obs.json.render"; "cert.check";
  ]

(* The server-side layers, none nested in another: their shares add up
   to [layers.coverage].  The [hash.step.*] rows split
   [hash.synthesis.retime]; [cert.check] is the client's replay. *)
let covered =
  [
    "obs.json.parse"; "netlist.blif.parse"; "netlist.fingerprint";
    "retiming.cut.maximal"; "hash.synthesis.retime"; "cert.emit";
    "netlist.blif.render"; "logic.kernel.string_of_thm"; "obs.json.render";
  ]

let add l dt =
  Float.Array.set l.samples l.calls dt;
  l.calls <- l.calls + 1;
  l.total <- l.total +. dt

let timed l f =
  let t0 = now () in
  let r = f () in
  add l (now () -. t0);
  r

let blif_member j =
  match Obs.Json.member "blif" j with Some (Obs.Json.Str b) -> Some b | _ -> None

(* The cache outcome an answer reports; [None] for a rejection. *)
let hit_of j =
  match Option.bind (Obs.Json.member "cache" j) (Obs.Json.member "hit") with
  | Some (Obs.Json.Bool h) -> Some h
  | _ -> None

let tail_json r =
  if r.tail = "" then None
  else
    match Obs.Json.parse ("{" ^ String.sub r.tail 1 (String.length r.tail - 1)) with
    | j -> Some j
    | exception Obs.Json.Parse_error _ -> None

type trace = {
  layers : layer list;
  lines : int;
  kern : Obs.kernel_snapshot;
  live_nodes_growth : int;
  gc : Obs.Gcstats.t;
  retained_words : float;
  cert_bytes : int list;
}

(* [recs]: every line the timed daemon answered, set-up included, in
   send order.  A miss runs the whole path; a fingerprint hit runs the
   parse and fingerprint layers; an exact-text hit runs no public
   function, so its cost stays unattributed.  Which hits were
   exact-text hits is decided by an unsharded LRU of the daemon's
   capacity over the answered texts — the daemon's sharded cache
   evicts a little earlier, so a few fingerprint hits may be counted as
   exact-text hits. *)
let replay layers recs =
  let l name = List.find (fun x -> x.name = name) layers in
  let parse_json = l "obs.json.parse" and parse_blif = l "netlist.blif.parse"
  and fingerprint = l "netlist.fingerprint" and cut = l "retiming.cut.maximal"
  and retime = l "hash.synthesis.retime" and emit = l "cert.emit"
  and render_blif = l "netlist.blif.render"
  and render_thm = l "logic.kernel.string_of_thm"
  and render_json = l "obs.json.render" in
  let steps =
    List.map l
      [ "hash.step.embed"; "hash.step.split"; "hash.step.instantiate";
        "hash.step.join"; "hash.step.init" ]
  in
  let cert_bytes = ref [] in
  let miss ~cert blif =
    let c = timed parse_blif (fun () -> Blif.of_string blif) in
    ignore (timed fingerprint (fun () -> Fingerprint.of_circuit c));
    let k = timed cut (fun () -> Cut.maximal c) in
    let budget =
      {
        Engines.Common.deadline = Logic.Clock.now () +. 3600.0;
        max_bdd_nodes = 20_000_000;
        bdd_base = 0;
      }
    in
    if cert then Logic.Kernel.start_recording ();
    let step =
      timed retime (fun () -> Hash.Synthesis.retime ~budget Hash.Embed.Bit_level c k)
    in
    let tm = step.Hash.Synthesis.timings in
    List.iter2 add steps
      Hash.Synthesis.[ tm.t_embed; tm.t_split; tm.t_apply; tm.t_join; tm.t_init ];
    let certificate =
      if not cert then []
      else
        let text =
          timed emit (fun () ->
              match Logic.Kernel.stop_recording () with
              | Error m -> die "replay: recording poisoned: %s" m
              | Ok tr -> (
                  match Cert.emit tr step.theorem with
                  | Ok s -> s
                  | Error m -> die "replay: emission failed: %s" m))
        in
        cert_bytes := String.length text :: !cert_bytes;
        [ ("cert", Obs.Json.Str text) ]
    in
    let blif' = timed render_blif (fun () -> Blif.to_string step.after) in
    let thm = timed render_thm (fun () -> Logic.Kernel.string_of_thm step.theorem) in
    ignore
      (timed render_json (fun () ->
           let counts c =
             Obs.Json.(
               Obj
                 [ ("gates", Int (Circuit.gate_count c));
                   ("flipflops", Int (Circuit.flipflop_count c)) ])
           in
           Obs.Json.to_string
             (Obs.Json.Obj
                ([ ("circuit", counts c); ("retimed", counts step.after);
                   ("blif", Obs.Json.Str blif'); ("theorem", Obs.Json.Str thm) ]
                @ certificate))))
  in
  let lru = ref [] in
  let recent text =
    let present = List.exists (String.equal text) !lru in
    lru :=
      List.filteri
        (fun i _ -> i < cache_capacity)
        (text :: List.filter (fun t -> not (String.equal t text)) !lru);
    present
  in
  (* one request item; [hit] is the daemon's answer ([None]: rejected) *)
  let item ~cert blif hit =
    match hit with
    | Some false ->
        miss ~cert blif;
        ignore (recent blif)
    | Some true ->
        if not (recent blif) then begin
          let c = timed parse_blif (fun () -> Blif.of_string blif) in
          ignore (timed fingerprint (fun () -> Fingerprint.of_circuit c))
        end
    | None -> ()
  in
  let parse line =
    timed parse_json (fun () ->
        match Obs.Json.parse line with
        | j -> Some j
        | exception Obs.Json.Parse_error _ -> None)
  in
  List.iter
    (fun r ->
      match r.body with
      | Lost _ -> ()
      | Own a | Like a -> (
          match (r.item.kind, parse r.item.line) with
          | Batch _, Some (Obs.Json.Obj [ ("batch", Obs.Json.List reqs) ]) -> (
              match Obs.Json.parse a.text with
              | Obs.Json.List answers when List.length answers = List.length reqs ->
                  List.iter2
                    (fun q ans ->
                      Option.iter (fun b -> item ~cert:false b (hit_of ans)) (blif_member q))
                    reqs answers
              | _ | (exception Obs.Json.Parse_error _) -> ())
          | Malformed c, Some j when c = 0 || c = 4 ->
              (* the two classes rejected after the BLIF parse *)
              Option.iter
                (fun b ->
                  ignore
                    (timed parse_blif (fun () ->
                         try Some (Blif.of_string b)
                         with Circuit.Invalid_netlist _ -> None)))
                (blif_member j)
          | (Cold | Same _ | Renamed _), Some j ->
              let hit = Option.bind (tail_json r) hit_of in
              Option.iter (fun b -> item ~cert:r.item.cert b hit) (blif_member j)
          | _ -> ()))
    recs;
  !cert_bytes

let traced recs =
  (* sample buffers exist before the heap is measured, so the retained
     heap is the replay's alone *)
  let cap = List.fold_left (fun a r -> a + 1 + Traffic.items_of r.item) 0 recs in
  let layers =
    List.map
      (fun name -> { name; calls = 0; total = 0.0; samples = Float.Array.make cap 0.0 })
      layer_names
  in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let g0 = Obs.Gcstats.now () and k0 = Engines.Common.kernel_now () in
  let cert_bytes = replay layers recs in
  let g1 = Obs.Gcstats.now () and k1 = Engines.Common.kernel_now () in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  {
    layers;
    lines = List.length recs;
    kern = Obs.kernel_delta ~before:k0 ~after:k1;
    live_nodes_growth = k1.Obs.live_term_nodes - k0.Obs.live_term_nodes;
    gc = Obs.Gcstats.delta ~before:g0 ~after:g1;
    retained_words = float_of_int (live1 - live0);
    cert_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest rank *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let latency_ms r = (r.t1 -. r.t0) *. 1000.0
let answered = List.filter (fun r -> match r.body with Lost _ -> false | _ -> true)
let items_in = List.fold_left (fun a r -> a + Traffic.items_of r.item) 0

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let timed_recs ss = List.concat_map (fun s -> s.recs) ss

(* Latencies pool the sessions; throughput and CPU are totals over
   totals; set-up time and peak RSS are the median session's. *)
let end_to_end ss =
  let recs = timed_recs ss in
  let lat = sorted (List.map latency_ms (answered recs)) in
  let items = float_of_int (items_in recs) in
  let median f = percentile (sorted (List.map f ss)) 0.5 in
  [
    ("setup_s", median (fun s -> s.setup_s), "s");
    ("latency_p50_ms", percentile lat 0.50, "ms");
    ("latency_p95_ms", percentile lat 0.95, "ms");
    ("latency_p99_ms", percentile lat 0.99, "ms");
    ("throughput_rps", ratio items (sum (fun s -> s.wall_s) ss), "1/s");
    ("server_peak_rss_mb", median (fun s -> float_of_int s.rss_kb /. 1024.0), "MiB");
    ("server_cpu_ms_per_req", ratio (1000.0 *. sum (fun s -> s.cpu_s) ss) items, "ms");
  ]

(* Protocol fields of the timed phases: [wall_s] and the cache counters
   every ok answer carries. *)
let serve_metrics ss =
  let tails recs = List.filter_map (fun r -> Option.map (fun j -> (r, j)) (tail_json r)) recs in
  let number j =
    match j with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  let counter name j =
    number (Option.bind (Obs.Json.member "cache" j) (Obs.Json.member name))
  in
  let highest name l = List.fold_left (fun m (_, j) -> Float.max m (counter name j)) 0.0 l in
  (* what each daemon's counters gained during its timed phase *)
  let delta name =
    sum (fun s -> highest name (tails s.recs) -. highest name (tails s.setup_recs)) ss
  in
  let timed_tails = tails (timed_recs ss) in
  let server = List.map (fun (_, j) -> 1000.0 *. number (Obs.Json.member "wall_s" j)) timed_tails in
  let transport =
    List.map (fun (r, j) -> latency_ms r -. (1000.0 *. number (Obs.Json.member "wall_s" j))) timed_tails
  in
  let items = float_of_int (items_in (timed_recs ss)) in
  let rejected =
    List.length
      (List.filter
         (fun r ->
           r.tail = "" && (match r.body with Lost _ -> false | _ -> true)
           && match r.item.kind with Batch _ -> false | _ -> true)
         (timed_recs ss))
  in
  let hits = delta "hits" and misses = delta "misses" in
  [
    ("serve.server_ms_mean", mean server, "ms");
    ("serve.transport_ms_mean", mean transport, "ms");
    ("serve.cache.hit_ratio", ratio hits (hits +. misses), "ratio");
    ("serve.cache.evictions_per_kreq", 1000.0 *. ratio (delta "evictions") items, "1/kreq");
    ("serve.cache.insertions_per_kreq", 1000.0 *. ratio (delta "insertions") items, "1/kreq");
    ("serve.rejections_per_kreq", 1000.0 *. ratio (float_of_int rejected) items, "1/kreq");
  ]

let per_layer (t : trace) ~(check : verdict) ~(replayed : record list) =
  let lines = float_of_int t.lines in
  let e2e_mean = mean (List.map latency_ms (answered replayed)) in
  (* the client's certificate replays come from the oracle pass *)
  let cert_check =
    List.filter_map
      (fun r ->
        match r.body with
        | Own a -> Hashtbl.find_opt check.replays a.serial
        | Like _ | Lost _ -> None)
      replayed
  in
  let layer_rows (name, calls, total, samples) =
    let per_req_ms = 1000.0 *. total /. lines in
    [
      (name ^ ".calls_per_req", float_of_int calls /. lines, "1/req");
      (name ^ ".mean_us", 1e6 *. ratio total (float_of_int calls), "us");
      (name ^ ".p50_us", 1e6 *. percentile samples 0.5, "us");
      (name ^ ".share", ratio per_req_ms e2e_mean, "ratio");
    ]
  in
  let rows =
    List.map
      (fun l ->
        if l.name = "cert.check" then
          ("cert.check", List.length cert_check, List.fold_left ( +. ) 0.0 cert_check,
           sorted cert_check)
        else
          (l.name, l.calls, l.total,
           sorted (List.init l.calls (Float.Array.get l.samples))))
      t.layers
  in
  let covered_ms =
    List.fold_left
      (fun a (name, _, total, _) ->
        if List.mem name covered then a +. (1000.0 *. total /. lines) else a)
      0.0 rows
  in
  let k = t.kern and g = t.gc in
  let hit_rate h m = ratio (float_of_int h) (float_of_int (h + m)) in
  List.concat_map layer_rows rows
  @ [
      ("layers.coverage", ratio covered_ms e2e_mean, "ratio");
      ("serve.unattributed_ms_mean", e2e_mean -. covered_ms, "ms");
      ("logic.kernel.rules_per_req", float_of_int k.Obs.rule_apps /. lines, "1/req");
      ("logic.term.intern_hit_rate", hit_rate k.term_intern_hits k.term_intern_misses, "ratio");
      ("logic.conv.memo_hit_rate", hit_rate k.conv_memo_hits k.conv_memo_misses, "ratio");
      ("logic.term.live_nodes_growth_per_req",
        float_of_int t.live_nodes_growth /. lines, "1/req");
      ("gc.alloc_kwords_per_req",
        (g.Obs.Gcstats.minor_words +. g.major_words -. g.promoted_words) /. 1000.0 /. lines,
        "kwords/req");
      ("gc.major_collections_per_kreq",
        1000.0 *. float_of_int g.major_collections /. lines, "1/kreq");
      ("gc.retained_kb_per_req", t.retained_words *. 8.0 /. 1024.0 /. lines, "kB/req");
      ("cert.bytes_mean", mean (List.map float_of_int t.cert_bytes), "B");
    ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and the result                                        *)
(* ------------------------------------------------------------------ *)

let declared () =
  let j =
    try Obs.Json.of_file "BENCHMARK.json"
    with Sys_error m | Obs.Json.Parse_error m -> die "BENCHMARK.json: %s" m
  in
  let str field m =
    match Obs.Json.member field m with Some (Obs.Json.Str s) -> s | _ -> ""
  in
  let list key =
    match Obs.Json.member key j with
    | Some (Obs.Json.List l) -> List.map (fun m -> (str "name" m, str "unit" m)) l
    | _ -> die "BENCHMARK.json: no %s list" key
  in
  (list "workloads", list "end_to_end", list "per_layer")

(* Exactly the declared metrics, in declared order, with their units. *)
let select decl computed =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) computed with
      | Some (_, v, u) when u = unit -> (name, v, u)
      | Some (_, _, u) -> die "metric %s: computed in %s, declared in %s" name u unit
      | None -> die "metric %s is declared but not computed" name)
    decl

let metrics_json l =
  Obs.Json.Obj
    (List.map
       (fun (n, v, u) ->
         (n, Obs.Json.(Obj [ ("value", Float v); ("unit", Str u) ])))
       l)

let host () =
  let cpu =
    match
      List.find_opt
        (String.starts_with ~prefix:"model name")
        (String.split_on_char '\n' (read_file "/proc/cpuinfo"))
    with
    | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
    | None | (exception Sys_error _) -> "unknown"
  in
  let t = Unix.gmtime (Unix.time ()) in
  Obs.Json.(
    Obj
      [
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("cpu", Str cpu);
        ( "date",
          Str
            (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900)
               (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min t.tm_sec) );
        ("ocaml", Str Sys.ocaml_version);
      ])

let append_run path run =
  let runs =
    match Obs.Json.of_file path with
    | j -> (
        match Obs.Json.member "runs" j with Some (Obs.Json.List l) -> l | _ -> [])
    | exception (Sys_error _ | Obs.Json.Parse_error _) -> []
  in
  Obs.Json.to_file path (Obs.Json.Obj [ ("runs", Obs.Json.List (runs @ [ run ])) ])

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "BENCH_e2e.json" in
  let usage =
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  a workload of BENCHMARK.json");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  run length on the baseline machine");
      ("--trace", Arg.Set_int trace, "0|1  print the per-layer metrics");
      ("--out", Arg.Set_string out, "FILE  run-set file to append to");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload Traffic.workloads with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then die "%s" usage;
  let decl_workloads, decl_e2e, decl_layers = declared () in
  if not (List.mem_assoc !workload decl_workloads) then
    die "workload %s is not declared in BENCHMARK.json" !workload;
  if not (Sys.file_exists daemon_exe) then
    die "%s is missing: build it first (bench/e2e/run.sh does)" daemon_exe;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cleanup () = List.iter stop !live in
  at_exit cleanup;
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             cleanup ();
             exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  (* [--seconds] fixes the work: the lines the baseline machine answers
     in that time, split evenly over the sessions *)
  let per_session =
    max 1
      (int_of_float
         (Traffic.lines_per_s w *. float_of_int !seconds /. float_of_int sessions))
  in
  let tr = Traffic.make w ~seed:!seed ~lines:(sessions * per_session) in
  let cap = 3.0 *. float_of_int !seconds /. float_of_int sessions in
  let rec run k =
    if k = sessions then []
    else
      let s =
        session tr k ~clients:(Traffic.clients w) ~first:(k * per_session)
          ~lines:per_session ~cap
      in
      s :: run (k + 1)
  in
  let ss = run 0 in
  let capped = List.exists (fun s -> s.capped) ss in
  if capped then
    prerr_endline "e2e: warning: a session overran 3x its nominal time and stopped early";
  (* the last daemon's lines, set-up included, in send order *)
  let replayed =
    let last = List.nth ss (sessions - 1) in
    List.sort (fun a b -> compare a.t0 b.t0) (last.setup_recs @ last.recs)
  in
  let t = if !trace = 1 then Some (traced replayed) else None in
  let v = check tr (List.concat_map (fun s -> s.setup_recs @ s.recs) ss) in
  let e2e = end_to_end ss in
  let layers =
    match t with
    | None -> []
    | Some t -> serve_metrics ss @ per_layer t ~check:v ~replayed
  in
  let shown = select (if !trace = 1 then decl_layers else decl_e2e) (e2e @ layers) in
  List.iter (fun m -> prerr_endline ("e2e: FAIL " ^ m)) v.failures;
  List.iter (fun (n, x, u) -> Printf.printf "%-45s %14.4f %s\n" n x u) shown;
  let result =
    Obs.Json.(
      Obj
        [
          ("correct", Bool (v.failed = 0));
          ("attempted", Int v.attempted);
          ("failed", Int v.failed);
          ("metrics", metrics_json shown);
        ])
  in
  append_run !out
    Obs.Json.(
      Obj
        [
          ("workload", Str !workload);
          ("seed", Int !seed);
          ("seconds", Int !seconds);
          ("trace", Bool (!trace = 1));
          ("host", host ());
          ("correct", Bool (v.failed = 0));
          ("attempted", Int v.attempted);
          ("failed", Int v.failed);
          ("failures", List (List.map (fun m -> Str m) v.failures));
          ("lines", Int (List.length (timed_recs ss)));
          ("capped", Bool capped);
          ("metrics", metrics_json (e2e @ layers));
        ]);
  print_endline (Obs.Json.to_string result);
  if v.failed > 0 then exit 1
