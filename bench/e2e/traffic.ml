(* Seeded request streams for the service benchmark.  Every line the
   daemon receives comes from here, and every stream is a pure function
   of (workload, seed): the same seed gives byte-identical lines. *)

type workload = Cold_iwls | Cold_certified | Warm_renamed | Mixed_churn

let workloads =
  [
    ("cold_iwls", Cold_iwls);
    ("cold_certified", Cold_certified);
    ("warm_renamed", Warm_renamed);
    ("mixed_churn", Mixed_churn);
  ]

let clients = function
  | Cold_iwls | Cold_certified -> 1
  | Warm_renamed | Mixed_churn -> 2

(* What the oracle expects of the answer, and which cache level the
   line is built to reach. *)
type kind =
  | Cold  (** a circuit no earlier line shares: misses every level *)
  | Same of int  (** the byte-identical text of base [b] *)
  | Renamed of int  (** a spelling of base [b] no earlier line used *)
  | Batch of int array  (** one [Same]-shaped item per base *)
  | Malformed of int  (** rejection class, see {!malformed_code} *)

type item = {
  id : int;
  kind : kind;
  line : string;  (** the request line, without its newline *)
  blif : string;  (** the request circuit ([""] for batches and malformed) *)
  echo : bool;
  cert : bool;
}

type t = {
  bases : string array;  (** base BLIF texts ([Same]/[Renamed]/[Batch]) *)
  probe : item;  (** the set-up health check: a certified request *)
  warmup : item array;  (** untimed, sent after the probe *)
  items : item array;
      (** the timed stream: line [i] is [items.(i mod length)]; only the
          spelling pool of [warm_renamed] is shorter than a run *)
}

(* Timed lines per second of run length, measured on the baseline
   machine (bench/e2e/baseline.json) and frozen: a run sends a fixed
   amount of work, so memory and percentiles compare over the same
   requests whatever the machine's speed at the time. *)
let lines_per_s = function
  | Cold_iwls -> 21.0
  | Cold_certified -> 16.3
  | Warm_renamed -> 400.0
  | Mixed_churn -> 190.0

(* ------------------------------------------------------------------ *)
(* Circuits                                                             *)
(* ------------------------------------------------------------------ *)

(* The size profiles of the paper's Table II, read off the suite's own
   circuits so the two cannot drift. *)
type profile = { pname : string; ffs : int; gates : int; ins : int; outs : int }

let profile name =
  let c = Lazy.force (Iwls.find name).Iwls.circuit in
  {
    pname = name;
    ffs = Circuit.flipflop_count c;
    gates = Circuit.gate_count c;
    ins = Circuit.n_inputs c;
    outs = Array.length c.Circuit.outputs;
  }

let table2 =
  lazy
    (Array.map profile
       [| "s298"; "s344"; "s420"; "s526"; "s641"; "s838"; "s1423" |])

let small_profiles = lazy (Array.sub (Lazy.force table2) 0 4)

let synth rng p =
  Iwls.synth ~name:p.pname ~ffs:p.ffs ~gates:p.gates ~ins:p.ins ~outs:p.outs
    ~seed:(Random.State.bits rng)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [n] structurally distinct circuits, drawn in blocks that hold each
   profile exactly once (in seeded order), so every seed sends the same
   size mix and the latency percentiles compare across seeds.  [seen]
   holds the fingerprint digests already used by the caller: a draw
   that repeats one (isomorphic to an earlier circuit) is redrawn. *)
let distinct_circuits rng profiles ~seen n =
  let block = Array.copy profiles in
  let out = ref [] in
  let k = ref 0 in
  while !k < n do
    if !k mod Array.length block = 0 then shuffle rng block;
    let p = block.(!k mod Array.length block) in
    let c = synth rng p in
    let d = Fingerprint.digest (Fingerprint.of_circuit c) in
    if not (Hashtbl.mem seen d) then begin
      Hashtbl.replace seen d ();
      out := Blif.to_string c :: !out;
      incr k
    end
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Spellings                                                            *)
(* ------------------------------------------------------------------ *)

let is_internal tok =
  let lt = String.length tok in
  let rec digits i =
    i = lt || (match tok.[i] with '0' .. '9' -> digits (i + 1) | _ -> false)
  in
  let with_digits p =
    lt > String.length p
    && String.starts_with ~prefix:p tok
    && digits (String.length p)
  in
  with_digits "pi" || with_digits "lq" || with_digits "n"

(* A fresh spelling of an emitted BLIF text: the model and every
   internal net ([pi]/[lq]/[n] namespace of {!Blif.to_string}) take the
   prefix [tag], and the [.names] blocks are shuffled.  Output names
   and the declaration order of inputs, outputs and latches are kept,
   so the spelling is the same circuit port for port: same fingerprint,
   same simulation, different bytes. *)
let respell rng ~tag blif =
  let rename_line line =
    match String.split_on_char ' ' line with
    | ".model" :: _ -> ".model m" ^ tag
    | toks ->
        String.concat " "
          (List.map (fun t -> if is_internal t then tag ^ t else t) toks)
  in
  let lines = List.map rename_line (String.split_on_char '\n' blif) in
  let is_names l = String.length l > 7 && String.sub l 0 7 = ".names " in
  (* header, then one block per [.names] (its line plus table rows),
     then [.end] and anything after *)
  let rec header acc = function
    | l :: rest when not (is_names l || l = ".end") -> header (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec blocks acc cur = function
    | l :: rest when is_names l ->
        let acc = if cur = [] then acc else List.rev cur :: acc in
        blocks acc [ l ] rest
    | l :: rest when l <> ".end" && cur <> [] -> blocks acc (l :: cur) rest
    | rest ->
        let acc = if cur = [] then acc else List.rev cur :: acc in
        (Array.of_list (List.rev acc), rest)
  in
  let head, rest = header [] lines in
  let bs, tail = blocks [] [] rest in
  shuffle rng bs;
  String.concat "\n" (head @ List.concat (Array.to_list bs) @ tail)

(* A short seeded prefix plus a serial number: unique within a stream
   by construction, different across seeds. *)
let tagger rng =
  let stem =
    String.init 4 (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))
  in
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s%d_" stem !n

(* ------------------------------------------------------------------ *)
(* Lines                                                                *)
(* ------------------------------------------------------------------ *)

let request ~id ?(echo = true) ?(cert = false) blif =
  Obs.Json.(
    Obj
      ([ ("id", Int id); ("blif", Str blif) ]
      @ (if echo then [] else [ ("echo", Bool false) ])
      @ if cert then [ ("cert", Bool true) ] else []))

let item ~id ?(echo = true) ?(cert = false) kind blif =
  {
    id;
    kind;
    line = Obs.Json.to_string (request ~id ~echo ~cert blif);
    blif;
    echo;
    cert;
  }

(* The six rejection classes of bench/serve.ml, each with the typed code
   the daemon must answer. *)
let malformed_classes = 6

let malformed_code = function
  | 0 -> "invalid_netlist"
  | 4 -> "invalid_cut"
  | _ -> "bad_request"

let malformed_line ~id cls blif =
  let open Obs.Json in
  match cls with
  | 0 -> to_string (Obj [ ("id", Int id); ("blif", Str "not blif at all") ])
  | 1 -> "this is not json {"
  | 2 -> to_string (request ~id blif) ^ "trailing garbage"
  | 3 -> to_string (Obj [ ("id", Int id) ])
  | 4 ->
      to_string
        (Obj [ ("id", Int id); ("blif", Str blif); ("cut", List [ Int 99999 ]) ])
  | _ ->
      to_string
        (Obj [ ("id", Int id); ("blif", Str blif); ("deadline_s", Str "soon") ])

let batch_size = 8

let batch_line ~id bases bs =
  Obs.Json.(
    to_string
      (Obj
         [
           ( "batch",
             List
               (Array.to_list
                  (Array.mapi
                     (fun k b -> request ~id:(id + k) ~echo:false bases.(b))
                     bs)) );
         ]))

(* Zipf(s) over ranks 0..n-1 by inversion of the cumulative weights. *)
let zipf_sampler ~s n =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cum.(k) <- !acc
  done;
  fun rng ->
    let u = Random.State.float rng !acc in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (n - 1)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let renamed_pool = 512

(* Every workload's daemon is probed with the same small certified
   request, so each run crosses the certificate layers at least once. *)
let probe = lazy (item ~id:0 ~cert:true Cold (Blif.to_string (Fig2.gate 4)))

let cold ~seed ~lines ~cert =
  let rng = Random.State.make [| seed; (if cert then 2 else 1) |] in
  let seen = Hashtbl.create 1024 in
  let probe = Lazy.force probe in
  Hashtbl.replace seen
    (Fingerprint.digest (Fingerprint.of_circuit (Blif.of_string probe.blif)))
    ();
  (* warm-up from the smallest profile only, so set-up time does not
     depend on which sizes the seed draws *)
  let warm = distinct_circuits rng (Array.sub (Lazy.force table2) 0 1) ~seen 3 in
  let stream = distinct_circuits rng (Lazy.force table2) ~seen lines in
  {
    bases = [||];
    probe;
    warmup = Array.mapi (fun k b -> item ~id:(1 + k) ~cert Cold b) warm;
    items = Array.mapi (fun k b -> item ~id:(100 + k) ~cert Cold b) stream;
  }

(* 16 bases (a quarter of the daemon's 64-entry cache) are warmed; the
   timed stream is a pool of 512 spellings sent in turn.  Between two
   sends of one spelling the whole pool passes through the exact-text
   cache, eight times its 64 entries, so every line misses that level
   and hits the fingerprint level. *)
let warm_renamed ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let seen = Hashtbl.create 64 in
  let probe = Lazy.force probe in
  let bases = distinct_circuits rng (Lazy.force table2) ~seen 16 in
  let tag = tagger rng in
  let items =
    Array.init renamed_pool (fun k ->
        let b = k mod Array.length bases in
        item ~id:(100 + k) (Renamed b) (respell rng ~tag:(tag ()) bases.(b)))
  in
  {
    bases;
    probe;
    warmup = Array.mapi (fun b text -> item ~id:(1 + b) (Same b) text) bases;
    items;
  }

(* 256 small circuits (four times the cache), popularity Zipf(1.1) in
   generation order.  Lines: 70% byte-identical terse, 20% a fresh
   spelling with the proof echoed, 5% batches of 8 terse items, 5%
   malformed. *)
let mixed_churn ~seed ~lines =
  let rng = Random.State.make [| seed; 4 |] in
  let seen = Hashtbl.create 512 in
  let probe = Lazy.force probe in
  let bases = distinct_circuits rng (Lazy.force small_profiles) ~seen 256 in
  let draw = zipf_sampler ~s:1.1 (Array.length bases) in
  let tag = tagger rng in
  let id = ref 100 in
  let next_id k =
    let i = !id in
    id := !id + k;
    i
  in
  let items =
    Array.init lines (fun _ ->
        let r = Random.State.int rng 100 in
        if r < 70 then
          let b = draw rng in
          item ~id:(next_id 1) ~echo:false (Same b) bases.(b)
        else if r < 90 then
          let b = draw rng in
          item ~id:(next_id 1) (Renamed b)
            (respell rng ~tag:(tag ()) bases.(b))
        else if r < 95 then
          let bs = Array.init batch_size (fun _ -> draw rng) in
          let id = next_id batch_size in
          {
            id;
            kind = Batch bs;
            line = batch_line ~id bases bs;
            blif = "";
            echo = false;
            cert = false;
          }
        else
          let cls = Random.State.int rng malformed_classes in
          let id = next_id 1 in
          {
            id;
            kind = Malformed cls;
            line = malformed_line ~id cls bases.(draw rng);
            blif = "";
            echo = true;
            cert = false;
          })
  in
  (* warm the 32 most popular circuits: the cache starts in the state a
     long-running daemon would be in, not empty *)
  {
    bases;
    probe;
    warmup =
      Array.init 32 (fun b -> item ~id:(1 + b) ~echo:false (Same b) bases.(b));
    items;
  }

(* [lines]: the number of timed lines the run will send. *)
let make w ~seed ~lines =
  match w with
  | Cold_iwls -> cold ~seed ~lines ~cert:false
  | Cold_certified -> cold ~seed ~lines ~cert:true
  | Warm_renamed -> warm_renamed ~seed
  | Mixed_churn -> mixed_churn ~seed ~lines

(* Items a line carries (a batch line carries one per element). *)
let items_of it = match it.kind with Batch bs -> Array.length bs | _ -> 1
