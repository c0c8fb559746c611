(* The retiming daemon: protocol behaviour of [Serve.handle_line] (hits,
   misses, eviction, every rejection class, batches), a channel smoke
   test with a live pool behind a pipe pair, live listeners (Unix and
   TCP) with concurrent clients and a clean stop, and the two throughput
   ratios the cache and batching must deliver. *)

module J = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_server ?(jobs = 1) ?(cache_capacity = 64) ?shards () =
  Serve.create ~jobs ~cache_capacity ?shards ~default_deadline_s:60.0 ()

let request ?(extra = []) id blif =
  J.to_string (J.Obj ([ ("id", J.Int id); ("blif", J.Str blif) ] @ extra))

let blif_of n = Blif.to_string (Fig2.gate n)

let parse resp =
  match J.parse resp with
  | j -> j
  | exception J.Parse_error msg ->
      Alcotest.fail (Printf.sprintf "unparseable response (%s): %s" msg resp)

let status j =
  match J.member "status" j with
  | Some (J.Str s) -> s
  | _ -> Alcotest.fail "response without status"

let error_code j =
  match Option.bind (J.member "error" j) (J.member "code") with
  | Some (J.Str c) -> c
  | _ -> Alcotest.fail "error response without code"

let cache_field name j =
  match Option.bind (J.member "cache" j) (J.member name) with
  | Some v -> v
  | None -> Alcotest.fail ("ok response without cache." ^ name)

let cache_bool name j =
  match cache_field name j with
  | J.Bool b -> b
  | _ -> Alcotest.fail ("cache." ^ name ^ " is not a bool")

let cache_int name j =
  match cache_field name j with
  | J.Int i -> i
  | _ -> Alcotest.fail ("cache." ^ name ^ " is not an int")

let expect_error srv line code =
  let j = parse (Serve.handle_line srv line) in
  Alcotest.(check string) ("status of " ^ line) "error" (status j);
  Alcotest.(check string) ("code of " ^ line) code (error_code j)

(* --- cache behaviour ------------------------------------------------ *)

let test_miss_then_hit () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let b = blif_of 3 in
  let r1 = parse (Serve.handle_line srv (request 1 b)) in
  Alcotest.(check string) "first ok" "ok" (status r1);
  check "first is a miss" false (cache_bool "hit" r1);
  check_int "one miss" 1 (cache_int "misses" r1);
  let r2 = parse (Serve.handle_line srv (request 2 b)) in
  check "identical text hits" true (cache_bool "hit" r2);
  check_int "one hit" 1 (cache_int "hits" r2);
  (* same circuit, different spelling: only the fingerprint can match *)
  let renamed =
    String.concat "\n"
      (List.map
         (fun l ->
           if l = ".model fig2_rt_3_bits" then ".model other_name" else l)
         (String.split_on_char '\n' b))
  in
  let r3 = parse (Serve.handle_line srv (request 3 renamed)) in
  check "renamed model hits via fingerprint" true (cache_bool "hit" r3);
  check_int "two hits" 2 (cache_int "hits" r3);
  (* the retimed payloads agree *)
  Alcotest.(check bool) "same blif payload" true
    (J.member "blif" r1 = J.member "blif" r3)

let test_levels_distinct () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let b = blif_of 2 in
  let bit = request ~extra:[ ("level", J.Str "bit") ] 1 b in
  let rt = request ~extra:[ ("level", J.Str "rt") ] 2 b in
  let r1 = parse (Serve.handle_line srv bit) in
  Alcotest.(check string) "bit ok" "ok" (status r1);
  let r2 = parse (Serve.handle_line srv rt) in
  Alcotest.(check string) "rt ok" "ok" (status r2);
  check "rt does not hit the bit entry" false (cache_bool "hit" r2)

let test_eviction () =
  (* one shard: capacity-2 LRU with strict global recency order (with
     several shards the keys would spread and never reach capacity) *)
  let srv = mk_server ~cache_capacity:2 ~shards:1 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  List.iter
    (fun n ->
      let j = parse (Serve.handle_line srv (request n (blif_of n))) in
      Alcotest.(check string) "ok" "ok" (status j))
    [ 1; 2; 3 ];
  let j = parse (Serve.handle_line srv (request 4 (blif_of 3))) in
  check "newest entry still cached" true (cache_bool "hit" j);
  check "an eviction was counted" true (cache_int "evictions" j >= 1);
  (* circuit 1 was evicted: re-requesting it is a miss again *)
  let j = parse (Serve.handle_line srv (request 5 (blif_of 1))) in
  check "evicted entry misses" false (cache_bool "hit" j)

let test_echo_elision () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let b = blif_of 3 in
  let terse = request ~extra:[ ("echo", J.Bool false) ] 1 b in
  (* echo:false elides blif+theorem on both the miss and the hit path,
     everything else stays *)
  List.iter
    (fun (label, hit) ->
      let j = parse (Serve.handle_line srv terse) in
      Alcotest.(check string) (label ^ " ok") "ok" (status j);
      check (label ^ " hit flag") hit (cache_bool "hit" j);
      check (label ^ " has no blif") true (J.member "blif" j = None);
      check (label ^ " has no theorem") true (J.member "theorem" j = None);
      check (label ^ " keeps circuit") true (J.member "circuit" j <> None);
      check (label ^ " keeps retimed") true (J.member "retimed" j <> None);
      check (label ^ " keeps digest") true
        (match cache_field "digest" j with J.Str _ -> true | _ -> false);
      check (label ^ " echoes id") true (J.member "id" j = Some (J.Int 1)))
    [ ("miss", false); ("hit", true) ];
  (* echo:true (explicit and default) still carries the payload, and
     both spellings hit the same cache entry *)
  List.iter
    (fun line ->
      let j = parse (Serve.handle_line srv line) in
      check "verbose hits" true (cache_bool "hit" j);
      check "verbose has blif" true (J.member "blif" j <> None);
      check "verbose has theorem" true (J.member "theorem" j <> None))
    [ request ~extra:[ ("echo", J.Bool true) ] 2 b; request 3 b ];
  (* per-item in a batch *)
  let batch =
    J.to_string
      (J.Obj
         [
           ( "batch",
             J.List
               [
                 J.Obj [ ("id", J.Int 10); ("blif", J.Str b) ];
                 J.Obj
                   [
                     ("id", J.Int 11);
                     ("blif", J.Str b);
                     ("echo", J.Bool false);
                   ];
               ] );
         ])
  in
  (match parse (Serve.handle_line srv batch) with
  | J.List [ verbose; terse_item ] ->
      check "batch verbose item has blif" true (J.member "blif" verbose <> None);
      check "batch terse item has no blif" true
        (J.member "blif" terse_item = None);
      check "batch terse item ok" true (status terse_item = "ok")
  | j -> Alcotest.fail ("batch response is not a 2-array: " ^ J.to_string j));
  (* a non-boolean echo is a protocol error *)
  expect_error srv
    (request ~extra:[ ("echo", J.Int 1) ] 4 b)
    "bad_request"

let test_explicit_cut_bypasses_cache () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let c = Fig2.gate 2 in
  let b = Blif.to_string c in
  let cut = (Cut.maximal c).Cut.f_gates in
  let extra = [ ("cut", J.List (List.map (fun g -> J.Int g) cut)) ] in
  let r1 = parse (Serve.handle_line srv (request ~extra 1 b)) in
  Alcotest.(check string) "explicit cut ok" "ok" (status r1);
  check "explicit cut not cacheable" false (cache_bool "cacheable" r1);
  let r2 = parse (Serve.handle_line srv (request ~extra 2 b)) in
  check "explicit cut never hits" false (cache_bool "hit" r2)

(* --- rejections ----------------------------------------------------- *)

let test_rejections () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  expect_error srv "this is not json {" "bad_request";
  expect_error srv "{\"id\":1}" "bad_request";
  expect_error srv (request 2 (blif_of 2) ^ "garbage") "bad_request";
  expect_error srv
    (request ~extra:[ ("level", J.Str "gate") ] 3 (blif_of 2))
    "bad_request";
  expect_error srv
    (request ~extra:[ ("deadline_s", J.Str "soon") ] 4 (blif_of 2))
    "bad_request";
  expect_error srv
    (request ~extra:[ ("deadline_s", J.Int 0) ] 5 (blif_of 2))
    "bad_request";
  expect_error srv (request 6 "not blif at all") "invalid_netlist";
  expect_error srv
    (request ~extra:[ ("cut", J.List [ J.Int 99999 ]) ] 7 (blif_of 2))
    "invalid_cut"

let test_tiny_deadline () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  (* valid but unmeetable: the pool cancels the task at dispatch *)
  let j =
    parse
      (Serve.handle_line srv
         (request ~extra:[ ("deadline_s", J.Float 1e-9) ] 1 (blif_of 8)))
  in
  Alcotest.(check string) "status" "error" (status j);
  Alcotest.(check string) "code" "deadline_exceeded" (error_code j)

let test_shutdown_rejects () =
  let srv = mk_server () in
  Serve.shutdown srv;
  let j = parse (Serve.handle_line srv (request 1 (blif_of 2))) in
  Alcotest.(check string) "status" "error" (status j);
  Alcotest.(check string) "code" "shutdown" (error_code j)

(* Past the exact-text cache every request needs a worker, and the
   deadline counts the wait for one: an L2 hit or a malformed netlist
   whose deadline passes before a worker picks it up answers
   deadline_exceeded, while an exact-text repeat, answered on the
   connection thread, needs no worker and meets any deadline. *)
let test_tiny_deadline_front_door () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let b = blif_of 2 in
  Alcotest.(check string) "warm-up ok" "ok"
    (status (parse (Serve.handle_line srv (request 1 b))));
  let tiny = [ ("deadline_s", J.Float 1e-9) ] in
  let j = parse (Serve.handle_line srv (request ~extra:tiny 2 b)) in
  check "exact-text repeat still hits" true (cache_bool "hit" j);
  expect_error srv
    (request ~extra:tiny 3 (Test_fingerprint.rename_internal "d" b))
    "deadline_exceeded";
  expect_error srv (request ~extra:tiny 4 "not blif at all")
    "deadline_exceeded"

(* After the pool shuts down, the connection thread still answers what
   it owns (exact-text repeats); a respelling needs a worker. *)
let test_shutdown_keeps_l1 () =
  List.iter
    (fun jobs ->
      let srv = mk_server ~jobs () in
      let b = blif_of 2 in
      Alcotest.(check string) "warm-up ok" "ok"
        (status (parse (Serve.handle_line srv (request 1 b))));
      Serve.shutdown srv;
      let j = parse (Serve.handle_line srv (request 2 b)) in
      Alcotest.(check string) "exact-text repeat ok" "ok" (status j);
      check "exact-text repeat hits" true (cache_bool "hit" j);
      expect_error srv
        (request 3 (Test_fingerprint.rename_internal "s" b))
        "shutdown")
    [ 1; 2 ]

(* Each [wall_s] value zeroed: the only bytes of a response that depend
   on timing. *)
let mask_wall s =
  let key = "\"wall_s\":" in
  let n = String.length s and k = String.length key in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub s !i k = key then begin
      Buffer.add_string buf key;
      Buffer.add_char buf '0';
      i := !i + k;
      while
        !i < n
        && match s.[!i] with '0' .. '9' | '.' | 'e' | '-' -> true | _ -> false
      do
        incr i
      done
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* A fingerprint hit answered by a worker domain reads byte for byte
   like the same line answered inline. *)
let test_worker_hit_identical () =
  let b = blif_of 3 in
  let lines =
    [
      request 1 b;
      request 2 (Test_fingerprint.rename_internal "w" b);
      request ~extra:[ ("echo", J.Bool false) ] 3
        (Test_fingerprint.rename_internal "v" b);
      request 4 "not blif at all";
    ]
  in
  let answers jobs =
    let srv = mk_server ~jobs () in
    Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
    List.map (fun line -> mask_wall (Serve.handle_line srv line)) lines
  in
  let inline = answers 1 and pooled = answers 2 in
  check "respelling hits L2" true
    (cache_bool "hit" (parse (List.nth pooled 1)));
  Alcotest.(check (list string)) "jobs:2 answers as jobs:1" inline pooled

(* --- channel smoke test --------------------------------------------- *)

let test_serve_channel () =
  let srv = mk_server ~jobs:2 () in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let d =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Serve.serve_channel srv ic oc;
        flush oc;
        Unix.close resp_w)
  in
  let oc = Unix.out_channel_of_descr req_w in
  let b = blif_of 2 in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    [ request 1 b; request 2 b; "broken json"; request 3 b ];
  close_out oc;
  Domain.join d;
  Serve.shutdown srv;
  let ic = Unix.in_channel_of_descr resp_r in
  let responses = ref [] in
  (try
     while true do
       responses := input_line ic :: !responses
     done
   with End_of_file -> ());
  close_in ic;
  let responses = List.rev_map parse !responses in
  check_int "four responses" 4 (List.length responses);
  (* responses come back in request order *)
  List.iteri
    (fun i j ->
      match (i, J.member "id" j) with
      | 0, Some (J.Int 1) | 1, Some (J.Int 2) | 3, Some (J.Int 3) -> ()
      | 2, None -> ()  (* the broken line carries no id *)
      | _ -> Alcotest.fail "responses out of order")
    responses;
  match responses with
  | [ a; b'; c; d' ] ->
      Alcotest.(check string) "r1" "ok" (status a);
      (* r2 and r4 duplicate r1, but they pipeline: whether they hit
         depends on whether r1's insert has landed, so only the status
         and cacheability are deterministic here *)
      Alcotest.(check string) "r2" "ok" (status b');
      check "r2 cacheable" true (cache_bool "cacheable" b');
      Alcotest.(check string) "r3" "error" (status c);
      Alcotest.(check string) "r3 code" "bad_request" (error_code c);
      Alcotest.(check string) "r4" "ok" (status d')
  | _ -> Alcotest.fail "unreachable"

(* --- batching ------------------------------------------------------- *)

let test_batch_order_and_isolation () =
  let srv = mk_server ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let b2 = blif_of 2 and b3 = blif_of 3 in
  let item ?(extra = []) id blif =
    J.Obj ([ ("id", J.Int id); ("blif", J.Str blif) ] @ extra)
  in
  let batch =
    J.to_string
      (J.Obj
         [
           ( "batch",
             J.List
               [
                 item 1 b2;
                 J.Obj [ ("id", J.Int 2) ] (* no blif *);
                 item 3 b3;
                 item 4 "not blif at all";
                 item 5 b2 (* duplicate of item 1 *);
               ] );
         ])
  in
  let j = parse (Serve.handle_line srv batch) in
  let items =
    match j with
    | J.List items -> items
    | _ -> Alcotest.fail "batch response is not a JSON array"
  in
  check_int "five responses" 5 (List.length items);
  List.iteri
    (fun i item ->
      match (i, J.member "id" item) with
      | (0, Some (J.Int 1) | 2, Some (J.Int 3) | 4, Some (J.Int 5)) ->
          Alcotest.(check string)
            (Printf.sprintf "item %d ok" i)
            "ok" (status item)
      | 1, Some (J.Int 2) ->
          Alcotest.(check string) "missing blif isolated" "bad_request"
            (error_code item)
      | 3, Some (J.Int 4) ->
          Alcotest.(check string) "bad netlist isolated" "invalid_netlist"
            (error_code item)
      | _ -> Alcotest.fail "batch responses out of order")
    items;
  (* batch items populate the shared cache like single requests *)
  let r = parse (Serve.handle_line srv (request 9 b3)) in
  check "batch populated the cache" true (cache_bool "hit" r)

let test_batch_rejects () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  (* a non-array batch member rejects the whole line *)
  expect_error srv "{\"batch\": 5}" "bad_request";
  (* a nested batch is rejected in its own slot, not the whole line *)
  let j =
    parse
      (Serve.handle_line srv "{\"batch\": [{\"batch\": []}]}")
  in
  (match j with
  | J.List [ inner ] ->
      Alcotest.(check string) "nested batch rejected" "bad_request"
        (error_code inner)
  | _ -> Alcotest.fail "expected a one-element array response");
  (* an empty batch is a valid, empty array *)
  match parse (Serve.handle_line srv "{\"batch\": []}") with
  | J.List [] -> ()
  | _ -> Alcotest.fail "empty batch should answer []"

let test_batch_bounds () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let junk_batch n =
    "{\"batch\":["
    ^ String.concat "," (List.init n (fun _ -> "{\"blif\":\"x\"}"))
    ^ "]}"
  in
  (* one item over the bound: a single line-level rejection *)
  let j = parse (Serve.handle_line srv (junk_batch 4097)) in
  Alcotest.(check string) "oversized batch rejected" "bad_request"
    (error_code j);
  (match Option.bind (J.member "error" j) (J.member "message") with
  | Some (J.Str m) ->
      check "message names the bound" true
        (String.starts_with ~prefix:"batch too large" m)
  | _ -> Alcotest.fail "error without message");
  expect_error srv "{\"batch\": \"x\"}" "bad_request";
  (* exactly at the bound: every item answered in its own slot *)
  match parse (Serve.handle_line srv (junk_batch 4096)) with
  | J.List items ->
      check_int "4096 responses" 4096 (List.length items);
      check "every junk item is an invalid netlist" true
        (List.for_all (fun i -> error_code i = "invalid_netlist") items)
  | _ -> Alcotest.fail "a full batch should answer an array"

(* --- one spelling, one answer --------------------------------------- *)

(* A JSON string literal for [s], each character spelled one of the ways
   the grammar allows: raw where legal, a short escape where one exists,
   or a [\u00XX] escape. *)
let gen_json_string s =
  let open QCheck.Gen in
  let spell c =
    let u = Printf.sprintf "\\u%04x" (Char.code c) in
    match c with
    | '"' -> oneofl [ "\\\""; u ]
    | '\\' -> oneofl [ "\\\\"; u ]
    | '/' -> oneofl [ "/"; "\\/"; u ]
    | '\n' -> oneofl [ "\\n"; u ]
    | '\t' -> oneofl [ "\\t"; u ]
    | c when Char.code c < 0x20 -> return u
    | c -> oneofl [ String.make 1 c; u ]
  in
  let+ parts = flatten_l (List.map spell (List.of_seq (String.to_seq s))) in
  "\"" ^ String.concat "" parts ^ "\""

(* One request line for [members] (name, JSON text of the value): the
   members in any order, whitespace around every [:] and [,], names and
   string values re-spelled character by character. *)
let gen_spelling members =
  let open QCheck.Gen in
  let ws = oneofl [ ""; " "; "\t"; "  " ] in
  let member (k, v) =
    let+ parts =
      flatten_l [ ws; gen_json_string k; ws; return ":"; ws; v; ws ]
    in
    String.concat "" parts
  in
  let* order = shuffle_l members in
  let+ ms = flatten_l (List.map member order) in
  "{" ^ String.concat "," ms ^ "}"

(* What must not depend on the spelling: everything but the echoed id,
   the timing and the cache counters. *)
let spelling_invariant j =
  let drop keys = function
    | J.Obj fs -> J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fs)
    | j -> j
  in
  match drop [ "id"; "wall_s" ] j with
  | J.Obj fs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if k = "cache" then
               ( k,
                 drop
                   [ "hits"; "misses"; "evictions"; "insertions"; "entries" ]
                   v )
             else (k, v))
           fs)
  | j -> j

let test_one_spelling_one_answer () =
  (* one shard of two entries per level, so the LRU order is global *)
  let srv = mk_server ~cache_capacity:2 ~shards:1 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  (* a comment line gives the BLIF a '/' to spell as "\/" *)
  let blif = "# fig2/2\n" ^ blif_of 2 in
  let canonical =
    J.to_string
      (J.Obj
         [
           ("id", J.Int 1);
           ("blif", J.Str blif);
           ("level", J.Str "bit");
           ("echo", J.Bool true);
         ])
  in
  (* Leave the circuit in the exact-text (L1) cache but not in the
     fingerprint (L2) cache: an L1 hit refreshes only L1's recency, so
     the next miss evicts the circuit from L2 and another one from L1.
     From then on a spelling hits only if its L1 key is the decoded
     BLIF, not the raw line. *)
  Alcotest.(check string) "canonical miss" "ok"
    (status (parse (Serve.handle_line srv canonical)));
  ignore (parse (Serve.handle_line srv (request 2 (blif_of 3))));
  let reference = parse (Serve.handle_line srv canonical) in
  check "canonical repeat hits" true (cache_bool "hit" reference);
  let j = parse (Serve.handle_line srv (request 3 (blif_of 4))) in
  check_int "one eviction per level" 2 (cache_int "evictions" j);
  let prop line =
    let j = parse (Serve.handle_line srv line) in
    cache_bool "hit" j && spelling_invariant j = spelling_invariant reference
  in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 0x5e11 |])
    (QCheck.Test.make ~count:200 ~name:"every spelling answers alike"
       (QCheck.make ~print:Fun.id
          (gen_spelling
             [
               ("id", QCheck.Gen.return "1");
               ("blif", gen_json_string blif);
               ("level", gen_json_string "bit");
               ("echo", QCheck.Gen.return "true");
             ]))
       prop);
  (* a certificate request hitting the cache is refused however it is
     spelled *)
  expect_error srv
    ("{ \"cert\" : true , \"blif\":" ^ J.to_string (J.Str blif) ^ "}")
    "cert_unavailable";
  (* the hits above came from L1 alone: the circuit really left L2, so
     a renamed copy of it (new text, same fingerprint) misses *)
  let renamed =
    String.concat "\n"
      (List.map
         (fun l -> if l = ".model fig2_rt_2_bits" then ".model other" else l)
         (String.split_on_char '\n' blif))
  in
  check "renamed copy misses L2" false
    (cache_bool "hit" (parse (Serve.handle_line srv (request 4 renamed))))

(* --- timing --------------------------------------------------------- *)

let test_wall_s_one_clock () =
  let srv = mk_server () in
  Fun.protect
    ~finally:(fun () ->
      Logic.Clock.use_monotonic ();
      Serve.shutdown srv)
  @@ fun () ->
  let b = blif_of 2 in
  ignore (parse (Serve.handle_line srv (request 1 b)));
  (* every reading of the injected clock is a second after the last *)
  let ticks = Atomic.make 0 in
  Logic.Clock.set_source (fun () ->
      float_of_int (Atomic.fetch_and_add ticks 1));
  let j = parse (Serve.handle_line srv (request 2 b)) in
  check "hit" true (cache_bool "hit" j);
  match J.member "wall_s" j with
  | Some (J.Float w) -> check "wall_s read from Logic.Clock" true (w >= 1.0)
  | Some (J.Int w) -> check "wall_s read from Logic.Clock" true (w >= 1)
  | _ -> Alcotest.fail "ok response without a numeric wall_s"

(* --- sharded counters ----------------------------------------------- *)

let test_sharded_counters () =
  let srv = mk_server ~shards:4 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  (match J.member "shards" (Serve.stats srv) with
  | Some (J.Int 4) -> ()
  | _ -> Alcotest.fail "stats should report 4 shards");
  let widths = [ 1; 2; 3; 4; 5; 6 ] in
  List.iter
    (fun n ->
      let j = parse (Serve.handle_line srv (request n (blif_of n))) in
      Alcotest.(check string) "miss ok" "ok" (status j))
    widths;
  let last = ref J.Null in
  List.iter
    (fun n -> last := parse (Serve.handle_line srv (request (10 + n) (blif_of n))))
    widths;
  (* counters aggregate across the shards the six circuits hashed into *)
  check "repeat hits" true (cache_bool "hit" !last);
  check_int "six hits" 6 (cache_int "hits" !last);
  check_int "six misses" 6 (cache_int "misses" !last);
  check_int "six insertions" 6 (cache_int "insertions" !last);
  check_int "six entries" 6 (cache_int "entries" !last)

(* --- live listeners ------------------------------------------------- *)

let sock_path tag =
  let p =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%s_%d.sock" tag (Unix.getpid ()))
  in
  (try Unix.unlink p with Unix.Unix_error _ -> ());
  p

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let test_interleaved_clients () =
  let srv = mk_server () in
  let path = sock_path "interleave" in
  let l = Serve.listen_unix srv ~path in
  Fun.protect ~finally:(fun () -> Serve.stop l; Serve.shutdown srv)
  @@ fun () ->
  let fd_a, ic_a, oc_a = connect_unix path in
  let _fd_b, ic_b, oc_b = connect_unix path in
  (* warm the cache over connection B *)
  let warm = blif_of 4 in
  send oc_b (request 1 warm);
  let r = parse (input_line ic_b) in
  Alcotest.(check string) "warm-up ok" "ok" (status r);
  (* connection A: a slow batch — two dozen explicit-cut requests that
     always run the kernel (never cached), then a deadline-bound item *)
  let c = Fig2.gate 48 in
  let slow_blif = Blif.to_string c in
  let cut =
    J.List (List.map (fun g -> J.Int g) (Cut.maximal c).Cut.f_gates)
  in
  let slow_item id =
    J.Obj [ ("id", J.Int id); ("blif", J.Str slow_blif); ("cut", cut) ]
  in
  let items =
    List.init 24 slow_item
    @ [
        J.Obj
          [
            ("id", J.Int 99);
            ("blif", J.Str slow_blif);
            ("deadline_s", J.Float 1e-9);
          ];
      ]
  in
  send oc_a (J.to_string (J.Obj [ ("batch", J.List items) ]));
  (* connection B: a byte-identical repeat — a pure text-cache hit that
     must be answered while A's batch is still grinding *)
  send oc_b (request 2 warm);
  let r = parse (input_line ic_b) in
  check "B hits while A grinds" true (cache_bool "hit" r);
  let readable, _, _ = Unix.select [ fd_a ] [] [] 0.0 in
  check "A's batch is still in flight when B is answered" true
    (readable = []);
  (* A's batch arrives complete, in order, with the deadline item
     failing alone *)
  let j = parse (input_line ic_a) in
  (match j with
  | J.List items ->
      check_int "25 batch responses" 25 (List.length items);
      List.iteri
        (fun i item ->
          if i < 24 then (
            Alcotest.(check string) "slow item ok" "ok" (status item);
            check "explicit cut not cacheable" false
              (cache_bool "cacheable" item))
          else
            Alcotest.(check string) "deadline item isolated"
              "deadline_exceeded" (error_code item))
        items
  | _ -> Alcotest.fail "batch response is not a JSON array");
  (* closing the out_channel closes the shared descriptor *)
  close_out_noerr oc_a;
  close_out_noerr oc_b;
  (* clean stop unlinks the socket path *)
  Serve.stop l;
  check "socket path unlinked on stop" false (Sys.file_exists path)

(* An inline pool (jobs:1) runs each front-door task in the submitting
   connection thread, one at a time: while one client's cold miss holds
   it, the other client's respelt hits and malformed netlist queue
   behind it — and all of them are answered, in order. *)
let test_inline_pool_two_clients () =
  let srv = mk_server () in
  let path = sock_path "inline" in
  let l = Serve.listen_unix srv ~path in
  Fun.protect ~finally:(fun () -> Serve.stop l; Serve.shutdown srv)
  @@ fun () ->
  let _fd_a, ic_a, oc_a = connect_unix path in
  let _fd_b, ic_b, oc_b = connect_unix path in
  let warm = blif_of 4 in
  send oc_b (request 1 warm);
  Alcotest.(check string) "warm-up ok" "ok" (status (parse (input_line ic_b)));
  send oc_a (request 100 (blif_of 32));
  let respelt i =
    request i (Test_fingerprint.rename_internal (string_of_int i) warm)
  in
  let lines = [ respelt 2; respelt 3; request 4 "not blif at all"; respelt 5 ] in
  List.iter (send oc_b) lines;
  List.iter
    (fun i ->
      let j = parse (input_line ic_b) in
      (match J.member "id" j with
      | Some (J.Int id) -> check_int "B answered in order" i id
      | _ -> Alcotest.fail "response without id");
      if i = 4 then
        Alcotest.(check string) "malformed" "invalid_netlist" (error_code j)
      else check "respelling hits" true (cache_bool "hit" j))
    [ 2; 3; 4; 5 ];
  let a = parse (input_line ic_a) in
  Alcotest.(check string) "A's miss ok" "ok" (status a);
  check "A missed" false (cache_bool "hit" a);
  close_out_noerr oc_a;
  close_out_noerr oc_b

let test_tcp_listener () =
  let srv = mk_server () in
  let l = Serve.listen_tcp srv ~host:"127.0.0.1" ~port:0 in
  let port =
    match Serve.listener_addr l with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "TCP listener without an inet address"
  in
  check "port 0 resolved" true (port > 0);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let b = blif_of 2 in
  send oc (request 1 b);
  let r1 = parse (input_line ic) in
  Alcotest.(check string) "miss over TCP" "ok" (status r1);
  check "first is a miss" false (cache_bool "hit" r1);
  send oc (request 2 b);
  let r2 = parse (input_line ic) in
  check "hit over TCP" true (cache_bool "hit" r2);
  (* same trust boundary as the Unix transport *)
  send oc "definitely not json";
  let r3 = parse (input_line ic) in
  Alcotest.(check string) "malformed rejected over TCP" "bad_request"
    (error_code r3);
  close_out_noerr oc;
  Serve.stop l;
  Serve.shutdown srv;
  (* the port no longer accepts connections *)
  let fd2 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
  match Unix.connect fd2 (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> Alcotest.fail "connect succeeded after stop"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

let test_bounded_connections () =
  let srv = mk_server () in
  let path = sock_path "bounded" in
  let l = Serve.listen_unix ~max_connections:1 srv ~path in
  Fun.protect ~finally:(fun () -> Serve.stop l; Serve.shutdown srv)
  @@ fun () ->
  (* A occupies the single handler slot (the kernel accepts A first:
     connections are handed out in arrival order) *)
  let fd_a, _, _ = connect_unix path in
  let fd_b, ic_b, oc_b = connect_unix path in
  send oc_b (request 1 (blif_of 2));
  let readable, _, _ = Unix.select [ fd_b ] [] [] 0.4 in
  check "B waits while the slot is held" true (readable = []);
  Unix.close fd_a;
  (* A's EOF frees the slot; the accept loop picks B out of the backlog *)
  let readable, _, _ = Unix.select [ fd_b ] [] [] 10.0 in
  check "B served once the slot frees" true (readable <> []);
  let j = parse (input_line ic_b) in
  Alcotest.(check string) "B's request ok" "ok" (status j);
  close_out_noerr oc_b

(* --- proof certificates --------------------------------------------- *)

let test_cert_request () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let b = blif_of 2 in
  let j =
    parse (Serve.handle_line srv (request ~extra:[ ("cert", J.Bool true) ] 1 b))
  in
  Alcotest.(check string) "certified miss ok" "ok" (status j);
  check "miss ran the proof" false (cache_bool "hit" j);
  let text =
    match J.member "cert" j with
    | Some (J.Str s) -> s
    | _ -> Alcotest.fail "ok response without a cert member"
  in
  (* the daemon's certificate must replay through the independent
     checker path, not merely parse *)
  (match Cert.check_string text with
  | Ok (_, prims) -> check "replayed some inferences" true (prims > 0)
  | Error rej -> Alcotest.fail ("daemon cert rejected: " ^ Cert.reject_to_string rej));
  (* same circuit again: the cache answers, and a certificate cannot be
     fabricated for a proof this request never ran — typed error *)
  expect_error srv
    (request ~extra:[ ("cert", J.Bool true) ] 2 b)
    "cert_unavailable";
  (* without cert:true the hit is served normally... *)
  let j3 = parse (Serve.handle_line srv (request 3 b)) in
  Alcotest.(check string) "plain hit ok" "ok" (status j3);
  check "hit" true (cache_bool "hit" j3);
  (* ...and ok responses only carry a cert when one was requested *)
  check "no unsolicited cert member" true (J.member "cert" j3 = None)

let test_cert_bad_field () =
  let srv = mk_server () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  expect_error srv
    (request ~extra:[ ("cert", J.Str "yes") ] 1 (blif_of 2))
    "bad_request"

(* --- acceptance gates ----------------------------------------------- *)

(* Two throughput ratios the proof cache and batching were built to
   deliver.  Each compares two runs in one process, timed on
   Logic.Clock, so the bound is a ratio and not a speed that depends on
   the machine. *)

(* Requests per second of [lines] through [handle_line], every answer
   ok; the heap is settled first so the previous run's garbage is not
   billed to this one. *)
let handle_rate srv lines =
  Gc.full_major ();
  let t0 = Logic.Clock.now () in
  List.iter
    (fun line ->
      let j = parse (Serve.handle_line srv line) in
      if status j <> "ok" then Alcotest.fail ("not ok: " ^ J.to_string j))
    lines;
  float_of_int (List.length lines) /. (Logic.Clock.now () -. t0)

(* The proof cache's bar: cold sends each of 8 fig2 circuits (4-48
   bits) once to an empty cache, so every request runs the kernel; warm
   sends 96 requests cycling over the same texts, all exact-text hits.
   Warm must answer at least 10x the requests per second. *)
let test_warm_10x_cold () =
  let srv = mk_server ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) @@ fun () ->
  let blifs = Array.map blif_of [| 4; 6; 8; 12; 16; 24; 32; 48 |] in
  let traffic n =
    List.init n (fun i -> request i blifs.(i mod Array.length blifs))
  in
  let cold = handle_rate srv (traffic (Array.length blifs)) in
  let warm = handle_rate srv (traffic 96) in
  Printf.printf "warm/cold %.1fx (cold %.1f req/s, warm %.0f req/s)\n"
    (warm /. cold) cold warm;
  check "warm throughput >= 10x cold" true (warm >= 10.0 *. cold)

let conc_items = 1024
let conc_batch = 32

(* One client's traffic: [conc_items] echo:false requests over fig2
   widths 2-4, one per line or [conc_batch] to a line. *)
let conc_traffic ~batched client =
  let blifs = Array.map blif_of [| 2; 3; 4 |] in
  let items =
    List.init conc_items (fun i ->
        request ~extra:[ ("echo", J.Bool false) ]
          ((client * conc_items) + i) blifs.(i mod 3))
  in
  if not batched then items
  else
    List.init (conc_items / conc_batch) (fun b ->
        let chunk = List.filteri (fun i _ -> i / conc_batch = b) items in
        "{\"batch\":[" ^ String.concat "," chunk ^ "]}")

(* Items per second of one client thread per traffic list, each client
   stop-and-wait (one line in flight).  The answers are kept unread
   until the clock stops, then every item must be ok. *)
let clients_rate path traffic =
  let answers = Array.make (List.length traffic) [] in
  Gc.full_major ();
  let t0 = Logic.Clock.now () in
  let clients =
    List.mapi
      (fun c lines ->
        Thread.create
          (fun () ->
            let _fd, ic, oc = connect_unix path in
            answers.(c) <-
              List.map
                (fun line ->
                  send oc line;
                  input_line ic)
                lines;
            close_out_noerr oc)
          ())
      traffic
  in
  List.iter Thread.join clients;
  let wall = Logic.Clock.now () -. t0 in
  let items = List.length traffic * conc_items in
  let oks =
    Array.fold_left
      (List.fold_left (fun n answer ->
           let js = match parse answer with J.List js -> js | j -> [ j ] in
           n + List.length (List.filter (fun j -> status j = "ok") js)))
      0 answers
  in
  check_int "every item ok" items oks;
  float_of_int items /. wall

(* Batching's bar: on warm hits over a Unix socket, 4 clients batching
   32 items per line answer at least 2x the items per second of one
   client sending one item per line.  jobs:1, because every item is an
   exact-text hit answered on its connection thread, and an idle worker
   domain would only add stop-the-world minor collections.  Each cell
   keeps its best of 3 interleaved trials, so one noise spike on a
   shared host does not decide the gate. *)
let test_batched_2x_sync () =
  let srv = mk_server () in
  let path = sock_path "gate" in
  let l = Serve.listen_unix srv ~path in
  Fun.protect ~finally:(fun () -> Serve.stop l; Serve.shutdown srv)
  @@ fun () ->
  ignore
    (handle_rate srv (List.map (fun n -> request n (blif_of n)) [ 2; 3; 4 ]));
  let sync = List.init 1 (conc_traffic ~batched:false) in
  let batched = List.init 4 (conc_traffic ~batched:true) in
  let best_sync = ref 0.0 and best_batched = ref 0.0 in
  for _ = 1 to 3 do
    best_sync := Float.max !best_sync (clients_rate path sync);
    best_batched := Float.max !best_batched (clients_rate path batched)
  done;
  Printf.printf
    "batch-4c/sync-1c %.2fx (sync-1c %.0f, batch-4c %.0f items/s)\n"
    (!best_batched /. !best_sync) !best_sync !best_batched;
  check "batched 4-client throughput >= 2x one stop-and-wait client" true
    (!best_batched >= 2.0 *. !best_sync)

let suite =
  [
    Alcotest.test_case "miss, text hit, fingerprint hit" `Quick
      test_miss_then_hit;
    Alcotest.test_case "levels keyed separately" `Quick test_levels_distinct;
    Alcotest.test_case "LRU eviction" `Quick test_eviction;
    Alcotest.test_case "echo:false elides payload" `Quick test_echo_elision;
    Alcotest.test_case "explicit cut bypasses cache" `Quick
      test_explicit_cut_bypasses_cache;
    Alcotest.test_case "rejection taxonomy" `Quick test_rejections;
    Alcotest.test_case "unmeetable deadline" `Quick test_tiny_deadline;
    Alcotest.test_case "deadline covers the wait for a worker" `Quick
      test_tiny_deadline_front_door;
    Alcotest.test_case "shutdown leaves exact-text hits" `Quick
      test_shutdown_keeps_l1;
    Alcotest.test_case "worker hit reads as inline hit" `Quick
      test_worker_hit_identical;
    Alcotest.test_case "shutdown rejects new work" `Quick
      test_shutdown_rejects;
    Alcotest.test_case "certificate on miss, typed refusal on hit" `Quick
      test_cert_request;
    Alcotest.test_case "cert field must be a boolean" `Quick
      test_cert_bad_field;
    Alcotest.test_case "serve_channel pipeline" `Quick test_serve_channel;
    Alcotest.test_case "batch order and isolation" `Quick
      test_batch_order_and_isolation;
    Alcotest.test_case "batch rejections" `Quick test_batch_rejects;
    Alcotest.test_case "batch size bound" `Quick test_batch_bounds;
    Alcotest.test_case "one spelling, one answer" `Quick
      test_one_spelling_one_answer;
    Alcotest.test_case "wall_s on the deadline clock" `Quick
      test_wall_s_one_clock;
    Alcotest.test_case "sharded counters aggregate" `Quick
      test_sharded_counters;
    Alcotest.test_case "interleaved socket clients" `Quick
      test_interleaved_clients;
    Alcotest.test_case "inline pool, two socket clients" `Quick
      test_inline_pool_two_clients;
    Alcotest.test_case "tcp transport" `Quick test_tcp_listener;
    Alcotest.test_case "bounded connections" `Quick test_bounded_connections;
    Alcotest.test_case "warm hits >= 10x cold misses" `Quick
      test_warm_10x_cold;
    Alcotest.test_case "batched clients >= 2x stop-and-wait" `Quick
      test_batched_2x_sync;
  ]
