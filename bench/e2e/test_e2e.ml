(* Self-test of the service benchmark: its generators and its oracle.
   The answers checked here come from the daemon's own request handler,
   run in process. *)

let digest blif = Fingerprint.digest (Fingerprint.of_circuit (Blif.of_string blif))

let lines (t : Traffic.t) =
  List.map
    (fun (it : Traffic.item) -> it.line)
    ((t.probe :: Array.to_list t.warmup) @ Array.to_list t.items)

(* one stream per workload at seed 7, shared by the tests *)
let streams =
  List.map (fun (_, w) -> (w, lazy (Traffic.make w ~seed:7 ~lines:60))) Traffic.workloads

let stream w = Lazy.force (List.assoc w streams)

let deterministic () =
  List.iter
    (fun (name, w) ->
      Alcotest.(check (list string))
        (name ^ ": same seed")
        (lines (stream w))
        (lines (Traffic.make w ~seed:7 ~lines:60)))
    Traffic.workloads;
  let other = Traffic.make Traffic.Cold_iwls ~seed:8 ~lines:60 in
  Alcotest.(check bool) "another seed" false
    ((stream Traffic.Cold_iwls).items.(0).line = other.items.(0).line)

let cold_distinct () =
  let seen = Hashtbl.create 512 in
  List.iter
    (fun w ->
      let t = stream w in
      List.iter
        (fun (it : Traffic.item) ->
          let d = digest it.blif in
          (* the probe is shared by design; every other circuit is new *)
          if it.id <> 0 then begin
            if Hashtbl.mem seen d then Alcotest.failf "line %d repeats a circuit" it.id;
            Hashtbl.replace seen d ()
          end)
        ((t.probe :: Array.to_list t.warmup) @ Array.to_list t.items))
    [ Traffic.Cold_iwls; Traffic.Cold_certified ]

let renamed_share_fingerprint () =
  List.iter
    (fun w ->
      let t = stream w in
      let texts = Hashtbl.create 1024 in
      Array.iter
        (fun (it : Traffic.item) ->
          match it.kind with
          | Traffic.Renamed b ->
              if Hashtbl.mem texts it.blif then Alcotest.failf "line %d: spelling reused" it.id;
              Hashtbl.replace texts it.blif ();
              Alcotest.(check bool) "differs in text" false (it.blif = t.bases.(b));
              Alcotest.(check string) "same fingerprint" (digest t.bases.(b)) (digest it.blif)
          | _ -> ())
        t.items)
    [ Traffic.Warm_renamed; Traffic.Mixed_churn ]

let server = lazy (Serve.create ~cache_capacity:64 ())
let answer line = Obs.Json.parse (Serve.handle_line (Lazy.force server) line)

(* Rewrite one string member of an answer. *)
let with_member name f = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | k, Obs.Json.Str s when k = name -> (k, Obs.Json.Str (f s))
             | kv -> kv)
           fields)
  | j -> j

(* The response BLIF with output [o0]'s buffer turned into an inverter. *)
let flip_output_buffer blif =
  let rec go = function
    | l :: "1 1" :: rest when String.ends_with ~suffix:" o0" l -> l :: "0 1" :: rest
    | l :: rest -> l :: go rest
    | [] -> Alcotest.fail "no o0 buffer in the answer"
  in
  String.concat "\n" (go (String.split_on_char '\n' blif))

let flip_byte_at_middle s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
  Bytes.to_string b

let oracle_flags_tampering () =
  let blif =
    Blif.to_string (Iwls.synth ~name:"t" ~ffs:6 ~gates:40 ~ins:3 ~outs:2 ~seed:11)
  in
  let it = Traffic.item ~id:1 ~cert:true Traffic.Cold blif in
  let j = answer it.line in
  let e = Oracle.expect_of_blif blif in
  let ok j = Result.is_ok (Oracle.check_ok e ~echo:true ~cert:true j) in
  Alcotest.(check bool) "genuine answer passes" true (ok j);
  Alcotest.(check bool) "flipped gate" false (ok (with_member "blif" flip_output_buffer j));
  Alcotest.(check bool) "theorem without |-" false
    (ok (with_member "theorem" (fun t -> "|=" ^ String.sub t 2 (String.length t - 2)) j));
  Alcotest.(check bool) "theorem other than the certificate's" false
    (ok (with_member "theorem" (fun t -> t ^ " ") j));
  Alcotest.(check bool) "tampered certificate" false
    (ok (with_member "cert" flip_byte_at_middle j))

let malformed_codes () =
  let base = Blif.to_string (Fig2.gate 3) in
  for cls = 0 to Traffic.malformed_classes - 1 do
    let j = answer (Traffic.malformed_line ~id:cls cls base) in
    match Oracle.check_error (Traffic.malformed_code cls) j with
    | Ok () -> ()
    | Error m -> Alcotest.failf "class %d: %s" cls m
  done;
  (* and an accepted request never passes as a rejection *)
  let j = answer (Traffic.item ~id:9 Traffic.Cold base).line in
  Alcotest.(check bool) "ok is not a rejection" false
    (Result.is_ok (Oracle.check_error "bad_request" j))

(* A run-set file of [workload] runs, all at seed 1, one per value. *)
let run_set values =
  Obs.Json.(
    Obj
      [
        ( "runs",
          List
            (List.map
               (fun v ->
                 Obj
                   [
                     ("workload", Str "w"); ("seed", Int 1); ("trace", Bool false);
                     ("correct", Bool true);
                     ("metrics", Obj [ ("t", Obj [ ("value", Float v); ("unit", Str "ms") ]) ]);
                   ])
               values) );
      ])

(* Two run sets at one seed: the parent's first run is slow.  Paired
   with every change run it would make the change win 10 in 10 and
   read "improved"; paired by position the change wins 6. *)
let compare_pairs_runs_once () =
  let parent = [ 120.0; 100.0; 100.5; 100.0; 100.2; 99.8; 100.1; 99.9; 100.3; 100.0 ] in
  let change = [ 99.5; 100.7; 99.5; 100.7; 99.5; 100.7; 99.5; 100.7; 99.5; 99.5 ] in
  let p = Judge.runs_of_json (run_set parent) and c = Judge.runs_of_json (run_set change) in
  let value (r : Judge.run) = List.assoc "t" r.values in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "k-th parent run with k-th change run" (List.combine parent change)
    (List.map (fun (a, b) -> (value a, value b)) (Judge.pairs p c));
  let m = { Judge.name = "t"; lower_better = true; bound = 0.1 } in
  match Judge.compare_metric m ~parent:p ~change:c with
  | Some v -> Alcotest.(check string) "verdict" "unchanged" v.verdict
  | None -> Alcotest.fail "no verdict"

let () =
  Alcotest.run "e2e"
    [
      ( "traffic",
        [
          Alcotest.test_case "generators are deterministic per seed" `Quick deterministic;
          Alcotest.test_case "cold streams never repeat a circuit" `Quick cold_distinct;
          Alcotest.test_case "spellings share their base's fingerprint" `Quick
            renamed_share_fingerprint;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "flags tampered answers" `Quick oracle_flags_tampering;
          Alcotest.test_case "malformed classes get their codes" `Quick malformed_codes;
        ] );
      ( "compare",
        [
          Alcotest.test_case "runs of one seed pair by position" `Quick
            compare_pairs_runs_once;
        ] );
    ]
