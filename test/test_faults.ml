(* Fault-injection: hand-built mutants per class must die with the
   documented typed exception, random valid cuts must retime and stay
   equivalent, and the campaign classifier must never observe a
   wrong-exception or accepted-but-inequivalent outcome. *)

module Mutate = Faults.Mutate
module Campaign = Faults.Campaign

let check = Alcotest.(check bool)

let config =
  { Campaign.default with Campaign.mutants = 0; budget_s = 20.; sim_steps = 64 }

let raises_invalid_cut f =
  match f () with _ -> false | exception Cut.Invalid_cut _ -> true

let raises_invalid_netlist f =
  match f () with _ -> false | exception Circuit.Invalid_netlist _ -> true

let cosim c1 c2 steps seed =
  let rng = Random.State.make [| seed |] in
  let st1 = ref (Sim.initial_state c1) in
  let st2 = ref (Sim.initial_state c2) in
  let ok = ref true in
  for _ = 1 to steps do
    let ins = Sim.random_inputs rng c1 in
    let o1, s1 = Sim.step c1 !st1 ins in
    let o2, s2 = Sim.step c2 !st2 ins in
    st1 := s1;
    st2 := s2;
    if not (Array.for_all2 Sim.value_equal o1 o2) then ok := false
  done;
  !ok

let fig_base () =
  let c = Fig2.gate 4 in
  (c, Cut.maximal c)

(* --- cut-list corruption: rejected by [Cut.of_gates] ---------------- *)

let test_cut_out_of_range () =
  let c, cut = fig_base () in
  check "too-large member" true
    (raises_invalid_cut (fun () ->
         Cut.of_gates c (cut.Cut.f_gates @ [ Circuit.n_signals c + 5 ])));
  check "negative member" true
    (raises_invalid_cut (fun () -> Cut.of_gates c [ -3 ]))

let test_cut_nongate_member () =
  let c, cut = fig_base () in
  let non_gate =
    let found = ref None in
    Array.iteri
      (fun s d ->
        match (d, !found) with
        | (Circuit.Input _ | Circuit.Reg_out _), None -> found := Some s
        | _ -> ())
      c.Circuit.drivers;
    Option.get !found
  in
  check "input/reg member" true
    (raises_invalid_cut (fun () ->
         Cut.of_gates c (cut.Cut.f_gates @ [ non_gate ])))

(* --- forged records: rejected by [Forward.validate_cut] ------------- *)

let test_forged_duplicate () =
  let c, cut = fig_base () in
  let forged =
    { cut with Cut.f_gates = cut.Cut.f_gates @ [ List.hd cut.Cut.f_gates ] }
  in
  check "duplicate f gate" true
    (raises_invalid_cut (fun () -> Forward.validate_cut c forged))

let test_forged_boundary () =
  let c, cut = fig_base () in
  check "boundary dropped" true
    (raises_invalid_cut (fun () ->
         Forward.validate_cut c { cut with Cut.boundary = [] }));
  check "boundary alien" true
    (raises_invalid_cut (fun () ->
         Forward.validate_cut c
           { cut with Cut.boundary = cut.Cut.boundary @ [ -1 ] }))

let test_forged_passthrough () =
  let c, cut = fig_base () in
  let nregs = Array.length c.Circuit.registers in
  check "passthrough alien" true
    (raises_invalid_cut (fun () ->
         Forward.validate_cut c
           { cut with Cut.passthrough = cut.Cut.passthrough @ [ nregs + 3 ] }))

(* --- corrupted netlists: rejected by [Circuit.validate] ------------- *)

let test_netlist_dangling_output () =
  let c, cut = fig_base () in
  let outputs = Array.copy c.Circuit.outputs in
  outputs.(0) <- (fst outputs.(0), Circuit.n_signals c + 7);
  let bad = { c with Circuit.outputs } in
  check "validate rejects" true
    (raises_invalid_netlist (fun () -> Circuit.validate bad));
  (* and the full pipeline rejects it before anything indexes *)
  check "pipeline rejects" true
    (raises_invalid_netlist (fun () ->
         ignore (Hash.Synthesis.retime Hash.Embed.Bit_level bad cut)))

let test_netlist_width_lie () =
  let c, cut = fig_base () in
  let widths = Array.copy c.Circuit.widths in
  widths.(Array.length widths - 1) <- Circuit.W 2;
  let bad = { c with Circuit.widths } in
  check "pipeline rejects width lie" true
    (raises_invalid_netlist (fun () ->
         ignore (Hash.Synthesis.retime Hash.Embed.Bit_level bad cut)))

(* --- lying heuristics ----------------------------------------------- *)

let test_prefix_bad_k () =
  let c = Fig2.gate 4 in
  Alcotest.check_raises "k = 0"
    (Cut.Invalid_cut "Cut.prefixes: k must be >= 1 (got 0)") (fun () ->
      ignore (Cut.prefixes c 0));
  Alcotest.check_raises "k = -2"
    (Cut.Invalid_cut "Cut.prefixes: k must be >= 1 (got -2)") (fun () ->
      ignore (Cut.prefixes c (-2)))

let test_wrong_circuit () =
  let c = Fig2.gate 4 in
  let foreign = Fig2.gate 7 in
  let fcut = Cut.maximal foreign in
  match Hash.Synthesis.retime Hash.Embed.Bit_level c fcut with
  | _ -> Alcotest.fail "foreign cut accepted"
  (* the campaign's typed taxonomy; any other exception fails the test *)
  | exception
      ( Cut.Invalid_cut _ | Circuit.Invalid_netlist _
      | Hash.Errors.Cut_mismatch _ | Hash.Errors.Join_mismatch _
      | Engines.Common.Out_of_budget ) ->
      ()

(* --- every mutator class, deterministically -------------------------- *)

(* Run mutants one index at a time until every class has been seen (the
   classes rotate with the index, so this takes about one mutant per
   class).  Any wrong-exception or accepted-inequivalent outcome is a
   failure. *)
let test_every_class () =
  let bases = Campaign.default_bases () in
  let seen = Hashtbl.create 16 in
  let i = ref 0 in
  while Hashtbl.length seen < List.length Mutate.classes && !i < 500 do
    Hashtbl.iter
      (fun cls t ->
        Hashtbl.replace seen cls ();
        if t.Obs.Faults.wrong_exception > 0 then
          Alcotest.failf "%s: wrong exception class" cls;
        if t.Obs.Faults.accepted_inequivalent > 0 then
          Alcotest.failf "%s: accepted an inequivalent mutant" cls)
      (Campaign.run_range config ~bases !i (!i + 1));
    incr i
  done;
  List.iter
    (fun cls -> check ("class covered: " ^ cls) true (Hashtbl.mem seen cls))
    Mutate.classes

(* --- campaign smoke --------------------------------------------------- *)

let test_campaign_smoke () =
  let cfg = { config with Campaign.mutants = 64; seed = 7 } in
  let table = Campaign.run cfg in
  let tot = Campaign.totals table in
  Alcotest.(check int) "all mutants ran" 64 tot.Obs.Faults.mutants;
  Alcotest.(check int) "no wrong-exception rejections" 0
    tot.Obs.Faults.wrong_exception;
  Alcotest.(check int) "no accepted-inequivalent mutants" 0
    tot.Obs.Faults.accepted_inequivalent;
  check "several mutator classes exercised" true (Hashtbl.length table >= 6);
  (* report shape *)
  match Campaign.report_json ~config:cfg ~jobs:1 table with
  | Obs.Json.Obj fields ->
      check "zero_accepted verdict" true
        (List.assoc_opt "zero_accepted" fields = Some (Obs.Json.Bool true))
  | _ -> Alcotest.fail "report is not an object"

(* --- random valid cuts: retime and stay equivalent -------------------- *)

let prop_valid_cut_retimes =
  QCheck.Test.make ~count:40 ~name:"random valid cuts retime and cosim"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~retimable:true ~seed ~max_gates:20 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          Forward.validate_cut c cut;
          let r = Forward.retime c cut in
          cosim c r 64 (seed + 1))

let prop_prefix_cuts_valid =
  QCheck.Test.make ~count:30 ~name:"prefix cuts are valid and preserve"
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, k) ->
      let c = Random_circ.generate ~retimable:true ~seed ~max_gates:20 () in
      match Cut.prefixes c k with
      | exception Cut.Invalid_cut _ -> true
      | cuts ->
          List.for_all
            (fun cut ->
              Forward.validate_cut c cut;
              cosim c (Forward.retime c cut) 64 (seed + 3))
            cuts)

(* Every randomly generated mutant lands in {typed rejection, accepted
   and equivalent} — never outside the taxonomy, never unsound. *)
let prop_mutants_classified =
  let bases = Campaign.default_bases () in
  QCheck.Test.make ~count:60 ~name:"mutant outcomes stay in the taxonomy"
    QCheck.(int_range 0 100_000)
    (fun i ->
      let t = Campaign.totals (Campaign.run_range config ~bases i (i + 1)) in
      t.Obs.Faults.wrong_exception = 0 && t.Obs.Faults.accepted_inequivalent = 0)

let suite =
  [
    Alcotest.test_case "cut member out of range" `Quick test_cut_out_of_range;
    Alcotest.test_case "cut member not a gate" `Quick test_cut_nongate_member;
    Alcotest.test_case "forged duplicate f gate" `Quick test_forged_duplicate;
    Alcotest.test_case "forged boundary" `Quick test_forged_boundary;
    Alcotest.test_case "forged passthrough" `Quick test_forged_passthrough;
    Alcotest.test_case "netlist dangling output" `Quick
      test_netlist_dangling_output;
    Alcotest.test_case "netlist width lie" `Quick test_netlist_width_lie;
    Alcotest.test_case "prefixes bad k" `Quick test_prefix_bad_k;
    Alcotest.test_case "wrong circuit's cut" `Quick test_wrong_circuit;
    Alcotest.test_case "every mutator class" `Slow test_every_class;
    Alcotest.test_case "campaign smoke" `Slow test_campaign_smoke;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xfa17 |])
      prop_valid_cut_retimes;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xfa17 |])
      prop_prefix_cuts_valid;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xfa17 |])
      prop_mutants_classified;
  ]
