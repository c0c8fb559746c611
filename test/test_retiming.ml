(* Tests for cuts and conventional forward retiming. *)

open Circuit

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cuts                                                                *)
(* ------------------------------------------------------------------ *)

let cut_is_valid c (cut : Cut.t) =
  let in_f = Array.make (n_signals c) false in
  List.iter (fun s -> in_f.(s) <- true) cut.Cut.f_gates;
  List.for_all
    (fun s ->
      match c.drivers.(s) with
      | Gate (_, args) ->
          List.for_all
            (fun a ->
              match c.drivers.(a) with
              | Reg_out _ -> true
              | Gate _ -> in_f.(a)
              | Input _ -> false)
            args
      | Input _ | Reg_out _ -> false)
    cut.Cut.f_gates

let test_fig2_cut () =
  let c = Fig2.rt 4 in
  let cut = Cut.maximal c in
  Alcotest.(check int) "f = the incrementer" 1
    (List.length cut.Cut.f_gates);
  Alcotest.(check int) "one boundary" 1 (List.length cut.Cut.boundary);
  Alcotest.(check int) "no passthrough" 0
    (List.length cut.Cut.passthrough);
  check "valid" true (cut_is_valid c cut)

let test_false_cut_rejected () =
  let c = Fig2.rt 4 in
  let gates = Fig2.false_cut_gates c in
  check "false cut raises" true
    (try
       ignore (Cut.of_gates c gates);
       false
     with Cut.Invalid_cut _ -> true)

let prop_maximal_cut_valid =
  QCheck.Test.make ~count:60 ~name:"maximal cut is valid"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:30 () in
      match Cut.maximal c with
      | cut -> cut_is_valid c cut && cut.Cut.f_gates <> []
      | exception Cut.Invalid_cut _ -> true)

let test_prefixes () =
  let c = Fig2.gate 8 in
  let cuts = Cut.prefixes c 4 in
  check "several cuts" true (List.length cuts >= 2);
  List.iter (fun cut -> check "prefix valid" true (cut_is_valid c cut)) cuts;
  (* sizes increase *)
  let sizes = List.map (fun cut -> List.length cut.Cut.f_gates) cuts in
  check "increasing" true (List.sort compare sizes = sizes)

(* ------------------------------------------------------------------ *)
(* Forward retiming preserves behaviour                                *)
(* ------------------------------------------------------------------ *)

let cosim c1 c2 cycles seed =
  let rng = Random.State.make [| seed |] in
  let st1 = ref (Sim.initial_state c1) in
  let st2 = ref (Sim.initial_state c2) in
  let ok = ref true in
  for _ = 1 to cycles do
    let inputs = Sim.random_inputs rng c1 in
    let o1, st1' = Sim.step c1 !st1 inputs in
    let o2, st2' = Sim.step c2 !st2 inputs in
    if
      not
        (Array.for_all2 (fun a b -> Sim.value_equal a b) o1 o2)
    then ok := false;
    st1 := st1';
    st2 := st2'
  done;
  !ok

let test_retime_fig2 () =
  let c = Fig2.rt 6 in
  let r = Forward.retime c (Cut.maximal c) in
  validate r;
  check "cosim" true (cosim c r 50 7);
  (* the boundary register, the retimed circuit's first, starts at
     f(q) = 1 *)
  match Array.to_list r.registers with
  | { init = Word (6, 1); _ } :: _ -> ()
  | _ -> Alcotest.fail "boundary init should be the 6-bit word 1"

let prop_retime_preserves =
  QCheck.Test.make ~count:60 ~name:"forward retiming preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:30 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          let r = Forward.retime c cut in
          validate r;
          cosim c r 32 (seed + 13))

let prop_retime_words =
  QCheck.Test.make ~count:40 ~name:"forward retiming preserves words too"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~words:true ~seed ~max_gates:25 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          let r = Forward.retime c cut in
          cosim c r 32 (seed + 17))

let test_retime_register_count () =
  let c = Fig2.gate 4 in
  let cut = Cut.maximal c in
  let r = Forward.retime c cut in
  Alcotest.(check int) "register count preserved on fig2"
    (flipflop_count c) (flipflop_count r)

let suite =
  [
    Alcotest.test_case "fig2 maximal cut" `Quick test_fig2_cut;
    Alcotest.test_case "false cut rejected" `Quick test_false_cut_rejected;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_maximal_cut_valid;
    Alcotest.test_case "cut prefixes" `Quick test_prefixes;
    Alcotest.test_case "retime fig2" `Quick test_retime_fig2;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_retime_preserves;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_retime_words;
    Alcotest.test_case "register counts" `Quick test_retime_register_count;
  ]
