(* Tests for the benchmark circuit generators. *)

let check = Alcotest.(check bool)

let test_fig2_scaling () =
  List.iter
    (fun n ->
      let c = Fig2.gate n in
      Circuit.validate c;
      Alcotest.(check int)
        (Printf.sprintf "ffs at %d" n)
        n
        (Circuit.flipflop_count c))
    [ 1; 2; 4; 8; 16 ]

let test_fig2_deterministic () =
  let a = Fig2.rt 6 and b = Fig2.rt 6 in
  check "same stats" true
    (Circuit.gate_count a = Circuit.gate_count b
    && Circuit.flipflop_count a = Circuit.flipflop_count b)

let test_suite_matches_paper_ffs () =
  List.iter
    (fun (e : Iwls.entry) ->
      let c = Lazy.force e.Iwls.circuit in
      Circuit.validate c;
      Alcotest.(check int)
        (e.Iwls.name ^ " flip-flops")
        e.Iwls.paper_flipflops
        (Circuit.flipflop_count c))
    (List.filter
       (fun (e : Iwls.entry) ->
         (* generate only the small ones here; mult32/s5378 are exercised
            by the benchmark harness *)
         not (List.mem e.Iwls.name [ "s5378"; "mult16"; "mult32" ]))
       Iwls.suite)

let test_suite_deterministic () =
  let c1 = Iwls.synth ~name:"x" ~ffs:10 ~gates:50 ~ins:3 ~outs:2 ~seed:7 in
  let c2 = Iwls.synth ~name:"x" ~ffs:10 ~gates:50 ~ins:3 ~outs:2 ~seed:7 in
  check "structurally identical" true
    (c1.Circuit.drivers = c2.Circuit.drivers
    && c1.Circuit.registers = c2.Circuit.registers)

let test_suite_retimable () =
  List.iter
    (fun (e : Iwls.entry) ->
      if not (List.mem e.Iwls.name [ "s5378"; "mult32" ]) then begin
        let c = Lazy.force e.Iwls.circuit in
        let cut = Cut.maximal c in
        check (e.Iwls.name ^ " has a cut") true (cut.Cut.f_gates <> [])
      end)
    Iwls.suite

let test_mult_is_sequential_multiplier_shape () =
  let c = Lazy.force (Iwls.find "mult8").Iwls.circuit in
  Circuit.validate c;
  Alcotest.(check int) "24 flip-flops" 24 (Circuit.flipflop_count c);
  check "pure bit level" true
    (Array.for_all (fun w -> w = Circuit.B) c.Circuit.widths)

let prop_random_wellformed =
  QCheck.Test.make ~count:100 ~name:"random circuits are well-formed"
    QCheck.(pair (int_range 0 100_000) bool)
    (fun (seed, words) ->
      let c = Random_circ.generate ~words ~seed ~max_gates:30 () in
      Circuit.validate c;
      Circuit.n_inputs c >= 1
      && Array.length c.Circuit.outputs >= 1
      && Array.length c.Circuit.registers >= 1)

let suite =
  [
    Alcotest.test_case "fig2 scaling" `Quick test_fig2_scaling;
    Alcotest.test_case "fig2 deterministic" `Quick test_fig2_deterministic;
    Alcotest.test_case "suite flip-flop counts" `Quick
      test_suite_matches_paper_ffs;
    Alcotest.test_case "suite deterministic" `Quick test_suite_deterministic;
    Alcotest.test_case "suite retimable" `Quick test_suite_retimable;
    Alcotest.test_case "multiplier shape" `Quick
      test_mult_is_sequential_multiplier_shape;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_random_wellformed;
  ]
