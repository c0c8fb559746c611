(* Tests for the post-synthesis verification baselines. *)

open Circuit

let check = Alcotest.(check bool)
let budget () = Engines.Common.budget_of_seconds 20.0

let is_equiv = function Engines.Common.Equivalent -> true | _ -> false

let is_refuted = function
  | Engines.Common.Not_equivalent _ -> true
  | _ -> false

(* A mutated copy of a circuit: one gate operator flipped. *)
let sabotage c =
  let b = create (c.name ^ "_bad") in
  let map = Array.make (n_signals c) (-1) in
  Array.iteri
    (fun s d ->
      match d with
      | Input _ -> map.(s) <- input b c.widths.(s)
      | Reg_out _ | Gate _ -> ())
    c.drivers;
  let regs =
    Array.map (fun r -> reg b ~init:r.init (width_of_value r.init)) c.registers
  in
  Array.iteri
    (fun s d ->
      match d with
      | Reg_out r -> map.(s) <- regs.(r)
      | Input _ | Gate _ -> ())
    c.drivers;
  let flipped = ref false in
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) ->
          let op' =
            if !flipped then op
            else
              match op with
              | And ->
                  flipped := true;
                  Or
              | Xor ->
                  flipped := true;
                  Xnor
              | _ -> op
          in
          map.(s) <- gate b op' (List.map (fun a -> map.(a)) args)
      | Input _ | Reg_out _ -> ())
    (topo_order c);
  Array.iteri
    (fun i r -> connect_reg b regs.(i) ~data:map.(r.data))
    c.registers;
  Array.iter (fun (n, s) -> output b n map.(s)) c.outputs;
  (finish b, !flipped)

let retimed_pair n =
  let c = Fig2.gate n in
  (c, Forward.retime c (Cut.maximal c))

(* ------------------------------------------------------------------ *)
(* SMV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_smv_equiv () =
  let c, r = retimed_pair 4 in
  check "equivalent" true (is_equiv (Engines.Smv.equiv (budget ()) c r).result)

let test_smv_self () =
  let c = Fig2.gate 3 in
  check "self-equivalent" true
    (is_equiv (Engines.Smv.equiv (budget ()) c c).result)

let test_smv_refutes () =
  let c = Fig2.gate 3 in
  let bad, flipped = sabotage c in
  check "sabotage applied" true flipped;
  check "refuted" true (is_refuted (Engines.Smv.equiv (budget ()) c bad).result)

let test_smv_timeout () =
  let c, r = retimed_pair 8 in
  let b = Engines.Common.budget_of_seconds 0.0 in
  check "times out" true
    ((Engines.Smv.equiv b c r).result = Engines.Common.Timeout)

let test_smv_stats () =
  let c, r = retimed_pair 3 in
  let rep = Engines.Smv.equiv (budget ()) c r in
  let extra k = List.assoc k rep.extra in
  check "equivalent" true (is_equiv rep.result);
  check "iterations counted" true (extra "bfs_iterations" >= 1.);
  check "peak size positive" true (extra "peak_reached_size" >= 1.)

(* ------------------------------------------------------------------ *)
(* SIS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sis_equiv () =
  let c, r = retimed_pair 3 in
  let rep = Engines.Sis_fsm.equiv (budget ()) c r in
  check "equivalent" true (is_equiv rep.result);
  check "visited states" true (List.assoc "visited_states" rep.extra >= 1.)

let test_sis_refutes () =
  let c = Fig2.gate 3 in
  let bad, _ = sabotage c in
  check "refuted" true
    (is_refuted (Engines.Sis_fsm.equiv (budget ()) c bad).result)

let test_sis_too_many_inputs () =
  let c, r = retimed_pair 16 in
  match (Engines.Sis_fsm.equiv (budget ()) c r).result with
  | Engines.Common.Inconclusive _ -> ()
  | _ -> Alcotest.fail "expected inconclusive on 32 inputs"

(* ------------------------------------------------------------------ *)
(* van Eijk                                                            *)
(* ------------------------------------------------------------------ *)

let test_eijk_equiv () =
  let c, r = retimed_pair 4 in
  check "equivalent" true (is_equiv (Engines.Eijk.equiv (budget ()) c r).result)

let test_eijk_star_equiv () =
  let c, r = retimed_pair 4 in
  check "equivalent" true
    (is_equiv
       (Engines.Eijk.equiv ~exploit_dependencies:true (budget ()) c r).result)

let test_eijk_incomplete_never_refutes () =
  let c = Fig2.gate 3 in
  let bad, _ = sabotage c in
  match (Engines.Eijk.equiv (budget ()) c bad).result with
  | Engines.Common.Equivalent -> Alcotest.fail "must not claim equivalence"
  | Engines.Common.Not_equivalent _ ->
      Alcotest.fail "correspondence cannot refute"
  | Engines.Common.Inconclusive _ | Engines.Common.Timeout -> ()

let test_eijk_synthetic () =
  let e = Iwls.find "s298" in
  let c = Lazy.force e.Iwls.circuit in
  let r = Forward.retime c (Cut.maximal c) in
  check "s298 verified" true
    (is_equiv (Engines.Eijk.equiv (budget ()) c r).result)

(* The union-find refiner and the retained list-based reference refiner
   must reach the same inductive fixpoint from one shared setup — on
   equivalent (retimed) pairs and on sabotaged ones.  The partitions are
   compared in canonical form, polarity included. *)
let prop_eijk_refiners_agree =
  QCheck.Test.make ~count:20 ~name:"eijk union-find matches list refinement"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:14 () in
      let agree a b =
        match
          Engines.Eijk.refine_both_for_tests
            (Engines.Common.budget_of_seconds 10.0)
            a b
        with
        | uf, listed -> uf = listed
        | exception Engines.Common.Out_of_budget -> true
      in
      let retimed_ok =
        match Cut.maximal c with
        | exception Cut.Invalid_cut _ -> true
        | cut -> agree c (Forward.retime c cut)
      in
      let bad, _ = sabotage c in
      retimed_ok && agree c bad)

(* All engines agree on random retimed pairs. *)
let prop_engines_agree =
  QCheck.Test.make ~count:25 ~name:"engines agree on random retimed pairs"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:14 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          let r = Forward.retime c cut in
          let b = Engines.Common.budget_of_seconds 10.0 in
          let smv = (Engines.Smv.equiv b c r).result in
          let sis =
            (Engines.Sis_fsm.equiv (Engines.Common.budget_of_seconds 10.0) c r)
              .result
          in
          is_equiv smv
          && (is_equiv sis
             || sis = Engines.Common.Timeout
             || match sis with
                | Engines.Common.Inconclusive _ -> true
                | _ -> false))

let suite =
  [
    Alcotest.test_case "smv equivalence" `Quick test_smv_equiv;
    Alcotest.test_case "smv self" `Quick test_smv_self;
    Alcotest.test_case "smv refutes" `Quick test_smv_refutes;
    Alcotest.test_case "smv timeout" `Quick test_smv_timeout;
    Alcotest.test_case "smv stats" `Quick test_smv_stats;
    Alcotest.test_case "sis equivalence" `Quick test_sis_equiv;
    Alcotest.test_case "sis refutes" `Quick test_sis_refutes;
    Alcotest.test_case "sis input cap" `Quick test_sis_too_many_inputs;
    Alcotest.test_case "eijk equivalence" `Quick test_eijk_equiv;
    Alcotest.test_case "eijk* equivalence" `Quick test_eijk_star_equiv;
    Alcotest.test_case "eijk never refutes" `Quick
      test_eijk_incomplete_never_refutes;
    Alcotest.test_case "eijk s298" `Slow test_eijk_synthetic;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_eijk_refiners_agree;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_engines_agree;
  ]
