(* Compound synthesis steps (paper §III.A): two formal retiming steps are
   composed by a single transitivity rule application, at constant cost —
   "the overall complexity of the compound synthesis step is the sum of
   its two parts".  Exits 1 unless the compound theorem is closed and
   speaks about the circuits it claims to.

     dune exec examples/compound_synthesis.exe *)

open Logic

(* A two-stage pipeline: two incrementers in sequence behind one register;
   after moving the register over the first stage, the second stage
   becomes retimable in turn. *)
let pipeline n =
  let open Circuit in
  let b = create (Printf.sprintf "pipe%d" n) in
  let a = input b (W n) in
  let b2 = input b (W n) in
  let r = reg b ~init:(Word (n, 0)) (W n) in
  let u1 = gate b Winc [ r ] in
  let u2 = gate b Winc [ u1 ] in
  let sel = gate b Weq [ a; b2 ] in
  let y = gate b Wmux [ sel; u2; b2 ] in
  connect_reg b r ~data:y;
  output b "y" y;
  finish b

let () =
  let c0 = pipeline 8 in
  Format.printf "original:        %a@." Circuit.pp_stats c0;

  (* Step 1: retime over the first incrementer only. *)
  let cut1 = Cut.of_gates c0 [ List.hd (Cut.maximal c0).Cut.f_gates ] in
  let step1 = Hash.Synthesis.retime Hash.Embed.Rt_level c0 cut1 in
  let c1 = step1.Hash.Synthesis.after in
  Format.printf "after step 1:    %a@." Circuit.pp_stats c1;

  (* Step 2: the second incrementer now reads the register. *)
  let step2 = Hash.Synthesis.retime Hash.Embed.Rt_level c1 (Cut.maximal c1) in
  Format.printf "after step 2:    %a@." Circuit.pp_stats
    step2.Hash.Synthesis.after;

  (* Step 3: a different kind of synthesis step — combinational
     resynthesis (constant propagation), justified by COMB_EQUIV_THM. *)
  let step3 =
    Hash.Resynth.resynthesize Hash.Embed.Rt_level step2.Hash.Synthesis.after
  in
  Format.printf "after resynth:   %a@." Circuit.pp_stats
    step3.Hash.Synthesis.after;

  (* Compose all three: two transitivity rules. *)
  let rules_before = Kernel.rule_count () in
  let compound =
    Hash.Synthesis.compose (Hash.Synthesis.compose step1 step2) step3
  in
  let rules_after = Kernel.rule_count () in
  Format.printf
    "@.composition cost: %d kernel rule application(s)@."
    (rules_after - rules_before);
  Format.printf "compound theorem:@.%s@."
    (Kernel.string_of_thm compound.Hash.Synthesis.theorem);
  Format.printf "@.new initial state is f2(f1(q)) = 2: %s@."
    (String.concat ""
       (List.map (fun b -> if b then "1" else "0")
          (Automata.Words.dest_bv
             (snd (Automata.Theory.dest_automaton
                     (Kernel.rhs compound.Hash.Synthesis.theorem))))));
  let closed = Kernel.hyp compound.Hash.Synthesis.theorem = [] in
  let checked = Hash.Synthesis.check compound in
  Format.printf "closed theorem: %b, independent check: %b@." closed checked;
  if not (closed && checked) then exit 1
