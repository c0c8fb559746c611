(* Quickstart: formally retime the paper's Figure-2 circuit (8-bit) and
   inspect the resulting theorem.

     dune exec examples/quickstart.exe *)

open Logic

let () =
  (* The scalable example of the paper's Figure 2, at RT level: an
     incrementer (+1), a comparator (=) and a multiplexer around one n-bit
     register initialised to 0. *)
  let circuit = Fig2.rt 8 in
  Format.printf "input circuit:   %a@." Circuit.pp_stats circuit;

  (* The retiming cut: f = {+1} (registers move over the incrementer),
     g = {=, MUX}.  On this circuit it is also the maximal cut. *)
  let cut = Cut.maximal circuit in
  Format.printf "cut: f covers %d gate(s), boundary %d, pass-through %d@."
    (List.length cut.Cut.f_gates)
    (List.length cut.Cut.boundary)
    (List.length cut.Cut.passthrough);

  (* The formal synthesis step: split / instantiate RETIMING_THM / join /
     evaluate the new initial state — all by kernel rule applications. *)
  let step = Hash.Synthesis.retime Hash.Embed.Rt_level circuit cut in
  Format.printf "output circuit:  %a@." Circuit.pp_stats
    step.Hash.Synthesis.after;

  Format.printf "@.The theorem produced by the synthesis step:@.%s@.@."
    (Kernel.string_of_thm step.Hash.Synthesis.theorem);

  (* The new initial state is f(q) = 0+1 = 1, computed deductively. *)
  let _, q' =
    Automata.Theory.dest_automaton (Kernel.rhs step.Hash.Synthesis.theorem)
  in
  Format.printf "new initial state (LSB first): %s@."
    (String.concat ""
       (List.map (fun b -> if b then "1" else "0")
          (Automata.Words.dest_bv q')));

  Format.printf "independent check (theorem speaks about the circuits): %b@."
    (Hash.Synthesis.check step);
  Format.printf "kernel rule applications so far: %d@."
    (Kernel.rule_count ())
