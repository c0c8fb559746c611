(* State re-encoding as a formal synthesis step (paper §VI: "HASH also
   provides various other synthesis related transformations on synchronous
   circuits such as state encoding...").

   Here the encoding is a permutation of the register file — the identity
   on behaviour, visible in the state type — performed by instantiating
   the kernel-derived ENCODE_THM and discharging its side condition
   !s. dec (enc s) = s by projection normalisation.  Exits 1 unless each
   theorem it reports is closed and speaks about the circuits it claims
   to.

     dune exec examples/state_encoding.exe *)

open Hol
open Logic

(* A closed theorem about the circuits it claims to, or exit 1. *)
let require what (step : Hash.Synthesis.step) =
  let closed = Kernel.hyp step.Hash.Synthesis.theorem = [] in
  let checked = Hash.Synthesis.check step in
  Format.printf "%s: closed theorem = %b, independent check = %b@." what
    closed checked;
  if not (closed && checked) then exit 1

let () =
  let c = Iwls.synth ~name:"enc_demo" ~ffs:5 ~gates:24 ~ins:2 ~outs:2 ~seed:5 in
  Format.printf "circuit:  %a@." Circuit.pp_stats c;
  (* register r moves to position n-1-r *)
  let n = Array.length c.Circuit.registers in
  let step =
    Hash.Encode.permute_registers Hash.Embed.Bit_level c
      (Array.init n (fun r -> n - 1 - r))
  in
  Format.printf "encoded:  %a@." Circuit.pp_stats step.Hash.Synthesis.after;
  require "encoding (the side condition was discharged)" step;
  (* the two initial states are reversals of each other *)
  let th = step.Hash.Synthesis.theorem in
  let _, q1 = Automata.Theory.dest_automaton (Kernel.lhs th) in
  let _, q2 = Automata.Theory.dest_automaton (Kernel.rhs th) in
  Format.printf "q  = %s@." (Term.to_string q1);
  Format.printf "q' = %s@." (Term.to_string q2);
  (* and it composes with a retiming step like any other *)
  match Cut.maximal step.Hash.Synthesis.after with
  | exception Failure _ -> Format.printf "(no retimable gates afterwards)@."
  | cut ->
      let step2 =
        Hash.Synthesis.retime Hash.Embed.Bit_level step.Hash.Synthesis.after
          cut
      in
      require "composed with a retiming step"
        (Hash.Synthesis.compose step step2)
