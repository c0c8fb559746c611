(* Formal synthesis vs post-synthesis verification (paper §V, in miniature):
   retime Figure-2 circuits of growing width conventionally, then time how
   long each baseline needs to re-establish what HASH proved while
   synthesising.

     dune exec examples/verification_race.exe *)

let time f =
  let t0 = Logic.Clock.now () in
  let r = f () in
  (r, Logic.Clock.now () -. t0)

let cell result t =
  match result with
  | Engines.Common.Equivalent -> Printf.sprintf "%8.3fs" t
  | Engines.Common.Not_equivalent _ -> "     BUG!"
  | Engines.Common.Inconclusive _ -> "  inconcl"
  | Engines.Common.Timeout -> "        -"

let () =
  Printf.printf "%4s %10s %10s %10s %10s %12s\n" "n" "SIS" "SMV" "Eijk"
    "match" "HASH(proof)";
  List.iter
    (fun n ->
      let c = Fig2.gate n in
      let cut = Cut.maximal c in
      let retimed = Forward.retime c cut in
      let budget () = Engines.Common.budget_of_seconds 5.0 in
      let sis, t_sis =
        time (fun () -> Engines.Sis_fsm.equiv (budget ()) c retimed)
      in
      let smv, t_smv =
        time (fun () -> Engines.Smv.equiv (budget ()) c retimed)
      in
      let eijk, t_eijk =
        time (fun () -> Engines.Eijk.equiv (budget ()) c retimed)
      in
      let m, t_m =
        time (fun () -> Engines.Retime_match.equiv (budget ()) c retimed)
      in
      let _, t_hash =
        time (fun () -> Hash.Synthesis.retime Hash.Embed.Bit_level c cut)
      in
      Printf.printf "%4d %10s %10s %10s %10s %11.3fs\n" n (cell sis t_sis)
        (cell smv t_smv) (cell eijk t_eijk) (cell m t_m) t_hash;
      flush stdout)
    [ 2; 4; 6; 8 ]
