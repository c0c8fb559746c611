(* Formal synthesis vs post-synthesis verification (paper §V, in miniature):
   retime Figure-2 circuits of growing width conventionally, then time how
   long each baseline needs to re-establish what HASH proved while
   synthesising.

     dune exec examples/verification_race.exe *)

let cell (r : Engines.Common.result Obs.run) =
  match r.result with
  | Engines.Common.Equivalent -> Printf.sprintf "%8.3fs" r.wall_s
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
      let sis = Engines.Sis_fsm.equiv (budget ()) c retimed in
      let smv = Engines.Smv.equiv (budget ()) c retimed in
      let eijk = Engines.Eijk.equiv (budget ()) c retimed in
      let m = Engines.Retime_match.equiv (budget ()) c retimed in
      let hash =
        Engines.Common.observe ~engine:"hash" (fun () ->
            (Hash.Synthesis.retime Hash.Embed.Bit_level c cut, []))
      in
      Printf.printf "%4d %10s %10s %10s %10s %11.3fs\n" n (cell sis)
        (cell smv) (cell eijk) (cell m) hash.wall_s;
      flush stdout)
    [ 2; 4; 6; 8 ]
