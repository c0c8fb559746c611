(* Command-line front end: formally retime a benchmark circuit and
   optionally cross-verify the result with a post-synthesis baseline.

     dune exec bin/hash_retime.exe -- --circuit fig2 -n 8 --level rt
     dune exec bin/hash_retime.exe -- --circuit s298 --verify smv
     dune exec bin/hash_retime.exe -- --list *)

open Cmdliner

let get_circuit name n =
  match name with
  | "fig2" -> Some (Fig2.rt n)
  | "fig2-gate" -> Some (Fig2.gate n)
  | "pipe" ->
      let open Circuit in
      let b = create "pipe" in
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
      |> Option.some
  | _ -> (
      match Iwls.find name with
      | e -> Some (Lazy.force e.Iwls.circuit)
      | exception Not_found -> None)

(* The circuit as single bits: [Bitblast.expand] unless every width is
   already [Circuit.B]. *)
let bit_blasted c =
  if Array.for_all (fun w -> w = Circuit.B) c.Circuit.widths then c
  else Bitblast.expand c

(* The [--verify] baselines, by name. *)
let engines =
  [
    ("smv", Engines.Smv.equiv);
    ("sis", Engines.Sis_fsm.equiv);
    ("eijk", fun budget -> Engines.Eijk.equiv budget);
    ("eijk*", Engines.Eijk.equiv ~exploit_dependencies:true);
  ]

(* The inferences a certificate replays: its step lines other than the
   theory references (kinds A, D and I). *)
let cert_inferences text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         match String.split_on_char ' ' line with
         | "S" :: _ :: kind :: _ -> not (List.mem kind [ "A"; "D"; "I" ])
         | _ -> false)
  |> List.length

let run list_them name n level show_theorem verify deadline cert_file =
  if list_them then begin
    Printf.printf "built-in circuits:\n";
    Printf.printf "  fig2        the paper's Figure-2 example, RT level (-n = width)\n";
    Printf.printf "  fig2-gate   the same, bit-blasted to gates\n";
    Printf.printf "  pipe        a two-stage increment pipeline (-n = width)\n";
    List.iter
      (fun (e : Iwls.entry) -> Printf.printf "  %-11s IWLS'91-like benchmark\n" e.Iwls.name)
      Iwls.suite;
    0
  end
  else
    (* the circuit's builder rejects a width it cannot represent, and
       [Cut.maximal] a circuit with no retimable cut *)
    match
      Option.map
        (fun c ->
          let c = if level = Hash.Embed.Bit_level then bit_blasted c else c in
          (c, Cut.maximal c))
        (get_circuit name n)
    with
    | exception (Circuit.Invalid_netlist msg | Cut.Invalid_cut msg) ->
        Printf.eprintf "%s: %s\n" name msg;
        1
    | None ->
        Printf.eprintf "unknown circuit %s (try --list)\n" name;
        1
    | Some (c, cut) -> (
        Format.printf "circuit: %a@." Circuit.pp_stats c;
        Format.printf "cut: %d f-gates, %d boundary, %d pass-through@."
          (List.length cut.Cut.f_gates)
          (List.length cut.Cut.boundary)
          (List.length cut.Cut.passthrough);
        if cert_file <> None then Logic.Kernel.start_recording ();
        match
          Engines.Common.observe ~engine:"hash" (fun () ->
              (Hash.Synthesis.retime level c cut, []))
        with
        | exception Hash.Errors.Cut_mismatch msg ->
            if cert_file <> None then
              ignore (Logic.Kernel.stop_recording ());
            Printf.eprintf "cut mismatch: %s\n" msg;
            1
        | { Obs.result = step; wall_s = dt; _ } ->
            Format.printf "retimed: %a@." Circuit.pp_stats
              step.Hash.Synthesis.after;
            Format.printf
              "formal synthesis time: %.3fs (split %.3f apply %.3f \
               join %.3f init %.3f)@."
              dt step.Hash.Synthesis.timings.Hash.Synthesis.t_split
              step.Hash.Synthesis.timings.Hash.Synthesis.t_apply
              step.Hash.Synthesis.timings.Hash.Synthesis.t_join
              step.Hash.Synthesis.timings.Hash.Synthesis.t_init;
            if show_theorem then
              Format.printf "@.%s@."
                (Logic.Kernel.string_of_thm step.Hash.Synthesis.theorem);
            (match cert_file with
            | None -> ()
            | Some file -> (
                match Logic.Kernel.stop_recording () with
                | Error msg ->
                    Printf.eprintf "certificate recording failed: %s\n"
                      msg;
                    exit 1
                | Ok tr -> (
                    match Cert.emit tr step.Hash.Synthesis.theorem with
                    | Error msg ->
                        Printf.eprintf
                          "certificate emission failed: %s\n" msg;
                        exit 1
                    | Ok text ->
                        let oc = open_out_bin file in
                        output_string oc text;
                        close_out oc;
                        Format.printf
                          "certificate: %s (%d inference steps, %d \
                           bytes)@."
                          file
                          (cert_inferences text)
                          (String.length text))));
            (match verify with
            | None -> ()
            | Some (engine, equiv) ->
                let run =
                  equiv
                    (Engines.Common.budget_of_seconds deadline)
                    (bit_blasted c)
                    (bit_blasted step.Hash.Synthesis.after)
                in
                Format.printf "%s cross-check: %s (%.3fs)@." engine
                  (Engines.Common.result_to_string run.Obs.result)
                  run.Obs.wall_s);
            0)

let cmd =
  let list_them =
    Arg.(value & flag & info [ "list" ] ~doc:"List built-in circuits.")
  in
  let circ_arg =
    Arg.(
      value
      & opt string "fig2"
      & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"Circuit to retime.")
  in
  let n =
    Arg.(
      value & opt int 8
      & info [ "n" ] ~docv:"N" ~doc:"Bit width for scalable circuits.")
  in
  let level =
    Arg.(
      value
      & opt
          (enum [ ("rt", Hash.Embed.Rt_level); ("bit", Hash.Embed.Bit_level) ])
          Hash.Embed.Rt_level
      & info [ "level" ] ~docv:"rt|bit" ~doc:"Embedding level.")
  in
  let show =
    Arg.(value & flag & info [ "show-theorem" ] ~doc:"Print the theorem.")
  in
  let verify =
    Arg.(
      value
      & opt
          (some (enum (List.map (fun ((name, _) as e) -> (name, e)) engines)))
          None
      & info [ "verify" ] ~docv:"smv|sis|eijk|eijk*"
          ~doc:"Also run a post-synthesis verification baseline.")
  in
  let deadline =
    Arg.(
      value & opt float 30.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Budget for the verification baseline.")
  in
  let cert_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"FILE"
          ~doc:
            "Record the synthesis proof and write an exportable \
             certificate to $(docv), replayable by check.exe.")
  in
  let doc =
    "proof-producing retiming in the HASH formal synthesis system"
  in
  Cmd.v
    (Cmd.info "hash_retime" ~doc)
    Term.(
      const run $ list_them $ circ_arg $ n $ level $ show $ verify $ deadline
      $ cert_file)

let () = exit (Cmd.eval' cmd)
