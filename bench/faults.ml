(* Fault-injection campaign driver.

     dune exec bench/faults.exe -- [--baseline PATH] [--out PATH]

   Environment:
     FAULTS_MUTANTS  total mutants (default 600; the acceptance floor in
                     ISSUE/EXPERIMENTS is 500)
     FAULTS_SEED     campaign seed (default 1)
     FAULTS_BUDGET   per-mutant formal-step budget, seconds (default 30)
     BENCH_JOBS      worker domains (default: all cores)

   Writes BENCH_faults.json and exits non-zero when the campaign refutes
   the paper's claim (an accepted-but-inequivalent mutant), when any
   mutant died with an exception outside the typed taxonomy, or — with
   --baseline — when wrong-exception counts regressed versus the
   checked-in report. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> (
      match float_of_string_opt v with Some f -> f | None -> default)
  | None -> default

let () =
  let baseline = ref None in
  let out = ref "BENCH_faults.json" in
  let rec parse_args = function
    | [] -> ()
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        parse_args rest
    | "--out" :: path :: rest ->
        out := path;
        parse_args rest
    | arg :: _ ->
        Printf.eprintf "faults: unknown argument %s\n" arg;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let config =
    {
      Faults.Campaign.default with
      Faults.Campaign.mutants = env_int "FAULTS_MUTANTS" 600;
      seed = env_int "FAULTS_SEED" 1;
      budget_s = env_float "FAULTS_BUDGET" 30.;
    }
  in
  let jobs =
    match Sys.getenv_opt "BENCH_JOBS" with
    | Some v -> ( match int_of_string_opt v with Some n -> max 1 n | None -> 1)
    | None -> Domain.recommended_domain_count ()
  in
  let bases = Faults.Campaign.default_bases () in
  Printf.printf "fault campaign: %d mutants, seed %d, %d classes, %d bases, \
                 jobs=%d\n%!"
    config.Faults.Campaign.mutants config.Faults.Campaign.seed
    (List.length Faults.Mutate.classes)
    (Array.length bases) jobs;
  let t0 = Logic.Clock.now () in
  let table =
    if jobs <= 1 then Faults.Campaign.run config
    else
      Parallel.Pool.run ~workers:jobs (fun pool ->
          (* chunked fan-out: each chunk is a deterministic mutant range,
             so the merged result is independent of the schedule *)
          let n = config.Faults.Campaign.mutants in
          let chunk = max 1 ((n + (4 * jobs) - 1) / (4 * jobs)) in
          let futures = ref [] in
          let lo = ref 0 in
          while !lo < n do
            let lo' = !lo and hi' = min n (!lo + chunk) in
            futures :=
              Parallel.Pool.submit pool (fun () ->
                  Faults.Campaign.run_range config ~bases lo' hi')
              :: !futures;
            lo := hi'
          done;
          let table = Hashtbl.create 16 in
          List.iter
            (fun fut ->
              Faults.Campaign.merge_tables ~into:table
                (Parallel.Pool.await fut))
            (List.rev !futures);
          table)
  in
  let wall = Logic.Clock.now () -. t0 in
  let tot = Faults.Campaign.totals table in
  let doc = Faults.Campaign.report_json ~config ~jobs table in
  Obs.Json.to_file !out doc;
  (* human-readable summary *)
  Printf.printf "%-26s %8s %8s %6s %6s %6s\n" "class" "mutants" "rejected"
    "accEq" "accNE" "wrong";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (k, (v : Obs.Faults.t)) ->
         Printf.printf "%-26s %8d %8d %6d %6d %6d\n" k v.Obs.Faults.mutants
           (Obs.Faults.rejected v) v.Obs.Faults.accepted_equivalent
           v.Obs.Faults.accepted_inequivalent v.Obs.Faults.wrong_exception);
  Printf.printf
    "total: %d mutants, %d rejected, %d accepted-equivalent, %d \
     accepted-INEQUIVALENT, %d wrong-exception (%.1f s)\n"
    tot.Obs.Faults.mutants (Obs.Faults.rejected tot)
    tot.Obs.Faults.accepted_equivalent tot.Obs.Faults.accepted_inequivalent
    tot.Obs.Faults.wrong_exception wall;
  Printf.printf "rejections by class:";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tot.Obs.Faults.rejections []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf " %s=%d" k v);
  print_newline ();
  let failed = ref false in
  if tot.Obs.Faults.accepted_inequivalent > 0 then begin
    Printf.printf
      "FAIL: %d accepted-but-inequivalent mutant(s) — soundness bug\n"
      tot.Obs.Faults.accepted_inequivalent;
    failed := true
  end;
  if tot.Obs.Faults.wrong_exception > 0 then begin
    Printf.printf "FAIL: %d mutant(s) rejected outside the typed taxonomy:"
      tot.Obs.Faults.wrong_exception;
    Hashtbl.iter
      (fun k v -> Printf.printf " %s=%d" k v)
      tot.Obs.Faults.wrong_classes;
    print_newline ();
    failed := true
  end;
  (* baseline gate: the wrong-exception count may never grow past the
     checked-in report (per class and in total) *)
  (match !baseline with
  | None -> ()
  | Some path ->
      let doc = Obs.Json.of_file path in
      let get_int j k =
        match Obs.Json.member k j with Some (Obs.Json.Int n) -> n | _ -> 0
      in
      let base_wrong = get_int doc "wrong_exception" in
      if tot.Obs.Faults.wrong_exception > base_wrong then begin
        Printf.printf
          "FAIL: wrong-exception regressions vs %s (%d > %d)\n" path
          tot.Obs.Faults.wrong_exception base_wrong;
        failed := true
      end
      else
        Printf.printf "baseline gate: wrong_exception %d <= %d (%s)\n"
          tot.Obs.Faults.wrong_exception base_wrong path);
  if !failed then exit 1;
  Printf.printf "PASS: zero accepted-inequivalent mutants — \"fail, never \
                 falsify\" holds on this campaign\n"
