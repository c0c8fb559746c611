(* Judge two run sets of the service benchmark against the bounds in
   BENCHMARK.json:

     compare.exe BENCHMARK.json PARENT.json CHANGE.json

   A run-set file is what [e2e.exe --out FILE] accumulates
   ({"runs": [...]}); traced runs are skipped.  For every workload and
   end-to-end metric it prints each side's median and quartiles and the
   verdict of {!Judge.judge}.  Exits 1 on any regression or on a change
   run that failed its correctness check. *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("compare: " ^ m);
      exit 2)
    fmt

let load path =
  match Obs.Json.of_file path with
  | exception (Sys_error m | Obs.Json.Parse_error m) -> die "%s: %s" path m
  | j -> j

let () =
  match Sys.argv with
  | [| _; bench; parent; change |] ->
      let b = load bench in
      let workloads =
        match Obs.Json.member "workloads" b with
        | Some (Obs.Json.List l) -> List.filter_map (Judge.str "name") l
        | _ -> die "%s: no workloads" bench
      in
      let metrics = Judge.metrics_of_benchmark b in
      let runs path =
        match Judge.runs_of_json (load path) with
        | [] -> die "%s: no runs" path
        | rs -> rs
      in
      let pr = runs parent and ch = runs change in
      let regressed = ref false in
      List.iter
        (fun (r : Judge.run) ->
          if not r.correct then begin
            Printf.printf "%s seed %d: the change failed its correctness check\n" r.workload
              r.seed;
            regressed := true
          end)
        ch;
      Printf.printf "%-15s %-22s %28s %28s %8s  %s\n" "workload" "metric"
        "parent median [q1 q3]" "change median [q1 q3]" "change" "verdict";
      List.iter
        (fun w ->
          let of_w = List.filter (fun (r : Judge.run) -> r.workload = w) in
          let parent = of_w pr and change = of_w ch in
          if parent = [] || change = [] then Printf.printf "%-15s (no runs on one side)\n" w
          else
            List.iter
              (fun (m : Judge.metric) ->
                match Judge.compare_metric m ~parent ~change with
                | None -> Printf.printf "%-15s %-22s (not measured)\n" w m.name
                | Some { parent = p; change = c; rel; verdict } ->
                    if verdict = "regressed" then regressed := true;
                    Printf.printf
                      "%-15s %-22s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %+7.1f%%  %s\n"
                      w m.name p.median p.q1 p.q3 c.median c.q1 c.q3 (100.0 *. rel) verdict)
              metrics)
        workloads;
      if !regressed then exit 1
  | _ -> die "usage: compare.exe BENCHMARK.json PARENT.json CHANGE.json"
