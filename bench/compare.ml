(* Compare two BENCH_micro.json files and fail when a gated row regresses.

     dune exec bench/compare.exe -- OLD.json NEW.json [--threshold PCT]
                                                      [--prefix P]...

   Exit codes: 0 = no regression, 1 = at least one row regressed by more
   than the threshold (default 20%), 2 = usage or parse error.  Rows are
   matched by name under the given prefixes; --prefix is repeatable, and
   when absent the gate covers "kernel/", "bdd/", "eijk/", "hash/" and
   "netlist/".
   The per-row delta table is always printed, gate pass or fail.  Rows
   missing on either side are reported but do not fail the gate (new
   benchmarks appear, old ones get renamed).  Files are read with
   [Obs.Json.parse], the same reader the serve daemon uses. *)

module J = Obs.Json

(* name -> ns_per_run for every benchmark row in the file; the emitter
   writes a whole-number [ns_per_run] as an [Int] *)
let rows_of_file path =
  let j =
    try J.of_file path with
    | Sys_error e ->
        Printf.eprintf "compare: cannot read %s: %s\n" path e;
        exit 2
    | J.Parse_error e ->
        Printf.eprintf "compare: cannot parse %s: %s\n" path e;
        exit 2
  in
  match j with
  | J.Obj _ -> (
      match J.member "benchmarks" j with
      | Some (J.List rows) ->
          List.filter_map
            (fun r ->
              match (J.member "name" r, J.member "ns_per_run" r) with
              | Some (J.Str name), Some (J.Float ns) -> Some (name, ns)
              | Some (J.Str name), Some (J.Int ns) ->
                  Some (name, float_of_int ns)
              | _ -> None)
            rows
      | _ ->
          Printf.eprintf "compare: %s has no \"benchmarks\" array\n" path;
          exit 2)
  | _ ->
      Printf.eprintf "compare: %s is not a JSON object\n" path;
      exit 2

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let threshold = ref 20.0 in
  let prefixes = ref [] in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> threshold := f
        | _ ->
            Printf.eprintf "compare: bad threshold %s\n" v;
            exit 2);
        parse_args rest
    | "--prefix" :: v :: rest ->
        prefixes := v :: !prefixes;
        parse_args rest
    | f :: rest ->
        files := f :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let prefixes =
    match List.rev !prefixes with
    | [] -> [ "kernel/"; "bdd/"; "eijk/"; "hash/"; "netlist/" ]
    | ps -> ps
  in
  match List.rev !files with
  | [ old_path; new_path ] ->
      let old_rows = rows_of_file old_path in
      let new_rows = rows_of_file new_path in
      let starts_with p s =
        String.length s >= String.length p
        && String.sub s 0 (String.length p) = p
      in
      let gated_name n = List.exists (fun p -> starts_with p n) prefixes in
      let gated = List.filter (fun (n, _) -> gated_name n) old_rows in
      if gated = [] then
        Printf.printf "compare: no rows under prefixes %s in %s\n"
          (String.concat ", " prefixes)
          old_path;
      Printf.printf "%-30s %14s %14s %9s\n" "benchmark" "old ns/run"
        "new ns/run" "delta";
      let regressed = ref [] in
      List.iter
        (fun (name, old_ns) ->
          match List.assoc_opt name new_rows with
          | None ->
              Printf.printf "%-30s %14.1f %14s %9s\n" name old_ns "(gone)" "-"
          | Some new_ns ->
              let delta_pct =
                if old_ns > 0.0 then (new_ns -. old_ns) /. old_ns *. 100.0
                else 0.0
              in
              Printf.printf "%-30s %14.1f %14.1f %+8.1f%%\n" name old_ns
                new_ns delta_pct;
              if delta_pct > !threshold then
                regressed := (name, delta_pct) :: !regressed)
        gated;
      List.iter
        (fun (name, _) ->
          if gated_name name && not (List.mem_assoc name old_rows) then
            Printf.printf "%-30s %14s (new row)\n" name "-")
        new_rows;
      if !regressed <> [] then begin
        Printf.printf "\nREGRESSION: %d row(s) over the %.0f%% threshold:\n"
          (List.length !regressed) !threshold;
        List.iter
          (fun (name, pct) -> Printf.printf "  %s (+%.1f%%)\n" name pct)
          (List.rev !regressed);
        exit 1
      end
      else
        Printf.printf "\nno regressions over %.0f%% (prefixes: %s)\n"
          !threshold
          (String.concat ", " prefixes)
  | _ ->
      Printf.eprintf
        "usage: compare OLD.json NEW.json [--threshold PCT] [--prefix P]...\n";
      exit 2
