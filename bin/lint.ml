(* lint.exe — the trusted-kernel-boundary audit, as a CI gate.

   Two modes:
   - tree mode (no file arguments): scan lib/**/*.ml and bin/**/*.ml
     under --root, each rule within its path scope, check the lib/
     exports against the typed trees dune wrote (unused-export), report
     stale allowlist entries, and exit non-zero on any finding that
     --config does not exempt;
   - file mode (explicit .ml paths): check each file with every per-file
     rule in force regardless of scopes — what the CI seeded-violation
     check and ad-hoc fixture runs want.

   Findings print as `file:line rule message`, one per line. *)

let usage =
  "lint.exe [--config lint.config] [--root DIR] [--json FILE] [-v] [FILE.ml ...]"

let () =
  let config_path = ref "lint.config" in
  let root = ref "." in
  let json_out = ref "" in
  let verbose = ref false in
  let files = ref [] in
  let spec =
    [
      ("--config", Arg.Set_string config_path, "FILE exemption inventory (lint.config)");
      ("--root", Arg.Set_string root, "DIR repository root (tree mode)");
      ("--json", Arg.Set_string json_out, "FILE write a BENCH_lint summary");
      ("-v", Arg.Set verbose, " also print the exemption inventory");
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  let config =
    if Sys.file_exists !config_path then Lintpass.Config.of_file !config_path
    else Lintpass.Config.empty
  in
  let report =
    match List.rev !files with
    | [] -> Lintpass.check_tree ~config ~root:!root
    | fs ->
        List.fold_left
          (fun acc f ->
            let ic = open_in_bin f in
            let src =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            let r = Lintpass.check_source ~config ~file:f src in
            {
              Lintpass.files = acc.Lintpass.files + r.Lintpass.files;
              violations = acc.Lintpass.violations @ r.Lintpass.violations;
              allowed = acc.Lintpass.allowed @ r.Lintpass.allowed;
            })
          { Lintpass.files = 0; violations = []; allowed = [] }
          fs
  in
  List.iter
    (fun f -> Format.printf "%a@." Lintpass.pp_finding f)
    report.Lintpass.violations;
  if !verbose then
    List.iter
      (fun (f, just) ->
        Format.printf "allowed: %a  [%s]@." Lintpass.pp_finding f just)
      report.Lintpass.allowed;
  if !json_out <> "" then
    Obs.Json.to_file !json_out (Lintpass.report_json ~config ~root:!root report);
  Format.printf "lint: %d files, %d violations, %d allowed (allowlist: %d)@."
    report.Lintpass.files
    (List.length report.Lintpass.violations)
    (List.length report.Lintpass.allowed)
    (Lintpass.Config.allow_count config);
  exit (if report.Lintpass.violations = [] then 0 else 1)
