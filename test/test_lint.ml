(* The lint pass is itself part of the trusted tooling: these tests pin
   each rule to a known-bad fixture that MUST be flagged and a near-miss
   that MUST pass, so a refactor of the analyzer cannot silently blunt a
   rule.  The final test runs the real tree through the real lint.config
   and asserts zero unallowlisted findings — the same property the CI
   lane gates. *)

let check ?config src =
  Lintpass.check_source ?config ~file:"fixture.ml" src

let violations ?config rule src =
  List.filter
    (fun f -> f.Lintpass.rule = rule)
    (check ?config src).Lintpass.violations

let count ?config rule src = List.length (violations ?config rule src)

let flagged rule src what () =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s" rule what)
    true
    (count rule src > 0)

let clean rule src what () =
  let r = check src in
  Alcotest.(check (list string))
    (Printf.sprintf "%s passes %s" rule what)
    []
    (List.filter_map
       (fun f ->
         if f.Lintpass.rule = rule then
           Some (Format.asprintf "%a" Lintpass.pp_finding f)
         else None)
       r.Lintpass.violations)

(* ------------------------------------------------------------------ *)
(* kernel-boundary                                                     *)
(* ------------------------------------------------------------------ *)

let kb = "kernel-boundary"

let kernel_boundary_fixtures =
  [
    ("Obj.magic", flagged kb "let f x = Obj.magic x" "Obj.magic");
    ("Obj.repr", flagged kb "let f x = Obj.repr x" "Obj.repr");
    ( "Marshal",
      flagged kb "let dump t = Marshal.to_string t []" "Marshal use" );
    ( "thm-shaped record",
      flagged kb "let forge c = { hyps = []; concl = c }" "thm record" );
    ( "equation-shaped thm record",
      flagged kb "let forge t = { hyps = []; lhs = t; rhs = t }"
        "equational thm record" );
    ( "thm record with one side",
      flagged kb "let forge t = { hyps = []; lhs = t }" "one-sided record" );
    ( "Kernel_invariant discarded",
      flagged kb
        "let f g = try g () with Hash.Errors.Kernel_invariant _ -> 0"
        "discarded Kernel_invariant" );
    ( "near-miss: other module's magic",
      clean kb "let f x = MyObj.magic x" "unrelated magic" );
    ( "near-miss: partial thm record",
      clean kb "let r = { hyps = [] }" "record with hyps only" );
    ( "near-miss: sides without hyps",
      clean kb "let rule l r = { lhs = l; rhs = r }" "rewrite-rule record" );
    ( "near-miss: Kernel_invariant re-raised",
      clean kb
        "let f g = try g () with Hash.Errors.Kernel_invariant m as e -> log \
         m; raise e"
        "re-raising handler" );
  ]

(* ------------------------------------------------------------------ *)
(* typed-errors                                                        *)
(* ------------------------------------------------------------------ *)

let te = "typed-errors"

let typed_errors_fixtures =
  [
    ("failwith", flagged te "let f () = failwith \"boom\"" "failwith");
    ("invalid_arg", flagged te "let f () = invalid_arg \"bad\"" "invalid_arg");
    ("assert false", flagged te "let f () = assert false" "assert false");
    ( "near-miss: assert cond",
      clean te "let f x = assert (x > 0)" "assert with a condition" );
    ( "near-miss: typed raise",
      clean te "let f () = raise (Invalid_cut \"bad cut\")"
        "typed taxonomy raise" );
  ]

(* ------------------------------------------------------------------ *)
(* catch-all                                                           *)
(* ------------------------------------------------------------------ *)

let ca = "catch-all"

let catch_all_fixtures =
  [
    ("try-with wildcard", flagged ca "let f g = try g () with _ -> 0" "with _");
    ( "wildcard among cases",
      flagged ca "let f g = try g () with Not_found -> 1 | _ -> 0"
        "| _ -> in a handler" );
    ( "match-exception wildcard",
      flagged ca "let f g = match g () with v -> v | exception _ -> 0"
        "exception _" );
    ( "near-miss: typed handler",
      clean ca "let f g = try g () with Not_found -> 0" "typed handler" );
    ( "near-miss: named handler",
      clean ca "let f g = try g () with e -> classify e" "named handler" );
    ( "near-miss: value wildcard",
      clean ca "let f x = match x with 1 -> true | _ -> false"
        "wildcard in a value match" );
    ( "near-miss: typed exception case",
      clean ca
        "let f g = match g () with v -> v | exception Failure _ -> 0"
        "typed match-exception" );
  ]

(* ------------------------------------------------------------------ *)
(* domain-safety                                                       *)
(* ------------------------------------------------------------------ *)

let ds = "domain-safety"

let domain_safety_fixtures =
  [
    ( "top-level Hashtbl",
      flagged ds "let table = Hashtbl.create 16" "top-level Hashtbl.create" );
    ("top-level ref", flagged ds "let counter = ref 0" "top-level ref");
    ( "top-level Buffer",
      flagged ds "let scratch = Buffer.create 256" "top-level Buffer.create" );
    ( "ref behind a let-in",
      flagged ds "let state = let r = ref [] in r" "ref escaping a let-in" );
    ( "mutable-field record literal",
      flagged ds "type t = { mutable n : int }\nlet global = { n = 0 }"
        "top-level mutable record" );
    ( "near-miss: DLS key",
      clean ds "let key = Domain.DLS.new_key (fun () -> Hashtbl.create 16)"
        "DLS-keyed state" );
    ("near-miss: Atomic", clean ds "let hits = Atomic.make 0" "Atomic.t");
    ("near-miss: Mutex", clean ds "let mu = Mutex.create ()" "a mutex");
    ( "near-miss: function-local",
      clean ds "let fresh () = Hashtbl.create 16" "per-call allocation" );
    ( "near-miss: immutable record",
      clean ds "type t = { n : int }\nlet zero = { n = 0 }"
        "immutable record" );
  ]

(* ------------------------------------------------------------------ *)
(* clock                                                               *)
(* ------------------------------------------------------------------ *)

let cl = "clock"

let clock_fixtures =
  [
    ( "Unix.gettimeofday",
      flagged cl "let f () = Unix.gettimeofday ()" "Unix.gettimeofday" );
    ("Unix.time", flagged cl "let f () = Unix.time ()" "Unix.time");
    ("Sys.time", flagged cl "let f () = Sys.time ()" "Sys.time");
    ( "gettimeofday as a value",
      flagged cl "let now = Unix.gettimeofday" "an unapplied reference" );
    ( "near-miss: monotonic clock",
      clean cl "let f () = Logic.Clock.now ()" "Logic.Clock.now" );
    ( "near-miss: calendar conversion",
      clean cl "let f t = Unix.gmtime t" "Unix.gmtime" );
  ]

(* ------------------------------------------------------------------ *)
(* Allowlist mechanics                                                 *)
(* ------------------------------------------------------------------ *)

(* lint.config is the only inventory of exemptions: an attribute in the
   source, which neither the allowlist ceiling nor stale-allow sees,
   exempts nothing. *)
let test_attribute_exempts_nothing () =
  let r =
    check "let table = Hashtbl.create 16 [@@lint.allow \"domain-safety\"]"
  in
  Alcotest.(check (list string)) "the binding is a violation"
    [ "domain-safety" ]
    (List.map (fun f -> f.Lintpass.rule) r.Lintpass.violations);
  Alcotest.(check int) "nothing allowed" 0 (List.length r.Lintpass.allowed)

let test_config_allow () =
  let config =
    Lintpass.Config.parse ~file:"test.config"
      "allow domain-safety fixture.ml table -- guarded by mutex test_mu"
  in
  let r =
    Lintpass.check_source ~config ~file:"fixture.ml"
      "let table = Hashtbl.create 16"
  in
  Alcotest.(check int) "no violations" 0 (List.length r.Lintpass.violations);
  match r.Lintpass.allowed with
  | [ (f, just) ] ->
      Alcotest.(check string) "rule" "domain-safety" f.Lintpass.rule;
      Alcotest.(check string) "justification" "guarded by mutex test_mu" just
  | l -> Alcotest.failf "expected one allowed finding, got %d" (List.length l)

let test_config_rejects_unknown_rule () =
  Alcotest.check_raises "unknown rule"
    (Lintpass.Config_error
       "test.config:1 unknown rule \"no-such-rule\" (rules: kernel-boundary, \
        typed-errors, catch-all, domain-safety, clock, unused-export)")
    (fun () ->
      ignore (Lintpass.Config.parse ~file:"test.config"
                "allow no-such-rule a.ml x -- why"))

(* Rule scopes live beside the rules in lintpass.ml, not in the config. *)
let test_config_rejects_scope () =
  Alcotest.check_raises "scope directive"
    (Lintpass.Config_error "test.config:1 unknown directive \"scope\"")
    (fun () ->
      ignore (Lintpass.Config.parse ~file:"test.config"
                "scope domain-safety lib/"))

(* A rule's carve-outs live beside its scope too: a config line cannot
   exempt a whole subtree. *)
let test_config_rejects_except () =
  Alcotest.check_raises "except directive"
    (Lintpass.Config_error "test.config:1 unknown directive \"except\"")
    (fun () ->
      ignore (Lintpass.Config.parse ~file:"test.config"
                "except kernel-boundary lib/hol/kernel.ml"))

let test_parse_error_is_violation () =
  let r = check "let let let" in
  match r.Lintpass.violations with
  | [ f ] -> Alcotest.(check string) "rule" "parse-error" f.Lintpass.rule
  | l -> Alcotest.failf "expected one parse-error, got %d" (List.length l)

let test_multiple_rules_one_file () =
  let src =
    "let t = Hashtbl.create 4\nlet f g = try g () with _ -> failwith \"x\""
  in
  let r = check src in
  let rules =
    List.sort_uniq compare
      (List.map (fun f -> f.Lintpass.rule) r.Lintpass.violations)
  in
  Alcotest.(check (list string))
    "three rules fire" [ "catch-all"; "domain-safety"; "typed-errors" ] rules

(* ------------------------------------------------------------------ *)
(* The tree itself                                                     *)
(* ------------------------------------------------------------------ *)

(* Locate the repository root: tests run from _build/default/test, where
   dune has materialised the sources (declared as test deps), so walking
   up finds them. *)
let find_root () =
  let rec up dir n =
    if n = 0 then None
    else if
      Sys.file_exists (Filename.concat dir "lint.config")
      && Sys.file_exists (Filename.concat dir "lib/hol/kernel.ml")
    then Some dir
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 6

(* ------------------------------------------------------------------ *)
(* unused-export                                                       *)
(* ------------------------------------------------------------------ *)

(* test/lint_fixture is a miniature repository.  lib/fixlib (a wrapped
   library) and lib/fixmain (one with a main module of its own) export
   vals; the units under bin/ reference them in each of the ways the
   rule must resolve, and one under test/ references Tested, which the
   rule must not count as a use.  Own.self_only, used only inside its own
   unit, is referenced by nobody else, and so is the second val of each
   unit reached only through an alias, a let-module alias, a re-export
   ([module T = Target] in Reexport) or a re-exporting include
   (Incl_reexport): an alias uses what is referenced through it, not the
   whole unit. *)
let fixture_root () =
  match find_root () with
  | None -> Alcotest.fail "repository root not found from test cwd"
  | Some root ->
      let fixture r = Filename.concat r "test/lint_fixture" in
      let built = fixture (Filename.concat root "_build/default") in
      if Sys.file_exists built then built else fixture root

let fixture_findings =
  lazy
    (let r =
       Lintpass.check_tree ~config:Lintpass.Config.empty
         ~root:(fixture_root ())
     in
     List.map
       (fun f ->
         Printf.sprintf "%s %s %s" f.Lintpass.rule f.Lintpass.file
           f.Lintpass.symbol)
       r.Lintpass.violations)

let export_case file symbol ~flagged () =
  Alcotest.(check bool)
    (Printf.sprintf "%s %s flagged" file symbol)
    flagged
    (List.mem
       (Printf.sprintf "unused-export %s %s" file symbol)
       (Lazy.force fixture_findings))

let unused_export_fixtures =
  let fixlib m = Printf.sprintf "lib/fixlib/%s.mli" m in
  [
    ( "qualified reference through a wrapped library",
      export_case (fixlib "qual") "used_qualified" ~flagged:false );
    ( "wrapped unit named by its own unit name",
      export_case (fixlib "qual") "spelled_unit" ~flagged:false );
    ( "val of a submodule",
      export_case (fixlib "qual") "Sub.nested" ~flagged:false );
    ( "reference through the alias module of a main-module library",
      export_case "lib/fixmain/inner.mli" "inside" ~flagged:false );
    ("open", export_case (fixlib "opened") "through_open" ~flagged:false);
    ( "local module alias",
      export_case (fixlib "aliased") "through_alias" ~flagged:false );
    ( "local module alias does not use the rest",
      export_case (fixlib "aliased") "hidden_by_alias" ~flagged:true );
    ( "let module alias",
      export_case (fixlib "let_aliased") "through_let_module" ~flagged:false );
    ( "let module alias does not use the rest",
      export_case (fixlib "let_aliased") "hidden_by_let_module" ~flagged:true );
    ( "cross-unit re-export",
      export_case (fixlib "target") "through_reexport" ~flagged:false );
    ( "cross-unit re-export does not use the rest",
      export_case (fixlib "target") "hidden_by_reexport" ~flagged:true );
    ( "re-exporting include",
      export_case (fixlib "incl_target") "through_include_reexport"
        ~flagged:false );
    ( "re-exporting include does not use the rest",
      export_case (fixlib "incl_target") "hidden_by_include_reexport"
        ~flagged:true );
    ("include", export_case (fixlib "included") "through_include" ~flagged:false);
    ( "functor argument",
      export_case (fixlib "arg") "through_functor" ~flagged:false );
    ( "val used only inside its own unit",
      export_case (fixlib "own") "self_only" ~flagged:true );
    ( "val used only from test/",
      export_case (fixlib "tested") "only_from_test" ~flagged:true );
    ( "allow entry excuses a test seam",
      fun () ->
        let config =
          Lintpass.Config.parse ~file:"test.config"
            "allow unused-export lib/fixlib/tested.mli only_from_test -- \
             test/check.ml needs it"
        in
        let r = Lintpass.check_tree ~config ~root:(fixture_root ()) in
        let seam f =
          f.Lintpass.rule = "unused-export"
          && f.Lintpass.symbol = "only_from_test"
        in
        Alcotest.(check bool) "not a violation" false
          (List.exists seam r.Lintpass.violations);
        Alcotest.(check (list string)) "allowed, with its reason"
          [ "test/check.ml needs it" ]
          (List.filter_map
             (fun (f, why) -> if seam f then Some why else None)
             r.Lintpass.allowed) );
    ( "fixture: the expected findings",
      fun () ->
        Alcotest.(check (list string))
          "findings"
          [
            "unused-export lib/fixlib/aliased.mli hidden_by_alias";
            "unused-export lib/fixlib/incl_target.mli hidden_by_include_reexport";
            "unused-export lib/fixlib/let_aliased.mli hidden_by_let_module";
            "unused-export lib/fixlib/own.mli self_only";
            "unused-export lib/fixlib/target.mli hidden_by_reexport";
            "unused-export lib/fixlib/tested.mli only_from_test";
          ]
          (Lazy.force fixture_findings) );
  ]

let test_tree_is_clean () =
  match find_root () with
  | None -> Alcotest.fail "repository root not found from test cwd"
  | Some root ->
      let config = Lintpass.Config.of_file (Filename.concat root "lint.config") in
      let r = Lintpass.check_tree ~config ~root in
      Alcotest.(check bool)
        "scanned a real tree (> 40 files)" true (r.Lintpass.files > 40);
      Alcotest.(check (list string))
        "zero unallowlisted findings on the tree" []
        (List.map
           (Format.asprintf "%a" Lintpass.pp_finding)
           r.Lintpass.violations);
      (* every exemption in the inventory is in active use *)
      Alcotest.(check bool)
        "allowlist entries all used (no stale-allow)" true
        (List.for_all
           (fun f -> f.Lintpass.rule <> "stale-allow")
           r.Lintpass.violations)

let test_tree_json_summary () =
  match find_root () with
  | None -> Alcotest.fail "repository root not found from test cwd"
  | Some root ->
      let config = Lintpass.Config.of_file (Filename.concat root "lint.config") in
      let r = Lintpass.check_tree ~config ~root in
      let json = Lintpass.report_json ~config ~root r in
      let get k =
        match Obs.Json.member k json with
        | Some (Obs.Json.Int n) -> n
        | _ -> Alcotest.failf "missing int field %s" k
      in
      Alcotest.(check int) "violations" 0 (get "violations");
      Alcotest.(check int) "stale allows" 0 (get "stale_allows");
      Alcotest.(check bool) "allowlist size reported" true
        (get "allowlist_size" > 0);
      Alcotest.(check bool) "allowed inventory reported" true
        (get "allowed" >= get "allowlist_size");
      Alcotest.(check bool) "trusted base counted" true
        (get "trusted_lines" > 0)

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    (kernel_boundary_fixtures @ typed_errors_fixtures @ catch_all_fixtures
   @ domain_safety_fixtures @ clock_fixtures @ unused_export_fixtures
    @ [
        ("an in-source [@lint.allow] exempts nothing",
          test_attribute_exempts_nothing);
        ("config allow with justification", test_config_allow);
        ("config rejects unknown rule", test_config_rejects_unknown_rule);
        ("a scope line is rejected", test_config_rejects_scope);
        ("an except line is rejected", test_config_rejects_except);
        ("parse error is a violation", test_parse_error_is_violation);
        ("multiple rules in one file", test_multiple_rules_one_file);
        ("whole tree runs clean", test_tree_is_clean);
        ("tree JSON summary", test_tree_json_summary);
      ])
