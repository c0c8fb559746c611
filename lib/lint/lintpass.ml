(* The source-tree audit behind `dune build @lint`.

   Parsing with compiler-libs (not grep) is what makes the rules precise:
   `| _ ->` in a value match is fine, `| _ ->` in an exception handler is
   a finding; `Hashtbl.create` inside a function allocates per call,
   `Hashtbl.create` in a module-top-level binding is shared across every
   domain that touches the library.  Only a parsetree walk can tell these
   apart.

   The pass keeps no module-level state of its own (it must satisfy its
   own domain-safety rule): every scan builds its context in closures. *)

open Parsetree

let rule_kernel = "kernel-boundary"
let rule_typed = "typed-errors"
let rule_catch = "catch-all"
let rule_domain = "domain-safety"
let rule_clock = "clock"
let rule_export = "unused-export"

let rules =
  [
    ( rule_kernel,
      "outside lib/hol/kernel.ml: no Obj.magic/repr/obj, no Marshal, no \
       thm-shaped record literal, no discarded Kernel_invariant handler" );
    ( rule_typed,
      "trust-boundary libraries raise the typed taxonomy, never \
       failwith/invalid_arg/assert false" );
    ( rule_catch,
      "no wildcard exception handler: it can swallow \
       Out_of_memory/Stack_overflow and turn a crash into a wrong verdict"
    );
    ( rule_domain,
      "module-top-level mutable state must be Domain.DLS-keyed, Atomic.t, \
       or allowlisted with the mutex that guards it" );
    ( rule_clock,
      "durations and deadlines read Logic.Clock.now, never \
       Unix.gettimeofday/Unix.time/Sys.time" );
    ( rule_export,
      "every val in a lib/ interface is referenced from another \
       compilation unit under lib/, bin/, bench/, test/ or examples/" );
  ]

let known_rule r = List.mem_assoc r rules

(* Default path scopes, overridable per rule by `scope` lines.  The
   HOL-style [Failure] surface of lib/hol, lib/logic and lib/automata is
   the documented kernel idiom (dest_* / conversions signal "no match"
   with Failure, exactly as in HOL Light), so those libraries are outside
   the typed-errors scope by default rather than drowning the allowlist. *)
let default_scopes =
  [
    (rule_kernel, [ "lib/"; "bin/" ]);
    (rule_typed,
      [
        "lib/netlist/"; "lib/serve/"; "lib/engines/"; "lib/faults/";
        "lib/retiming/"; "lib/circuits/";
      ]);
    (rule_catch, [ "lib/"; "bin/" ]);
    (rule_domain, [ "lib/" ]);
    (rule_clock, [ "lib/"; "bin/" ]);
    (rule_export, [ "lib/" ]);
  ]

exception Config_error of string

type finding = {
  file : string;
  line : int;
  rule : string;
  symbol : string;
  msg : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d %s %s" f.file f.line f.rule f.msg

type report = {
  files : int;
  violations : finding list;
  allowed : (finding * string) list;
}

(* ------------------------------------------------------------------ *)
(* Configuration: scopes, exceptions, and the allowlist                *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type entry = {
    e_rule : string;
    e_path : string;
    e_symbol : string;  (* "*" matches any *)
    e_just : string;
  }

  type t = {
    scopes : (string * string list) list;  (* overrides default_scopes *)
    excepts : (string * string) list;  (* rule, path prefix *)
    entries : entry list;
  }

  let empty = { scopes = []; excepts = []; entries = [] }

  let config_error fmt = Format.kasprintf (fun s -> raise (Config_error s)) fmt

  let check_rule ~file ~lnum r =
    if not (known_rule r) then
      config_error "%s:%d unknown rule %S (rules: %s)" file lnum r
        (String.concat ", " (List.map fst rules))

  let split_ws s =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let parse ~file text =
    let lines = String.split_on_char '\n' text in
    let scopes = ref [] and excepts = ref [] and entries = ref [] in
    List.iteri
      (fun i line ->
        let lnum = i + 1 in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
          match split_ws line with
          | "scope" :: rule :: (_ :: _ as prefixes) ->
              check_rule ~file ~lnum rule;
              scopes := (rule, prefixes) :: !scopes
          | "except" :: [ rule; prefix ] ->
              check_rule ~file ~lnum rule;
              excepts := (rule, prefix) :: !excepts
          | "allow" :: rule :: path :: symbol :: "--" :: (_ :: _ as just) ->
              check_rule ~file ~lnum rule;
              entries :=
                {
                  e_rule = rule;
                  e_path = path;
                  e_symbol = symbol;
                  e_just = String.concat " " just;
                }
                :: !entries
          | "allow" :: _ ->
              config_error
                "%s:%d allow needs: allow RULE PATH SYMBOL -- justification"
                file lnum
          | w :: _ -> config_error "%s:%d unknown directive %S" file lnum w
          | [] -> ())
      lines;
    {
      scopes = List.rev !scopes;
      excepts = List.rev !excepts;
      entries = List.rev !entries;
    }

  let of_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> parse ~file:path (really_input_string ic (in_channel_length ic)))

  let allow_count t = List.length t.entries

  let prefixes t rule =
    match List.assoc_opt rule t.scopes with
    | Some ps -> ps
    | None -> ( match List.assoc_opt rule default_scopes with
      | Some ps -> ps
      | None -> [])

  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let in_scope t ~file rule =
    List.exists (fun p -> starts_with ~prefix:p file) (prefixes t rule)
    && not
         (List.exists
            (fun (r, p) -> r = rule && starts_with ~prefix:p file)
            t.excepts)

  let matches e (f : finding) =
    e.e_rule = f.rule && e.e_path = f.file
    && (e.e_symbol = "*" || e.e_symbol = f.symbol)
end

(* ------------------------------------------------------------------ *)
(* Parsetree helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Access path of an identifier, as a component list; [] for Lapply. *)
let ident_path lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> []
  in
  go [] lid

(* Strip an explicit Stdlib qualification so `Stdlib.Obj.magic` and
   `Obj.magic` look alike. *)
let unstdlib = function "Stdlib" :: rest -> rest | p -> p

let last_two p =
  match List.rev p with b :: a :: _ -> Some (a, b) | _ -> None

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

let allow_rules_of_attr (a : attribute) =
  if a.attr_name.txt <> "lint.allow" then []
  else
    match a.attr_payload with
    | PStr items ->
        List.filter_map
          (fun it ->
            match it.pstr_desc with
            | Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _)
              ->
                Some s
            | _ -> None)
          items
    | _ -> []

(* A pattern that matches every exception: `_`, possibly aliased,
   constrained, or reached through an or-pattern arm. *)
let rec wildcard_pat p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_open (_, q) ->
      wildcard_pat q
  | Ppat_or (a, b) -> wildcard_pat a || wildcard_pat b
  | _ -> false

(* Does the pattern mention a constructor whose name is [name]? *)
let rec pat_mentions name p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      (match List.rev (ident_path txt) with
      | n :: _ when n = name -> true
      | _ -> ( match arg with Some (_, q) -> pat_mentions name q | None -> false))
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_open (_, q)
  | Ppat_exception q | Ppat_lazy q ->
      pat_mentions name q
  | Ppat_or (a, b) -> pat_mentions name a || pat_mentions name b
  | Ppat_tuple ps -> List.exists (pat_mentions name) ps
  | _ -> false

(* Sub-patterns of a match case that handle exceptions (top-level
   [exception p], possibly inside or-patterns). *)
let rec exception_subpats p =
  match p.ppat_desc with
  | Ppat_exception q -> [ q ]
  | Ppat_or (a, b) -> exception_subpats a @ exception_subpats b
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_open (_, q) ->
      exception_subpats q
  | _ -> []

(* Does an expression contain a raise (so a handler that catches
   Kernel_invariant at least re-raises something)? *)
let contains_raise e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self x ->
          (match x.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match List.rev (unstdlib (ident_path txt)) with
              | ("raise" | "raise_notrace" | "reraise") :: _ -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self x);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* The mutable-state scanner (rule domain-safety)                      *)
(* ------------------------------------------------------------------ *)

(* Creating one of these at module top level builds state shared by every
   domain that runs the library's code. *)
let mutable_creator path =
  match (unstdlib path, last_two (unstdlib path)) with
  | [ "ref" ], _ -> Some "ref"
  | _, Some (m, "create")
    when List.mem m [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Weak"; "Dynarray" ]
    ->
      Some (m ^ ".create")
  | p, Some (m, ("create" | "init"))
    when List.mem "Bigarray" p
         || List.mem m [ "Array0"; "Array1"; "Array2"; "Array3"; "Genarray" ]
    ->
      Some "Bigarray"
  | _, Some ("Bytes", ("create" | "make")) -> Some "Bytes"
  | _ -> None

(* Constructions that are the sanctioned answers: their internals are the
   synchronisation discipline itself, so the scan does not descend. *)
let sanctioned_creator path =
  match unstdlib path with
  | [ "Domain"; "DLS"; "new_key" ]
  | [ "DLS"; "new_key" ]
  | [ "Atomic"; "make" ]
  | [ "Mutex"; "create" ]
  | [ "Condition"; "create" ]
  | [ "Semaphore"; _; "make" ] ->
      true
  | _ -> false

(* Scan a top-level binding's RHS for mutable-state creation, without
   entering functions or lazies (those allocate per call/force, which is
   not module-level state). *)
let scan_rhs ~mutable_field emit rhs =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when sanctioned_creator (ident_path txt) ->
              ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when mutable_creator (ident_path txt) <> None -> (
              (match mutable_creator (ident_path txt) with
              | Some name -> emit e.pexp_loc name
              | None -> ());
              Ast_iterator.default_iterator.expr self e)
          | Pexp_record (fields, _)
            when List.exists
                   (fun ({ Location.txt; _ }, _) ->
                     match List.rev (ident_path txt) with
                     | n :: _ -> mutable_field n
                     | [] -> false)
                   fields ->
              emit e.pexp_loc "mutable-field record";
              Ast_iterator.default_iterator.expr self e
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it rhs

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (q, _) | Ppat_alias (q, _) -> binding_name q
  | _ -> None

let rec strip_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) | Pexp_coerce (e', _, _) -> strip_constraint e'
  | _ -> e

let is_function_body e =
  match (strip_constraint e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ | Pexp_newtype _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* One compilation unit                                                *)
(* ------------------------------------------------------------------ *)

(* Raw findings plus the [@lint.allow]-covered subset. *)
let scan_unit ~active ~file structure =
  let findings = ref [] and attr_allowed = ref [] in
  let symbol = ref "" in
  (* active [@lint.allow] scopes: file-wide floating attributes plus a
     stack entry per attributed node currently being visited *)
  let file_allows =
    List.concat_map
      (fun it ->
        match it.pstr_desc with
        | Pstr_attribute a -> allow_rules_of_attr a
        | _ -> [])
      structure
  in
  let allow_stack = ref [ file_allows ] in
  let allowed_now rule = List.exists (List.mem rule) !allow_stack in
  let emit ?(sym = None) rule loc msg =
    if active rule then begin
      let f =
        {
          file;
          line = line_of loc;
          rule;
          symbol = (match sym with Some s -> s | None -> !symbol);
          msg;
        }
      in
      if allowed_now rule then attr_allowed := f :: !attr_allowed
      else findings := f :: !findings
    end
  in
  (* field names declared mutable anywhere in this file *)
  let mutable_fields = Hashtbl.create 16 in
  let collect_mutable_fields it =
    match it.pstr_desc with
    | Pstr_type (_, decls) ->
        List.iter
          (fun d ->
            match d.ptype_kind with
            | Ptype_record labels ->
                List.iter
                  (fun l ->
                    if l.pld_mutable = Mutable then
                      Hashtbl.replace mutable_fields l.pld_name.txt ())
                  labels
            | _ -> ())
          decls
    | _ -> ()
  in
  let rec collect_types_deeply it =
    collect_mutable_fields it;
    match it.pstr_desc with
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter collect_types_deeply s
    | _ -> ()
  in
  List.iter collect_types_deeply structure;
  let mutable_field n = Hashtbl.mem mutable_fields n in

  (* rules 1–3 and clock, on every expression *)
  let check_expr e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let path = unstdlib (ident_path txt) in
        match (path, last_two path) with
        | _, Some ("Obj", (("magic" | "repr" | "obj") as fn)) ->
            emit rule_kernel e.pexp_loc
              (Printf.sprintf
                 "Obj.%s can forge values of any type, including thm; only \
                  the kernel may cross the representation boundary"
                 fn)
        | "Marshal" :: _, _ ->
            emit rule_kernel e.pexp_loc
              "Marshal can resurrect unchecked thm values; theorems must be \
               re-derived, not deserialised"
        | _, Some ("Unix", (("gettimeofday" | "time") as fn)) ->
            emit rule_clock e.pexp_loc
              (Printf.sprintf
                 "Unix.%s reads the wall clock, which steps under NTP, so a \
                  duration or deadline taken on it comes out wrong; read \
                  Logic.Clock.now"
                 fn)
        | _, Some ("Sys", "time") ->
            emit rule_clock e.pexp_loc
              "Sys.time counts processor time, not elapsed time; read \
               Logic.Clock.now"
        | _ -> ())
    | Pexp_record (fields, _) ->
        let has n =
          List.exists
            (fun ({ Location.txt; _ }, _) ->
              match List.rev (ident_path txt) with
              | f :: _ -> f = n
              | [] -> false)
            fields
        in
        if has "hyps" && (has "concl" || has "lhs" || has "rhs") then
          emit rule_kernel e.pexp_loc
            "record literal shaped like a thm ({hyps; lhs; rhs} or {hyps; \
             concl}); theorems are born only from kernel primitives"
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match List.rev (unstdlib (ident_path txt)) with
        | (("failwith" | "invalid_arg") as fn) :: _ ->
            emit rule_typed e.pexp_loc
              (Printf.sprintf
                 "%s at a trust boundary; raise the typed taxonomy \
                  (Invalid_cut/Invalid_netlist/Unsupported/...) so callers \
                  can classify the rejection"
                 fn)
        | _ -> ())
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      ->
        emit rule_typed e.pexp_loc
          "assert false at a trust boundary; unreachable states should \
           raise the typed taxonomy (or be allowlisted with a proof sketch)"
    | _ -> ());
    (* exception-handler cases: try-with handlers, and `exception p`
       sub-patterns of match cases *)
    let handler_cases =
      match e.pexp_desc with
      | Pexp_try (_, cases) ->
          List.map (fun c -> (c.pc_lhs, c.pc_rhs)) cases
      | Pexp_match (_, cases) ->
          List.concat_map
            (fun c ->
              List.map (fun p -> (p, c.pc_rhs)) (exception_subpats c.pc_lhs))
            cases
      | _ -> []
    in
    List.iter
      (fun (pat, rhs) ->
        if wildcard_pat pat then
          emit rule_catch pat.ppat_loc
            "wildcard exception handler; it would swallow \
             Out_of_memory/Stack_overflow/Pool.Shutdown — match the typed \
             exceptions this expression can raise"
        else if pat_mentions "Kernel_invariant" pat && not (contains_raise rhs)
        then
          emit rule_kernel pat.ppat_loc
            "handler catches Kernel_invariant and does not re-raise; a \
             kernel-invariant breach must never be converted into a normal \
             result")
      handler_cases
  in

  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          let pushed = List.concat_map allow_rules_of_attr e.pexp_attributes in
          allow_stack := pushed :: !allow_stack;
          check_expr e;
          Ast_iterator.default_iterator.expr self e;
          allow_stack := List.tl !allow_stack);
      structure_item =
        (fun self it ->
          (match it.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  let pushed =
                    List.concat_map allow_rules_of_attr vb.pvb_attributes
                  in
                  allow_stack := pushed :: !allow_stack;
                  (match binding_name vb.pvb_pat with
                  | Some n ->
                      symbol := n;
                      (* module-top-level mutable state: bindings whose
                         RHS is not a function and creates mutable
                         structure *)
                      if not (is_function_body vb.pvb_expr) then
                        scan_rhs ~mutable_field
                          (fun loc what ->
                            emit rule_domain loc
                              (Printf.sprintf
                                 "module-top-level mutable state (%s) in \
                                  binding %S; use Domain.DLS or Atomic.t, \
                                  or allowlist it naming the mutex that \
                                  guards it"
                                 what n))
                          (strip_constraint vb.pvb_expr)
                  | None -> ());
                  self.value_binding self vb;
                  allow_stack := List.tl !allow_stack)
                vbs
          | _ -> Ast_iterator.default_iterator.structure_item self it));
    }
  in
  iter.structure iter structure;
  (List.rev !findings, List.rev !attr_allowed)

let parse_structure ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let parse_error_finding ~file exn =
  let line, msg =
    match Location.error_of_exn exn with
    | Some (`Ok err) ->
        let m = err.Location.main in
        ( line_of m.Location.loc,
          Format.asprintf "%t" m.Location.txt )
    | _ -> (1, Printexc.to_string exn)
  in
  { file; line; rule = "parse-error"; symbol = ""; msg }

let split_allowed config findings =
  let used = Array.make (List.length config.Config.entries) false in
  let violations = ref [] and allowed = ref [] in
  List.iter
    (fun f ->
      let rec find i = function
        | [] -> violations := f :: !violations
        | e :: rest ->
            if Config.matches e f then begin
              used.(i) <- true;
              allowed := (f, e.Config.e_just) :: !allowed
            end
            else find (i + 1) rest
      in
      find 0 config.Config.entries)
    findings;
  (List.rev !violations, List.rev !allowed, used)

let check_source ?(config = Config.empty) ?(scoped = false) ~file source =
  let active rule =
    (not scoped) || Config.in_scope config ~file rule
  in
  match parse_structure ~file source with
  | exception ((Syntaxerr.Error _ | Lexer.Error _) as e) ->
      { files = 1; violations = [ parse_error_finding ~file e ]; allowed = [] }
  | structure ->
      let findings, attr_allowed = scan_unit ~active ~file structure in
      let violations, allowed, _ = split_allowed config findings in
      {
        files = 1;
        violations;
        allowed =
          allowed
          @ List.map (fun f -> (f, "[@lint.allow] attribute")) attr_allowed;
      }

(* ------------------------------------------------------------------ *)
(* Exports and their references (rule unused-export)                   *)
(* ------------------------------------------------------------------ *)

(* The rule reads the typed trees dune writes next to the objects
   (<dir>/.<name>.objs/byte/*.cmt and *.cmti), so a reference is a
   resolved path, not a name that happens to match. *)

(* Dune compiles module M of a wrapped library Lib as the unit Lib__M.
   Other units reach it as Lib.M, or as Lib__.M inside a library that
   has a main module of its own: all three spellings name one unit. *)
let unwrap ~is_unit = function
  | w :: m :: rest ->
      let u =
        if String.ends_with ~suffix:"__" w then w ^ m else w ^ "__" ^ m
      in
      if is_unit u then u :: rest else w :: m :: rest
  | p -> p

(* The vals an interface exports, as paths inside the unit.  Submodule
   signatures are walked; a functor body or a named module type is not,
   since callers reach its values through paths the rule cannot follow. *)
let rec exported_values prefix (s : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix @ [ vd.val_name.txt ], vd.val_loc) ]
      | Tsig_module
          {
            md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature s; _ };
            _;
          } ->
          exported_values (prefix @ [ m ]) s
      | _ -> [])
    s.sig_items

(* What one implementation contributes to the rule: the value paths it
   references, the module paths it uses whole (a functor argument, a
   packed module, a constrained module, an include outside lib/), and
   what it re-exports ([module X = P] at its top level, and [include P]
   at the top level of a lib/ unit).  Paths are global, as components. *)
type unit_refs = {
  values : string list list;
  modules : string list list;
  aliases : (string * string list) list;  (* X, P of [module X = P] *)
  includes : string list list;  (* P of [include P] *)
}

(* A module alias or an include names a module by an identifier
   ([module X = P], [let module X = P in], [include P]); the typed tree
   then refers to X, and to the values an include binds, by local
   identifiers.  [resolve] maps those back to P, so [X.v] counts as a
   use of [P.v] and does not make every export of P look used.  An open
   brings nothing into scope that is not referenced by its full path.
   A unit's uses of its own values are local paths, so they never
   count. *)
let references ~lib (s : Typedtree.structure) =
  let values = ref [] and modules = ref [] in
  let aliases = ref [] and includes = ref [] in
  let local = Hashtbl.create 16 in
  let rec resolve = function
    | Path.Pident id ->
        if Ident.global id then Some [ Ident.name id ]
        else Hashtbl.find_opt local (Ident.unique_name id)
    | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (resolve p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let add acc p = match resolve p with Some l -> acc := l :: !acc | None -> () in
  let bind id target = Hashtbl.replace local (Ident.unique_name id) target in
  let rec alias_of (m : Typedtree.module_expr) =
    match m.mod_desc with
    | Tmod_ident (p, _) -> resolve p
    | Tmod_constraint (m, _, Tmodtype_implicit, _) -> alias_of m
    | _ -> None
  in
  (* the identifiers an [include P] binds stand for P's items *)
  let bind_included target (sg : Types.signature) =
    List.iter
      (function
        | Types.Sig_value (id, _, _) | Types.Sig_module (id, _, _, _, _) ->
            bind id (target @ [ Ident.name id ])
        | _ -> ())
      sg
  in
  (* [module X = P] or [include P]: bind, and at the top of the unit
     record the re-export.  A submodule's alias (reachable as U.Sub.X,
     which the rule does not resolve) and an include outside lib/ use P
     whole.  False for any other item. *)
  let alias_item ~top (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_module { mb_id = Some id; mb_name = { txt = Some x; _ }; mb_expr; _ }
      -> (
        match alias_of mb_expr with
        | Some target ->
            bind id target;
            if top then aliases := (x, target) :: !aliases
            else modules := target :: !modules;
            true
        | None -> false)
    | Tstr_include { incl_mod; incl_type; _ } -> (
        match alias_of incl_mod with
        | Some target ->
            bind_included target incl_type;
            if top && lib then includes := target :: !includes
            else modules := target :: !modules;
            true
        | None -> false)
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_letmodule (Some id, _, _, m, body) when alias_of m <> None ->
              Option.iter (bind id) (alias_of m);
              self.expr self body
          | Texp_ident (p, _, _) -> add values p
          | Texp_letop { let_; ands; _ } ->
              List.iter
                (fun (b : Typedtree.binding_op) -> add values b.bop_op_path)
                (let_ :: ands);
              Tast_iterator.default_iterator.expr self e
          | _ -> Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          if not (alias_item ~top:false item) then
            Tast_iterator.default_iterator.structure_item self item);
      module_expr =
        (fun self m ->
          (match m.mod_desc with Tmod_ident (p, _) -> add modules p | _ -> ());
          Tast_iterator.default_iterator.module_expr self m);
      open_declaration = (fun _ _ -> ());
    }
  in
  List.iter
    (fun item -> if not (alias_item ~top:true item) then it.structure_item it item)
    s.str_items;
  {
    values = !values;
    modules = !modules;
    aliases = !aliases;
    includes = !includes;
  }

(* ------------------------------------------------------------------ *)
(* Whole tree                                                          *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Files under [dir] ending in [suffix], in a stable order, dune's
   hidden object directories included. *)
let rec files_with ~suffix dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files_with ~suffix p
             else if Filename.check_suffix n suffix then [ p ]
             else [])

(* repo-relative, '/'-separated, independent of the root spelling *)
let relative ~root path =
  let r = root ^ Filename.dir_sep in
  let s =
    if String.starts_with ~prefix:r path then
      String.sub path (String.length r) (String.length path - String.length r)
    else path
  in
  String.concat "/" (String.split_on_char Filename.dir_sep.[0] s)

(* Rule unused-export over the typed trees of [root], or of
   [root/_build/default] when [root] is a source checkout. *)
let export_findings ~root =
  let build =
    let b = Filename.concat (Filename.concat root "_build") "default" in
    if Sys.file_exists b then b else root
  in
  let trees suffix dirs =
    List.concat_map (fun d -> files_with ~suffix (Filename.concat build d)) dirs
  in
  let errors = ref [] in
  let load path =
    match Cmt_format.read_cmt path with
    | infos -> Some infos
    | exception
        (( Cmt_format.Error _ | Cmi_format.Error _ | Sys_error _ | End_of_file
         | Failure _ ) as e) ->
        errors :=
          {
            file = relative ~root:build path;
            line = 0;
            rule = "parse-error";
            symbol = "";
            msg = Printexc.to_string e;
          }
          :: !errors;
        None
  in
  let interfaces =
    List.filter_map
      (fun path ->
        match load path with
        | Some
            {
              cmt_modname;
              cmt_annots = Interface s;
              cmt_sourcefile = Some src;
              _;
            } ->
            (* <dir>/.<name>.objs/byte/<unit>.cmti: the source is in <dir> *)
            let dir = Filename.(dirname (dirname (dirname path))) in
            let file =
              relative ~root:build
                (Filename.concat dir (Filename.basename src))
            in
            Some (cmt_modname, file, exported_values [] s)
        | _ -> None)
      (trees ".cmti" [ "lib" ])
  in
  let units = Hashtbl.create 64 in
  List.iter (fun (u, _, _) -> Hashtbl.replace units u ()) interfaces;
  let refs =
    List.filter_map
      (fun path ->
        match load path with
        | Some
            {
              cmt_modname;
              cmt_annots = Implementation s;
              cmt_sourcefile = Some src;
              _;
            }
        (* dune's generated alias module of a wrapped library *)
          when not (Filename.check_suffix src ".ml-gen") ->
            let lib = String.starts_with ~prefix:"lib/" (relative ~root:build path) in
            Some (cmt_modname, references ~lib s)
        | _ -> None)
      (trees ".cmt" [ "lib"; "bin"; "bench"; "examples" ])
  in
  (* re-exports by unit: U.X stands for P when U has [module X = P], and
     U.x also for P.x when U has [include P] *)
  let aliases = Hashtbl.create 16 and includes = Hashtbl.create 16 in
  List.iter
    (fun (u, r) ->
      List.iter (fun (x, p) -> Hashtbl.replace aliases (u ^ "." ^ x) p) r.aliases;
      List.iter (Hashtbl.add includes u) r.includes)
    refs;
  (* every unit path [p] names, through re-exports; the bound stops a
     cycle the type checker would not accept anyway *)
  let rec names fuel p =
    let p = unwrap ~is_unit:(Hashtbl.mem units) p in
    if fuel = 0 then [ p ]
    else
      let through_alias =
        match p with
        | u :: x :: rest -> (
            match Hashtbl.find_opt aliases (u ^ "." ^ x) with
            | Some target -> names (fuel - 1) (target @ rest)
            | None -> [])
        | _ -> []
      in
      let through_include =
        match p with
        | u :: rest ->
            List.concat_map
              (fun target -> names (fuel - 1) (target @ rest))
              (Hashtbl.find_all includes u)
        | [] -> []
      in
      (p :: through_alias) @ through_include
  in
  let used = Hashtbl.create 1024 and whole = Hashtbl.create 64 in
  let note tbl p =
    List.iter
      (fun l -> Hashtbl.replace tbl (String.concat "." l) ())
      (names 8 p)
  in
  List.iter
    (fun (_, r) ->
      List.iter (note used) r.values;
      List.iter (note whole) r.modules)
    refs;
  let rec under_whole prefix = function
    | m :: (_ :: _ as rest) ->
        let prefix = prefix ^ m in
        Hashtbl.mem whole prefix || under_whole (prefix ^ ".") rest
    | _ -> false
  in
  let unused =
    List.concat_map
      (fun (u, file, exports) ->
        List.filter_map
          (fun (p, loc) ->
            let symbol = String.concat "." p in
            if Hashtbl.mem used (u ^ "." ^ symbol) || under_whole "" (u :: p)
            then None
            else
              Some
                {
                  file;
                  line = line_of loc;
                  rule = rule_export;
                  symbol;
                  msg =
                    Printf.sprintf
                      "val %s is referenced from no other compilation unit; \
                       delete it from the interface"
                      symbol;
                })
          exports)
      interfaces
  in
  let missing =
    {
      file = "lib/";
      line = 0;
      rule = rule_export;
      symbol = "";
      msg =
        Printf.sprintf "no .cmti files under %s/lib; build them first (dune \
                        build @check)"
          build;
    }
  in
  List.rev !errors @ if interfaces = [] then [ missing ] else unused

let check_tree ~config ~root =
  let files =
    List.concat_map
      (fun d -> files_with ~suffix:".ml" (Filename.concat root d))
      [ "lib"; "bin" ]
  in
  let scanned =
    List.map
      (fun path ->
        let file = relative ~root path in
        let active rule = Config.in_scope config ~file rule in
        match parse_structure ~file (read_file path) with
        | exception ((Syntaxerr.Error _ | Lexer.Error _) as e) ->
            ([ parse_error_finding ~file e ], [])
        | structure -> scan_unit ~active ~file structure)
      files
  in
  let exports =
    List.filter
      (fun f ->
        f.rule <> rule_export || Config.in_scope config ~file:f.file f.rule)
      (export_findings ~root)
  in
  let violations, allowed, used =
    split_allowed config (List.concat_map fst scanned @ exports)
  in
  (* an allow entry that excuses nothing is itself a finding: the
     inventory must shrink with the code it describes *)
  let stale =
    List.filteri (fun i _ -> not used.(i)) config.Config.entries
    |> List.map (fun e ->
           {
             file = e.Config.e_path;
             line = 0;
             rule = "stale-allow";
             symbol = e.Config.e_symbol;
             msg =
               Printf.sprintf
                 "allowlist entry (%s %s %s) matches no finding; delete it"
                 e.Config.e_rule e.Config.e_path e.Config.e_symbol;
           })
  in
  let attr_allowed =
    List.concat_map
      (fun (_, a) -> List.map (fun f -> (f, "[@lint.allow] attribute")) a)
      scanned
  in
  let by_pos a b =
    match compare a.file b.file with 0 -> compare a.line b.line | c -> c
  in
  {
    files = List.length files;
    violations = List.sort by_pos (violations @ stale);
    allowed = List.sort (fun (a, _) (b, _) -> by_pos a b) (allowed @ attr_allowed);
  }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* The trusted computing base of a checked proof: the kernel library,
   the certificate checker and the checker binary (see DESIGN.md
   "Trusted computing base").  A directory counts with every .ml/.mli
   in it, so a file added there is counted without touching this list. *)
let trusted_base = [ "lib/hol"; "lib/cert"; "bin/check.ml" ]

let trusted_lines ~root =
  let lines path =
    let text = read_file path in
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text
  in
  List.concat_map
    (fun entry ->
      let path = Filename.concat root entry in
      if Sys.file_exists path && Sys.is_directory path then
        files_with ~suffix:".ml" path @ files_with ~suffix:".mli" path
      else if Sys.file_exists path then [ path ]
      else [])
    trusted_base
  |> List.fold_left (fun n path -> n + lines path) 0

let report_json ~config ~root report =
  let count rule sel =
    List.length (List.filter (fun f -> f.rule = rule) sel)
  in
  let violations = report.violations in
  let allowed = List.map fst report.allowed in
  let per_rule =
    List.map
      (fun (r, _) ->
        Obs.Json.Obj
          [
            ("rule", Obs.Json.Str r);
            ("violations", Obs.Json.Int (count r violations));
            ("allowed", Obs.Json.Int (count r allowed));
          ])
      rules
  in
  Obs.Json.Obj
    [
      ("table", Obs.Json.Str "lint");
      ("files", Obs.Json.Int report.files);
      ("violations", Obs.Json.Int (List.length violations));
      ("allowed", Obs.Json.Int (List.length allowed));
      ("allowlist_size", Obs.Json.Int (Config.allow_count config));
      ("trusted_lines", Obs.Json.Int (trusted_lines ~root));
      ( "stale_allows",
        Obs.Json.Int (count "stale-allow" violations) );
      ("rules", Obs.Json.List per_rule);
    ]
