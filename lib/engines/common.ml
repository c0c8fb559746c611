type result =
  | Equivalent
  | Not_equivalent of string
  | Inconclusive of string
  | Timeout

type budget = {
  deadline : float;
  max_bdd_nodes : int;
  mutable bdd_base : int;
}

let budget_of_seconds ?(max_bdd_nodes = 20_000_000) secs =
  { deadline = Logic.Clock.now () +. secs; max_bdd_nodes; bdd_base = 0 }

let out_of_time b = Logic.Clock.now () > b.deadline

exception Out_of_budget
exception Unsupported of string
exception Interface_mismatch of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let interface_mismatch fmt =
  Printf.ksprintf (fun s -> raise (Interface_mismatch s)) fmt

let check b = if out_of_time b then raise Out_of_budget

(* Node budgets are relative to the population at engine entry: managers
   are reused across runs (one per pool domain), so the absolute count
   says nothing about the current run's appetite. *)
let arm_nodes b m = b.bdd_base <- Bdd.node_count m

let check_nodes b m =
  if Bdd.node_count m - b.bdd_base > b.max_bdd_nodes then raise Out_of_budget
  else check b

let result_tag = function
  | Equivalent -> "equivalent"
  | Not_equivalent _ -> "not_equivalent"
  | Inconclusive _ -> "inconclusive"
  | Timeout -> "timeout"

let pp_result ppf = function
  | Equivalent -> Format.pp_print_string ppf "equivalent"
  | Not_equivalent w -> Format.fprintf ppf "NOT equivalent (%s)" w
  | Inconclusive w -> Format.fprintf ppf "inconclusive (%s)" w
  | Timeout -> Format.pp_print_string ppf "timeout"

let result_to_string r = Format.asprintf "%a" pp_result r

(* ------------------------------------------------------------------ *)
(* Observed runs                                                       *)
(* ------------------------------------------------------------------ *)

type report = {
  engine : string;
  result : result;
  wall_s : float;
  bdd : Obs.snapshot;
  kern : Obs.kernel_snapshot;
  extra : (string * float) list;
}

(* Read the logic kernel's counters.  This module is the lowest layer that
   sees both Logic and Obs, so it owns the translation. *)
let kernel_now () =
  let t = Hol.Term.stats () in
  let memo_hits, memo_misses = Logic.Memo.stats () in
  {
    Obs.rule_apps = Logic.Kernel.rule_count ();
    term_mk_calls = t.Hol.Term.mk_calls;
    term_intern_hits = t.Hol.Term.intern_hits;
    term_intern_misses = t.Hol.Term.intern_misses;
    conv_memo_hits = memo_hits;
    conv_memo_misses = memo_misses;
    live_term_nodes = t.Hol.Term.live_nodes;
    peak_term_nodes = t.Hol.Term.peak_nodes;
    ty_nodes = Hol.Ty.node_count ();
  }

(* Cross-domain totals; exact once worker domains have quiesced (after a
   pool join). *)
let kernel_total () =
  let t = Hol.Term.global_stats () in
  let memo_hits, memo_misses = Logic.Memo.global_stats () in
  {
    Obs.rule_apps = Logic.Kernel.total_rule_count ();
    term_mk_calls = t.Hol.Term.mk_calls;
    term_intern_hits = t.Hol.Term.intern_hits;
    term_intern_misses = t.Hol.Term.intern_misses;
    conv_memo_hits = memo_hits;
    conv_memo_misses = memo_misses;
    live_term_nodes = t.Hol.Term.live_nodes;
    peak_term_nodes = t.Hol.Term.peak_nodes;
    ty_nodes = Hol.Ty.global_node_count ();
  }

(* ------------------------------------------------------------------ *)
(* Per-domain BDD managers                                             *)
(* ------------------------------------------------------------------ *)

(* One manager per pool domain, kept across runs so the off-heap tables
   stay grown and warm (re-allocating and re-growing a manager per cell
   is what made jobs=2 slower than jobs=1 before this existed).  Each
   manager is seeded by memcpy from a shared frozen snapshot; the
   pre-spawn hook re-freezes the main domain's manager so workers
   inherit whatever it interned during setup. *)

let bdd_managers_created = Atomic.make 0
let bdd_managers_reused = Atomic.make 0

let bdd_domain_stats () =
  (Atomic.get bdd_managers_created, Atomic.get bdd_managers_reused)

(* Managers past this population are dropped at release instead of kept,
   bounding per-domain memory after a blowup cell. *)
let bdd_recycle_nodes = 2_000_000

let bdd_base = Atomic.make (Bdd.freeze (Bdd.manager ()))

let bdd_key : Bdd.manager option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let domain_manager () =
  let cell = Domain.DLS.get bdd_key in
  match !cell with
  | Some m ->
      Atomic.incr bdd_managers_reused;
      m
  | None ->
      let m = Bdd.share (Atomic.get bdd_base) in
      Atomic.incr bdd_managers_created;
      cell := Some m;
      m

let release_manager m =
  if Bdd.node_count m > bdd_recycle_nodes then Domain.DLS.get bdd_key := None

let () =
  Parallel.Pool.register_pre_spawn (fun () ->
      match !(Domain.DLS.get bdd_key) with
      | Some m when Bdd.node_count m <= bdd_recycle_nodes ->
          Atomic.set bdd_base (Bdd.freeze m)
      | _ -> ())

let observe ~engine f =
  let k0 = kernel_now () in
  let g0 = Obs.Gcstats.now () in
  let t0 = Logic.Clock.now () in
  let result, extra = try f () with Out_of_budget -> (Timeout, []) in
  let wall_s = Logic.Clock.now () -. t0 in
  let gc = Obs.Gcstats.delta ~before:g0 ~after:(Obs.Gcstats.now ()) in
  {
    engine;
    result;
    wall_s;
    bdd = Obs.empty;
    kern = Obs.kernel_delta ~before:k0 ~after:(kernel_now ());
    extra = extra @ Obs.Gcstats.extras gc;
  }

let observe_bdd ~engine f =
  let m = domain_manager () in
  let k0 = kernel_now () in
  let s0 = Bdd.stats m in
  let g0 = Obs.Gcstats.now () in
  let t0 = Logic.Clock.now () in
  let result, extra =
    try f m with
    | Out_of_budget -> (Timeout, [])
    | e ->
        release_manager m;
        raise e
  in
  let wall_s = Logic.Clock.now () -. t0 in
  let gc = Obs.Gcstats.delta ~before:g0 ~after:(Obs.Gcstats.now ()) in
  let r =
    {
      engine;
      result;
      wall_s;
      bdd = Obs.snapshot_delta ~before:s0 ~after:(Bdd.stats m);
      kern = Obs.kernel_delta ~before:k0 ~after:(kernel_now ());
      extra = extra @ Obs.Gcstats.extras gc;
    }
  in
  release_manager m;
  r

let report_to_run r =
  {
    Obs.engine = r.engine;
    wall_s = r.wall_s;
    status = result_tag r.result;
    snap = r.bdd;
    kern = r.kern;
    extra = r.extra;
  }

let bit_inputs c =
  Array.fold_left
    (fun acc w -> acc + match w with Circuit.B -> 1 | Circuit.W n -> n)
    0 c.Circuit.input_widths

let same_interface a b =
  bit_inputs a = bit_inputs b
  && Array.length a.Circuit.outputs = Array.length b.Circuit.outputs
