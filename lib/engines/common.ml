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

let status = function
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

type hash_outcome = Retimed | Out_of_time | Raised of exn

let hash_status = function
  | Retimed -> "ok"
  | Out_of_time -> "timeout"
  | Raised e -> "error: " ^ Printexc.to_string e

(* Read the logic kernel's counters.  This module is the lowest layer that
   sees both Logic and Obs, so it owns the translation. *)
let snapshot ~live ~peak (hits, misses) =
  let memo_hits, memo_misses = Logic.Memo.stats () in
  {
    Obs.rule_apps = Logic.Kernel.rule_count ();
    (* every constructor call is an intern hit or a miss *)
    term_mk_calls = hits + misses;
    term_intern_hits = hits;
    term_intern_misses = misses;
    conv_memo_hits = memo_hits;
    conv_memo_misses = memo_misses;
    live_term_nodes = live;
    peak_term_nodes = peak;
    ty_nodes = Hol.Ty.node_count ();
  }

let kernel_now () =
  let t = Hol.Term.stats () in
  snapshot ~live:t.Hol.Term.live_nodes ~peak:t.Hol.Term.peak_nodes
    (t.Hol.Term.intern_hits, t.Hol.Term.intern_misses)

(* ------------------------------------------------------------------ *)
(* Per-domain BDD managers                                             *)
(* ------------------------------------------------------------------ *)

(* One manager per domain, built empty on first use and kept across runs
   so the off-heap tables stay grown and warm (re-allocating and
   re-growing a manager per cell is what made jobs=2 slower than jobs=1
   before this existed).  No BDD node ever leaves the domain that built
   it, so a worker's manager has nothing to inherit from another. *)

let bdd_managers_created = Atomic.make 0
let bdd_managers_reused = Atomic.make 0

let bdd_domain_stats () =
  (Atomic.get bdd_managers_created, Atomic.get bdd_managers_reused)

(* Managers past this population are dropped when a run ends, not kept,
   bounding per-domain memory after a blowup cell. *)
let bdd_recycle_nodes = 2_000_000

let bdd_key : Bdd.manager option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_manager f =
  let cell = Domain.DLS.get bdd_key in
  let m =
    match !cell with
    | Some m ->
        Atomic.incr bdd_managers_reused;
        m
    | None ->
        let m = Bdd.manager () in
        Atomic.incr bdd_managers_created;
        cell := Some m;
        m
  in
  Fun.protect
    ~finally:(fun () ->
      if Bdd.node_count m > bdd_recycle_nodes then cell := None)
    (fun () -> f m)

let observe ~engine f =
  (* [Obs.kernel_delta] reads the populations from [after] only, so the
     before-snapshot skips the scan of the intern table that
     [Hol.Term.stats] makes for them *)
  let k0 = snapshot ~live:0 ~peak:0 (Hol.Term.intern_counts ()) in
  let g0 = Obs.Gcstats.now () in
  let t0 = Logic.Clock.now () in
  let result, extra = f () in
  let wall_s = Logic.Clock.now () -. t0 in
  let gc = Obs.Gcstats.delta ~before:g0 ~after:(Obs.Gcstats.now ()) in
  {
    Obs.engine;
    result;
    wall_s;
    bdd = Obs.Counters.create ();
    kern = Obs.kernel_delta ~before:k0 ~after:(kernel_now ());
    extra = extra @ Obs.Gcstats.extras gc;
  }

let observe_bdd ~engine f =
  with_manager (fun m ->
      let s0 = Bdd.stats m in
      let r =
        observe ~engine (fun () ->
            try f m with Out_of_budget -> (Timeout, []))
      in
      { r with bdd = Obs.Counters.delta ~before:s0 ~after:(Bdd.stats m) })

let bit_inputs c =
  Array.fold_left
    (fun acc w -> acc + match w with Circuit.B -> 1 | Circuit.W n -> n)
    0 c.Circuit.input_widths

let same_interface a b =
  bit_inputs a = bit_inputs b
  && Array.length a.Circuit.outputs = Array.length b.Circuit.outputs
