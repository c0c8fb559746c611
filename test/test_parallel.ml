(* The domain pool and the domain-safety of the shared kernel state:
   ordering and exception behaviour of futures, deadline cancellation,
   and a concurrency stress test checking that engine verdicts from
   worker domains match the sequential run, that the seeded intern
   tables keep the physical-equality invariant inside workers, that a
   worker counts its own kernel work and leaves no state behind when it
   exits, and that its BDD manager starts empty and is reused. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Submit [f x] for every element, then await the futures in list order. *)
let map_list pool f xs =
  List.map
    (fun x -> Parallel.Pool.submit pool (fun () -> f x))
    xs
  |> List.map Parallel.Pool.await

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_ordering () =
  Parallel.Pool.run ~jobs:4 (fun pool ->
      let xs = List.init 40 Fun.id in
      let ys = map_list pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "results in submission order"
        (List.map (fun x -> x * x) xs)
        ys)

let test_inline_pool () =
  (* jobs below 1 clamp to 1: inline too *)
  List.iter
    (fun jobs ->
      Parallel.Pool.run ~jobs (fun pool ->
          let ran = ref false in
          let fut = Parallel.Pool.submit pool (fun () -> ran := true; 7) in
          check "inline task ran before await" true !ran;
          check_int "inline result" 7 (Parallel.Pool.await fut)))
    [ 1; 0 ]

let test_exception_propagation () =
  Parallel.Pool.run ~jobs:2 (fun pool ->
      let fut = Parallel.Pool.submit pool (fun () -> failwith "boom") in
      let ok = Parallel.Pool.submit pool (fun () -> 1) in
      (match Parallel.Pool.await fut with
      | _ -> Alcotest.fail "expected the task's exception"
      | exception Failure msg -> check "message survives" true (msg = "boom"));
      check_int "other tasks unaffected" 1 (Parallel.Pool.await ok))

let test_deadline_expired_in_queue () =
  (* Both workers sleep; by the time the dated task is dequeued its
     deadline has passed, so it must be cancelled without running. *)
  Parallel.Pool.run ~jobs:2 (fun pool ->
      let blockers =
        List.init 2 (fun _ ->
            Parallel.Pool.submit pool (fun () -> Unix.sleepf 0.5))
      in
      let ran = Atomic.make false in
      let fut =
        Parallel.Pool.submit
          ~deadline:(Logic.Clock.now () +. 0.05)
          pool
          (fun () -> Atomic.set ran true)
      in
      (match Parallel.Pool.await fut with
      | () -> Alcotest.fail "expected cancellation"
      | exception Parallel.Pool.Cancelled -> ());
      check "never ran" false (Atomic.get ran);
      List.iter Parallel.Pool.await blockers)

let test_deadline_injected_clock () =
  (* Deadlines are judged against [Logic.Clock.now], not the wall clock:
     with an injected source, expiry is driven purely by advancing the
     fake time.  Real elapsed time while the clock is frozen must not
     cancel anything; a simulated jump past the deadline must. *)
  let fake = Atomic.make 1_000_000.0 in
  Logic.Clock.set_source (fun () -> Atomic.get fake);
  Fun.protect ~finally:Logic.Clock.use_monotonic @@ fun () ->
  Parallel.Pool.run ~jobs:1 (fun pool ->
      let deadline = Logic.Clock.now () +. 0.001 in
      let fut =
        Parallel.Pool.submit ~deadline pool (fun () ->
            (* real milliseconds pass; fake time does not *)
            Unix.sleepf 0.01;
            7)
      in
      check_int "frozen clock never expires a deadline" 7
        (Parallel.Pool.await fut);
      Atomic.set fake (deadline +. 1.0);
      let ran = ref false in
      let late =
        Parallel.Pool.submit ~deadline pool (fun () -> ran := true)
      in
      (match Parallel.Pool.await late with
      | () -> Alcotest.fail "expected cancellation after the clock jump"
      | exception Parallel.Pool.Cancelled -> ());
      check "expired task never ran" false !ran)

(* ------------------------------------------------------------------ *)
(* Concurrency stress: engines across domains                          *)
(* ------------------------------------------------------------------ *)

let budget () = Engines.Common.budget_of_seconds 60.0

(* Every engine on the same circuit pair, as plain-data outcomes (strings
   only — terms must not cross domains). *)
let engine_outcomes c r =
  let outcome f = Engines.Common.result_to_string (f (budget ()) c r) in
  [
    ("smv", outcome Engines.Smv.equiv);
    ("sis", outcome Engines.Sis_fsm.equiv);
    ("eijk", outcome Engines.Eijk.equiv);
    ("eijk_star", outcome Engines.Eijk.equiv_star);
  ]

let hash_outcome c =
  let step =
    Hash.Synthesis.retime ~budget:(budget ()) Hash.Embed.Bit_level c
      (Cut.maximal c)
  in
  Logic.Kernel.string_of_thm step.Hash.Synthesis.theorem

let test_stress_verdicts_match_sequential () =
  let pairs =
    List.map
      (fun n ->
        let c = Fig2.gate n in
        (n, c, Forward.retime c (Cut.maximal c)))
      [ 2; 3; 4 ]
  in
  (* sequential reference, in the main domain *)
  let seq_engines = List.map (fun (_, c, r) -> engine_outcomes c r) pairs in
  let seq_hash = List.map (fun (_, c, _) -> hash_outcome c) pairs in
  Parallel.Pool.run ~jobs:4 (fun pool ->
      let eng_futs =
        List.map
          (fun (_, c, r) ->
            Parallel.Pool.submit pool (fun () -> engine_outcomes c r))
          pairs
      in
      let hash_futs =
        List.map
          (fun (_, c, _) -> Parallel.Pool.submit pool (fun () -> hash_outcome c))
          pairs
      in
      let par_engines = List.map Parallel.Pool.await eng_futs in
      let par_hash = List.map Parallel.Pool.await hash_futs in
      List.iteri
        (fun i (seq, par) ->
          List.iter2
            (fun (name, s) (name', p) ->
              check (Printf.sprintf "row %d engine %s name" i name) true
                (name = name');
              check (Printf.sprintf "row %d engine %s verdict" i name) true
                (s = p))
            seq par)
        (List.combine seq_engines par_engines);
      List.iteri
        (fun i (s, p) ->
          check (Printf.sprintf "row %d HASH theorem identical" i) true (s = p))
        (List.combine seq_hash par_hash))

let retime_rule_apps c =
  let k0 = Engines.Common.kernel_now () in
  ignore (hash_outcome c);
  (Obs.kernel_delta ~before:k0 ~after:(Engines.Common.kernel_now ())).Obs
    .rule_apps

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_worker_state_stays_local () =
  (* Kernel counters live in each domain's own state: a worker's delta
     for one retime is its own work, the same count the main domain
     makes for the same retime.  When the pool's domains exit, that state
     (intern tables, counters, memo tables) must go with them: nothing
     outside a domain may keep a reference to it, so repeated pools do
     not grow the heap. *)
  let c4 = Fig2.gate 4 in
  ignore (retime_rule_apps c4);
  let main_apps = retime_rule_apps c4 in
  check "main domain counted kernel work" true (main_apps > 0);
  let circuits = List.map Fig2.gate [ 2; 3; 3; 4 ] in
  let round () =
    Parallel.Pool.run ~jobs:2 (fun pool ->
        map_list pool retime_rule_apps circuits)
  in
  let worker_apps = List.nth (round ()) 3 in
  check_int "worker delta equals the main domain's" main_apps worker_apps;
  let before = live_words () in
  for _ = 1 to 8 do
    ignore (round ())
  done;
  let grown_kb = (live_words () - before) * (Sys.word_size / 8) / 1024 in
  if grown_kb >= 1024 then
    Alcotest.failf "8 pool rounds grew the live heap by %d kB (bound 1024)"
      grown_kb

let test_worker_manager_fresh_and_reused () =
  (* A worker's BDD manager is its own: it starts as empty as a fresh
     [Bdd.manager ()], whatever the spawning domain's manager holds, and
     the worker reuses it across the cells it runs. *)
  let fresh_nodes = Bdd.node_count (Bdd.manager ()) in
  let cells =
    List.concat_map
      (fun n ->
        let c = Fig2.gate n in
        let r = Forward.retime c (Cut.maximal c) in
        [
          (Engines.Smv.equiv, c, r);
          (Engines.Eijk.equiv ?exploit_dependencies:None, c, r);
          (Engines.Eijk.equiv_star, c, r);
        ])
      [ 2; 3; 4 ]
  in
  let verdict (f, c, r) = Engines.Common.result_to_string (f (budget ()) c r) in
  let seq = List.map verdict cells in
  check "main domain's manager holds nodes" true
    (Engines.Common.with_manager Bdd.node_count > fresh_nodes);
  let _, reused0 = Engines.Common.bdd_domain_stats () in
  let probes, par =
    Parallel.Pool.run ~jobs:2 (fun pool ->
        let probes =
          List.init 2 (fun _ ->
              Parallel.Pool.submit pool (fun () ->
                  Engines.Common.with_manager Bdd.node_count))
          |> List.map Parallel.Pool.await
        in
        (probes, map_list pool verdict cells))
  in
  List.iteri
    (fun i nodes ->
      check_int (Printf.sprintf "probe %d: a fresh manager" i) fresh_nodes nodes)
    probes;
  List.iteri
    (fun i (s, p) -> Alcotest.(check string) (Printf.sprintf "cell %d" i) s p)
    (List.combine seq par);
  let _, reused1 = Engines.Common.bdd_domain_stats () in
  check "workers reused their managers" true (reused1 > reused0)

let test_stress_interning_integrity () =
  (* Inside each worker: seeded constants must be physically equal to
     fresh re-constructions, and structurally equal fresh terms must be
     physically equal — i.e. the seeded intern table is a working intern
     table, not a corrupt copy. *)
  let seeded_ty = Hol.Ty.bool in
  let probes =
    Parallel.Pool.run ~jobs:4 (fun pool ->
        map_list pool
          (fun i ->
            let open Hol in
            let open Logic in
            let tt = Boolean.bool_const true in
            let x = Term.mk_var (Printf.sprintf "x%d" i) Ty.bool in
            let a = Boolean.mk_conj tt x in
            let b = Boolean.mk_conj tt x in
            let ty_ok = Ty.fn Ty.bool Ty.bool == Ty.fn seeded_ty seeded_ty in
            let seeded_ok = Term.type_of tt == seeded_ty in
            let fresh_ok = a == b && Term.aconv a b in
            (* the theorem library works against the seeded table *)
            let th = Boolean.conj (Kernel.assume a) (Kernel.assume x) in
            let thm_ok =
              Term.aconv (Kernel.concl th) (Boolean.mk_conj a x)
            in
            ty_ok && seeded_ok && fresh_ok && thm_ok)
          (List.init 16 Fun.id))
  in
  List.iteri
    (fun i ok -> check (Printf.sprintf "probe %d" i) true ok)
    probes

let test_submit_after_shutdown () =
  let pool = Parallel.Pool.create ~jobs:2 () in
  Parallel.Pool.shutdown pool;
  match Parallel.Pool.submit pool (fun () -> 1) with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Parallel.Pool.Shutdown -> ()

let suite =
  [
    Alcotest.test_case "map_list ordering" `Quick test_map_ordering;
    Alcotest.test_case "inline pool" `Quick test_inline_pool;
    Alcotest.test_case "submit after shutdown raises" `Quick
      test_submit_after_shutdown;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "deadline expires in queue" `Quick
      test_deadline_expired_in_queue;
    Alcotest.test_case "deadline against an injected clock" `Quick
      test_deadline_injected_clock;
    Alcotest.test_case "stress: verdicts match sequential" `Slow
      test_stress_verdicts_match_sequential;
    Alcotest.test_case "stress: interning integrity" `Quick
      test_stress_interning_integrity;
    Alcotest.test_case
      "pool workers count their own work and leave nothing behind" `Slow
      test_worker_state_stays_local;
    Alcotest.test_case "a worker's BDD manager starts empty and is reused"
      `Quick test_worker_manager_fresh_and_reused;
  ]
