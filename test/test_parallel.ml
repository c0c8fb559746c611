(* The domain pool and the domain-safety of the shared kernel state:
   ordering and exception behaviour of futures, deadline cancellation,
   and a concurrency stress test checking that engine verdicts from
   worker domains match the sequential run, that per-task kernel-counter
   deltas sum to the cross-domain totals, and that the seeded intern
   tables keep the physical-equality invariant inside workers. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_ordering () =
  Parallel.Pool.run ~jobs:4 (fun pool ->
      let xs = List.init 40 Fun.id in
      let ys = Parallel.Pool.map_list pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "results in submission order"
        (List.map (fun x -> x * x) xs)
        ys)

let test_inline_pool () =
  Parallel.Pool.run ~jobs:1 (fun pool ->
      check_int "size clamps to 1" 1 (Parallel.Pool.size pool);
      let ran = ref false in
      let fut = Parallel.Pool.submit pool (fun () -> ran := true; 7) in
      check "inline task ran before await" true !ran;
      check_int "inline result" 7 (Parallel.Pool.await fut))

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

let test_deadline_check_while_running () =
  (* A running task polls [check]; once the deadline passes the poll
     raises and the future resolves as cancelled.  Inline pool: the same
     code path runs in the submitting domain. *)
  Parallel.Pool.run ~jobs:1 (fun pool ->
      let polls = ref 0 in
      let fut =
        Parallel.Pool.submit
          ~deadline:(Logic.Clock.now () +. 0.05)
          pool
          (fun () ->
            while true do
              incr polls;
              Parallel.Pool.check ();
              Unix.sleepf 0.01
            done)
      in
      (match Parallel.Pool.await fut with
      | () -> Alcotest.fail "expected cancellation"
      | exception Parallel.Pool.Cancelled -> ());
      check "task made progress before the deadline" true (!polls > 0))

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
            Parallel.Pool.check ();
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

let test_cancel_pending () =
  Parallel.Pool.run ~jobs:2 (fun pool ->
      let blockers =
        List.init 2 (fun _ ->
            Parallel.Pool.submit pool (fun () -> Unix.sleepf 0.3))
      in
      let ran = Atomic.make false in
      let fut = Parallel.Pool.submit pool (fun () -> Atomic.set ran true) in
      Parallel.Pool.cancel fut;
      (match Parallel.Pool.await fut with
      | () -> Alcotest.fail "expected cancellation"
      | exception Parallel.Pool.Cancelled -> ());
      check "cancelled task never ran" false (Atomic.get ran);
      List.iter Parallel.Pool.await blockers)

(* ------------------------------------------------------------------ *)
(* Concurrency stress: engines across domains                          *)
(* ------------------------------------------------------------------ *)

let budget () = Engines.Common.budget_of_seconds 60.0

(* Every engine on the same circuit pair, as plain-data outcomes (tags
   and strings only — terms must not cross domains). *)
let engine_outcomes c r =
  let tag f = Engines.Common.result_tag (f (budget ()) c r) in
  [
    ("smv", tag Engines.Smv.equiv);
    ("sis", tag Engines.Sis_fsm.equiv);
    ("eijk", tag Engines.Eijk.equiv);
    ("eijk_star", tag Engines.Eijk.equiv_star);
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

let test_stress_counters_aggregate () =
  let pairs =
    List.map
      (fun n ->
        let c = Fig2.gate n in
        (c, Forward.retime c (Cut.maximal c)))
      [ 2; 3; 3; 4 ]
  in
  let t0 = Engines.Common.kernel_total () in
  let deltas =
    Parallel.Pool.run ~jobs:3 (fun pool ->
        Parallel.Pool.map_list pool
          (fun (c, r) ->
            let k0 = Engines.Common.kernel_now () in
            ignore (engine_outcomes c r);
            ignore (hash_outcome c);
            Obs.kernel_delta ~before:k0 ~after:(Engines.Common.kernel_now ()))
          pairs)
  in
  (* the pool is joined: totals are exact now *)
  let t1 = Engines.Common.kernel_total () in
  let task_sum = List.fold_left Obs.kernel_add Obs.empty_kernel deltas in
  check "tasks did kernel work" true (task_sum.Obs.rule_apps > 0);
  (* Monotone counters: everything the fleet did is either inside a task
     (the summed deltas) or in this main domain (nothing, between the two
     total reads).  Populations are excluded: they are per-table state,
     not rates. *)
  check_int "rule_apps aggregate" task_sum.Obs.rule_apps
    (t1.Obs.rule_apps - t0.Obs.rule_apps);
  check_int "term_mk_calls aggregate" task_sum.Obs.term_mk_calls
    (t1.Obs.term_mk_calls - t0.Obs.term_mk_calls);
  check_int "intern_hits aggregate" task_sum.Obs.term_intern_hits
    (t1.Obs.term_intern_hits - t0.Obs.term_intern_hits);
  check_int "intern_misses aggregate" task_sum.Obs.term_intern_misses
    (t1.Obs.term_intern_misses - t0.Obs.term_intern_misses);
  check_int "conv_memo_hits aggregate" task_sum.Obs.conv_memo_hits
    (t1.Obs.conv_memo_hits - t0.Obs.conv_memo_hits);
  check_int "conv_memo_misses aggregate" task_sum.Obs.conv_memo_misses
    (t1.Obs.conv_memo_misses - t0.Obs.conv_memo_misses)

let test_stress_interning_integrity () =
  (* Inside each worker: seeded constants must be physically equal to
     fresh re-constructions, and structurally equal fresh terms must be
     physically equal — i.e. the seeded intern table is a working intern
     table, not a corrupt copy. *)
  let seeded_ty = Hol.Ty.bool in
  let probes =
    Parallel.Pool.run ~jobs:4 (fun pool ->
        Parallel.Pool.map_list pool
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
    Alcotest.test_case "deadline check while running" `Quick
      test_deadline_check_while_running;
    Alcotest.test_case "deadline against an injected clock" `Quick
      test_deadline_injected_clock;
    Alcotest.test_case "cancel pending" `Quick test_cancel_pending;
    Alcotest.test_case "stress: verdicts match sequential" `Slow
      test_stress_verdicts_match_sequential;
    Alcotest.test_case "stress: counters aggregate" `Slow
      test_stress_counters_aggregate;
    Alcotest.test_case "stress: interning integrity" `Quick
      test_stress_interning_integrity;
  ]
