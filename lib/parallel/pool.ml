(* A fixed-size pool of OCaml 5 domains with a shared work queue and
   futures.  Built for the bench fleet: every (circuit, engine) cell is an
   independent computation, so the pool only needs submit/await, per-task
   exception capture and dropping queued tasks whose deadline has passed
   — no work stealing, no nested parallelism.  A running task is never
   interrupted: engines poll their own budgets.

   Concurrency structure: the queue is guarded by one mutex/condition
   pair; each future carries its own pair, so awaiting one future never
   wakes unrelated waiters.  A future's thunk lives inside the future
   (status [Pending thunk]); the queue holds only existentially-boxed
   futures.  Workers pop, flip Pending -> Running outside the queue lock,
   run the thunk, and publish Done/Failed under the future's lock.

   [size <= 1] spawns no domains at all: [submit] runs the thunk inline
   in the calling domain, in submission order — bit-for-bit the
   sequential behaviour, which is what makes `BENCH_JOBS=1` a faithful
   baseline.

   Spawning is preceded by [Logic.Domain_state.prepare_spawn], which
   snapshots the logic kernel's intern tables so the worker domains
   inherit every term/type built during module initialisation with
   physical equality intact (see that module for the discipline).  That
   is all a worker inherits: any other state a task uses (BDD managers,
   memo tables) it builds in its own domain. *)

exception Cancelled
exception Shutdown

type 'a status =
  | Pending of (unit -> 'a)
  | Running
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace
  | Killed  (* its deadline passed before it started *)

type 'a future = {
  f_mu : Mutex.t;
  f_cv : Condition.t;
  mutable status : 'a status;
  deadline : float option; (* absolute monotonic time (Logic.Clock.now) *)
}

type job = Job : 'a future -> job

type t = {
  size : int;
  q_mu : Mutex.t;
  q_cv : Condition.t;
  q : job Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  (* Serializes inline execution when [size <= 1].  The serve layer's
     connection-handler threads all live in one domain and share its
     kernel DLS state (intern tables, memo caches); letting two of them
     interleave kernel work at allocation points would corrupt it.  A
     thunk submitted to an inline pool from inside another inline thunk
     of the same pool would deadlock here — no caller does that (thunks
     are leaf computations), and the .mli states the restriction. *)
  inline_mu : Mutex.t;
}

let size pool = pool.size

(* ------------------------------------------------------------------ *)
(* Running a job                                                       *)
(* ------------------------------------------------------------------ *)

let expired = function
  | Some d -> Logic.Clock.now () > d
  | None -> false

let run_job (type a) (fut : a future) =
  Mutex.lock fut.f_mu;
  match fut.status with
  | Pending thunk when not (expired fut.deadline) ->
      fut.status <- Running;
      Mutex.unlock fut.f_mu;
      let outcome =
        try Ok (thunk ()) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock fut.f_mu;
      (match outcome with
      | Ok v -> fut.status <- Done v
      | Error (e, bt) -> fut.status <- Failed (e, bt));
      Condition.broadcast fut.f_cv;
      Mutex.unlock fut.f_mu
  | _ ->
      (* dead on arrival: its deadline passed while it sat in the queue
         (a job runs once, so its status is still [Pending] here) *)
      fut.status <- Killed;
      Condition.broadcast fut.f_cv;
      Mutex.unlock fut.f_mu

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let rec worker_loop pool =
  Mutex.lock pool.q_mu;
  let rec next () =
    if not (Queue.is_empty pool.q) then Some (Queue.pop pool.q)
    else if pool.closed then None
    else begin
      Condition.wait pool.q_cv pool.q_mu;
      next ()
    end
  in
  let job = next () in
  Mutex.unlock pool.q_mu;
  match job with
  | None -> ()
  | Some (Job fut) ->
      run_job fut;
      worker_loop pool

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let create ?jobs () =
  let size =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  let pool =
    {
      size;
      q_mu = Mutex.create ();
      q_cv = Condition.create ();
      q = Queue.create ();
      closed = false;
      workers = [];
      inline_mu = Mutex.create ();
    }
  in
  if size > 1 then begin
    Logic.Domain_state.prepare_spawn ();
    pool.workers <-
      List.init size (fun _ -> Domain.spawn (fun () -> worker_loop pool))
  end;
  pool

let submit ?deadline pool thunk =
  let fut =
    {
      f_mu = Mutex.create ();
      f_cv = Condition.create ();
      status = Pending thunk;
      deadline;
    }
  in
  if pool.size <= 1 then begin
    (* inline pool: same contract as the queued path.  Concurrent
       submitters (connection-handler threads) take turns — one kernel
       computation at a time, exactly like a single worker domain. *)
    Mutex.lock pool.q_mu;
    let closed = pool.closed in
    Mutex.unlock pool.q_mu;
    if closed then raise Shutdown;
    Mutex.lock pool.inline_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool.inline_mu)
      (fun () -> run_job fut)
  end
  else begin
    Mutex.lock pool.q_mu;
    if pool.closed then begin
      Mutex.unlock pool.q_mu;
      raise Shutdown
    end;
    Queue.push (Job fut) pool.q;
    Condition.signal pool.q_cv;
    Mutex.unlock pool.q_mu
  end;
  fut

let await fut =
  Mutex.lock fut.f_mu;
  let rec wait () =
    match fut.status with
    | Pending _ | Running ->
        Condition.wait fut.f_cv fut.f_mu;
        wait ()
    | Done v ->
        Mutex.unlock fut.f_mu;
        v
    | Failed (e, bt) ->
        Mutex.unlock fut.f_mu;
        Printexc.raise_with_backtrace e bt
    | Killed ->
        Mutex.unlock fut.f_mu;
        raise Cancelled
  in
  wait ()

let map_list ?deadline pool f xs =
  let futs = List.map (fun x -> submit ?deadline pool (fun () -> f x)) xs in
  List.map await futs

let shutdown pool =
  Mutex.lock pool.q_mu;
  pool.closed <- true;
  Condition.broadcast pool.q_cv;
  Mutex.unlock pool.q_mu;
  if pool.size > 1 then begin
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let run ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
