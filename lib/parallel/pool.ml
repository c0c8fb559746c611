(* A pool of at most [size] OCaml 5 domains with a shared work queue and
   futures.  Built for the bench fleet: every (circuit, engine) cell is an
   independent computation, so the pool only needs submit/await and
   per-task exception capture — no deadlines, no work stealing, no
   nested parallelism.  A task runs to the end: engines poll their own
   budgets, and a caller that must not start a task late (the daemon's
   front door) checks its own deadline when the task starts.

   Concurrency structure: the queue is guarded by one mutex/condition
   pair; each future carries its own pair, so awaiting one future never
   wakes unrelated waiters.  The queue holds existentially-boxed
   (future, thunk) pairs.  Workers pop one, run the thunk outside every
   lock, and publish Done/Failed under the future's lock.

   Workers are spawned on demand: [submit] spawns one only when the task
   it enqueues would otherwise wait (more queued tasks than free
   workers), until [size] exist.  Every domain takes part in every
   stop-the-world collection, so an idle worker still costs CPU: a
   client that keeps one task in flight runs on one worker, not [size].  A
   worker counts itself free before it publishes its result, so the
   next task of such a client finds it free and spawns nothing.

   [size = 0] spawns no domains at all: [submit] runs the thunk inline
   in the calling domain, in submission order — bit-for-bit the
   sequential behaviour, which is what makes `BENCH_JOBS=1` a faithful
   baseline.  [size = 1] is one worker domain, not the caller: the
   daemon runs its proofs there while the connection domain keeps
   answering exact-text hits.  The pool caps nothing at the host's CPU
   count: a caller that idles in [await] (the bench fleet) may keep
   every worker it asks for, and the daemon, whose calling domain stays
   busy, sizes its own pool (lib/serve).

   [create] calls [Logic.Domain_state.prepare_spawn], which snapshots the
   logic kernel's intern tables so the worker domains, whenever they are
   spawned, inherit every term/type built during module initialisation
   with physical equality intact (see that module for the discipline).
   That is all a worker inherits: any other state a task uses (BDD
   managers, memo tables) it builds in its own domain. *)

exception Shutdown

type 'a status =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_mu : Mutex.t;
  f_cv : Condition.t;
  mutable status : 'a status;
}

type job = Job : 'a future * (unit -> 'a) -> job

type t = {
  size : int;
  q_mu : Mutex.t;
  q_cv : Condition.t;
  q : job Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list; (* every worker spawned so far *)
  mutable free : int; (* workers not running a task *)
  (* Serializes inline execution when [size = 0].  The serve layer's
     connection-handler threads all live in one domain and share its
     kernel DLS state (intern tables, memo caches); letting two of them
     interleave kernel work at allocation points would corrupt it.  A
     thunk submitted to an inline pool from inside another inline thunk
     of the same pool would deadlock here — no caller does that (thunks
     are leaf computations), and the .mli states the restriction. *)
  inline_mu : Mutex.t;
}


(* ------------------------------------------------------------------ *)
(* Running a job                                                       *)
(* ------------------------------------------------------------------ *)

(* [finished] runs after the task and before its result is published. *)
let run_job ~finished fut thunk =
  let status =
    try Done (thunk ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  finished ();
  Mutex.lock fut.f_mu;
  fut.status <- status;
  Condition.broadcast fut.f_cv;
  Mutex.unlock fut.f_mu

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let rec worker_loop pool =
  Mutex.lock pool.q_mu;
  let rec next () =
    if not (Queue.is_empty pool.q) then begin
      pool.free <- pool.free - 1;
      Some (Queue.pop pool.q)
    end
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
  | Some (Job (fut, thunk)) ->
      run_job fut thunk ~finished:(fun () ->
          Mutex.protect pool.q_mu (fun () -> pool.free <- pool.free + 1));
      worker_loop pool

(* Called under [q_mu].  A spawn that fails for want of resources
   (Failure) is harmless while another worker is left to drain the
   queue; with none, the exception leaves [submit] before its task is
   queued. *)
let spawn_worker pool =
  match Domain.spawn (fun () -> worker_loop pool) with
  | d ->
      pool.workers <- d :: pool.workers;
      pool.free <- pool.free + 1
  | exception Failure _ when pool.workers <> [] -> ()

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let create ~workers =
  let size = max 0 workers in
  if size > 0 then Logic.Domain_state.prepare_spawn ();
  {
    size;
    q_mu = Mutex.create ();
    q_cv = Condition.create ();
    q = Queue.create ();
    closed = false;
    workers = [];
    free = 0;
    inline_mu = Mutex.create ();
  }

let submit pool thunk =
  let fut =
    { f_mu = Mutex.create (); f_cv = Condition.create (); status = Pending }
  in
  if pool.size = 0 then begin
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
      (fun () -> run_job fut thunk ~finished:ignore)
  end
  else
    Mutex.protect pool.q_mu (fun () ->
        if pool.closed then raise Shutdown;
        (* this task would wait: one more worker, up to [size] *)
        if
          Queue.length pool.q >= pool.free
          && List.length pool.workers < pool.size
        then spawn_worker pool;
        Queue.push (Job (fut, thunk)) pool.q;
        Condition.signal pool.q_cv);
  fut

let await fut =
  Mutex.lock fut.f_mu;
  let rec wait () =
    match fut.status with
    | Pending ->
        Condition.wait fut.f_cv fut.f_mu;
        wait ()
    | Done v ->
        Mutex.unlock fut.f_mu;
        v
    | Failed (e, bt) ->
        Mutex.unlock fut.f_mu;
        Printexc.raise_with_backtrace e bt
  in
  wait ()

let shutdown pool =
  let workers =
    Mutex.protect pool.q_mu (fun () ->
        pool.closed <- true;
        Condition.broadcast pool.q_cv;
        let workers = pool.workers in
        pool.workers <- [];
        workers)
  in
  List.iter Domain.join workers

let run ~workers f =
  let pool = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
