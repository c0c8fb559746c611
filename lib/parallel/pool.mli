(** A pool of at most [workers] OCaml 5 worker domains with a work
    queue and futures.

    Built for fleets of independent computations (the bench's
    (circuit, engine) cells): submit thunks, await results in whatever
    order you like, exceptions are captured per task and re-raised at
    {!await}.  The pool knows no deadlines: every task runs, and runs to
    the end, so a long computation bounds itself with its own budget
    (the engines' [Common.budget_of_seconds], HASH's [Conv.with_step]),
    and a task that must not start late checks the clock itself when it
    starts (the daemon's front door, lib/serve).

    A pool of [0] workers spawns no domains: {!submit} runs each thunk
    inline in the calling domain, in submission order — bit-for-bit the
    sequential behaviour ([BENCH_JOBS=1], [serve --jobs 1]).  Inline
    execution is serialized under an internal mutex, so several
    systhreads of one domain (the serve layer's connection handlers) may
    submit concurrently without interleaving kernel work in the domain's
    DLS state.  Consequence: a thunk running on an inline pool must not
    submit to that same pool — it would deadlock on the inline mutex.
    Thunks are leaf computations everywhere in this codebase.

    A pool of [n >= 1] workers spawns them on demand: {!submit} spawns
    one only when the task it queues would otherwise wait (more queued
    tasks than free workers), until [n] exist.  A caller that awaits
    each task before submitting the next runs on one worker, and no idle
    domain joins its stop-the-world collections.  [n = 1] runs every
    task on one worker domain, never the caller's.  The pool does not
    cap [n] at the host's CPUs: a caller that sits idle in {!await} may
    use them all, while one that keeps working beside its tasks (the
    daemon's connection domain) counts itself and asks for fewer.

    Creating a pool of [n >= 1] workers calls
    [Logic.Domain_state.prepare_spawn], so worker domains, whenever they
    are spawned, inherit every term/type interned before the pool was
    created (theorem libraries, constants) with physical equality
    intact.  The discipline that implies: create pools from the initial
    domain after module initialisation, and do not let terms built
    after pool creation flow between domains.  Nothing else is handed
    to the workers: a task builds any other state it needs (a BDD
    manager, memo tables) in its own domain. *)

type t
(** A pool.  Thread-safe: any domain may submit. *)

type 'a future

exception Shutdown
(** Raised by {!submit} on a pool that has been shut down (typed, so
    long-lived callers like the retiming server can map it to a
    structured error). *)

val create : workers:int -> t
(** [create ~workers] makes a pool of at most [workers] worker domains
    ([workers <= 0]: none, tasks run inline).  It spawns none yet: see
    {!submit}.  The workers inherit the kernel snapshot described above
    and nothing else. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a thunk.  On an inline pool the thunk runs before [submit]
    returns; otherwise [submit] spawns a worker when the task would wait
    for one.
    @raise Shutdown if the pool has been shut down.
    @raise Failure if the pool has no worker and cannot spawn one; the
    task is then not queued. *)

val await : 'a future -> 'a
(** Block until the task resolves.  Re-raises the task's exception (with
    its backtrace) if it failed. *)

val shutdown : t -> unit
(** Drain the queue, then join every worker spawned so far.
    Idempotent. *)

val run : workers:int -> (t -> 'a) -> 'a
(** [run ~workers f]: [create], apply [f], always [shutdown]. *)
