(** A fixed-size pool of OCaml 5 domains with a work queue and futures.

    Built for fleets of independent computations (the bench's
    (circuit, engine) cells): submit thunks, await results in whatever
    order you like, exceptions are captured per task and re-raised at
    {!await}.  Tasks may carry an absolute deadline; a task whose
    deadline passes while it is still queued is cancelled instead of run.
    A task that has started runs to the end: the pool never interrupts
    it, so a long computation bounds itself with its own budget (the
    engines' [Common.budget_of_seconds], HASH's [Conv.with_step]).

    A pool of size [<= 1] spawns no domains: {!submit} runs each thunk
    inline in the calling domain, in submission order — bit-for-bit the
    sequential behaviour ([BENCH_JOBS=1]).  Inline execution is
    serialized under an internal mutex, so several systhreads of one
    domain (the serve layer's connection handlers) may submit
    concurrently without interleaving kernel work in the domain's DLS
    state.  Consequence: a thunk running on an inline pool must not
    submit to that same pool — it would deadlock on the inline mutex.
    Thunks are leaf computations everywhere in this codebase.

    Creating a pool of size [> 1] first calls
    [Logic.Domain_state.prepare_spawn], so worker domains inherit every
    term/type interned so far (theorem libraries, constants) with
    physical equality intact.  The discipline that implies: create pools
    from the initial domain after module initialisation, and do not let
    terms built after pool creation flow between domains.  Nothing else
    is handed to the workers: a task builds any other state it needs
    (a BDD manager, memo tables) in its own domain. *)

type t
(** A pool.  Thread-safe: any domain may submit. *)

type 'a future

exception Cancelled
(** Raised by {!await} on a task whose deadline passed before it
    started. *)

exception Shutdown
(** Raised by {!submit} on a pool that has been shut down (typed, so
    long-lived callers like the retiming server can map it to a
    structured error). *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs <= 1]: none;
    default [Domain.recommended_domain_count ()]); the workers inherit
    the kernel snapshot described above and nothing else. *)

val submit : ?deadline:float -> t -> (unit -> 'a) -> 'a future
(** Enqueue a thunk; [deadline] is an absolute {!Logic.Clock.now} time
    (monotonic — immune to wall-clock steps; compute it as
    [Logic.Clock.now () +. budget_s]).  The deadline is judged once,
    when a worker takes the task: past it, the task is dropped and
    {!await} raises {!Cancelled}; before it, the task runs to the end.
    On an inline pool the thunk runs before [submit] returns.
    @raise Shutdown if the pool has been shut down. *)

val await : 'a future -> 'a
(** Block until the task resolves.  Re-raises the task's exception (with
    its backtrace) if it failed; raises {!Cancelled} if it was
    cancelled. *)

val shutdown : t -> unit
(** Drain the queue, then join all workers.  Idempotent. *)

val run : ?jobs:int -> (t -> 'a) -> 'a
(** [run ~jobs f]: [create], apply [f], always [shutdown]. *)
