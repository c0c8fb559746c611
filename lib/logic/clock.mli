(** Monotonic time for deadline arithmetic.

    Deadlines ([Pool], [Engines.Common], [Serve]) are absolute instants
    compared against {!now}.  Computing them from [Unix.gettimeofday]
    made every in-flight deadline fire immediately (or never) across an
    NTP step or manual clock change; {!now} reads
    [clock_gettime(CLOCK_MONOTONIC)] instead, whose epoch is arbitrary
    but whose advance is steady.  A serve response's [wall_s] is a
    difference of two {!now} readings, taken on the same clock as the
    request's deadline. *)

val now : unit -> float
(** Seconds on the current source (monotonic by default).  Only
    differences and comparisons are meaningful — the epoch is
    arbitrary and not comparable across processes. *)

val monotonic_seconds : unit -> float
(** The raw [CLOCK_MONOTONIC] reading, bypassing any injected source. *)

val set_source : (unit -> float) -> unit
(** Replace the source {!now} reads — test-only, for simulating clock
    behaviour (e.g. proving deadlines survive a wall-clock epoch jump).
    The injected function must be safe to call from any domain. *)

val use_monotonic : unit -> unit
(** Restore the default monotonic source. *)
