(** Memo tables keyed on interned node ids.

    The storage behind {!Conv.memo_top_depth_conv} and friends: an
    open-addressed table whose entries are {e never} evicted while it is
    in use (eviction mid-recursion on a shared dag spine would cause
    exponential re-expansion).  A table is released wholesale instead:
    at the end of each HASH step ({!release_domain}), or by {!new_call}
    once it holds more than 2M entries. *)

type 'a t

val create : unit -> 'a t
(** [create ()] makes a table with initial size [2^12] that {!new_call}
    releases once it holds more than 2M entries.  Its lookups count
    toward the {!stats} of the creating domain, so a table is used only
    on that domain. *)

val new_call : 'a t -> unit
(** Declare a top-level call boundary: the only point where a release
    over the cap may take place.  Call it on entry to the memoised
    function, never mid-recursion. *)

val find : 'a t -> int -> 'a option
(** Lookup by node id.  Counts a global hit or miss (see {!stats}). *)

val add : 'a t -> int -> 'a -> unit

val release_domain : unit -> unit
(** Empty every memo table ever created on the calling domain, resetting
    each to its initial [2^12] arrays so no cached value stays
    reachable.  Called when a HASH step returns or raises
    ({!Conv.with_step}), and by [Kernel.start_recording] so that no
    theorem memoised before the trace began can leak into a recorded
    proof as an unresolvable input.  Like {!new_call}, only sound
    between top-level calls of the memoised functions. *)

val on_release : (unit -> unit) -> unit
(** [on_release f] adds [f] to the calling domain's release list, so
    that {!release_domain} calls it beside the memo tables' own
    releases.  For per-domain caches that are not memo tables (the
    pair caches of {!Pairs}); their lookups stay out of {!stats}. *)

val stats : unit -> int * int
(** [(hits, misses)] accumulated across every memo table of the {e
    current domain} since its start. *)
