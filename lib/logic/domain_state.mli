(** Seeding protocol for spawning worker domains.

    The kernel's mutable state ({!Term}/{!Ty} intern tables, {!Memo}
    caches, {!Kernel} rule counters) is domain-local, so the
    physical-equality invariant of hash-consing holds only within a
    domain.  Terms built during module initialisation (theorem libraries,
    constants) are shared with workers by {e seeding}: {!prepare_spawn}
    snapshots the calling domain's intern tables, and every domain
    spawned afterwards starts from that snapshot. *)

val prepare_spawn : unit -> unit
(** Snapshot the calling domain's {!Ty} and {!Term} intern tables (after
    a major GC, so only live nodes are carried) as the seed for
    subsequently spawned domains.  Call it after module initialisation,
    while no other domain runs, before spawning workers — the domain
    pool ([Parallel.Pool.create]) does this for you.  A domain starts
    from the last snapshot taken before it spawns, however long after
    (the pool spawns its workers on demand).  Terms and types created
    after the freeze must not flow into other domains. *)
