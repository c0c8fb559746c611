(* Seeding protocol for spawning worker domains.

   The logic kernel's mutable state (intern tables, memo caches, rule
   counters) is domain-local: each domain works on its own copy with zero
   contention.  The hash-consing invariant — structural equality is
   physical equality — then only holds *within* a domain, which is fine
   as long as no term crosses a domain boundary... except that plenty of
   terms are built once at module-initialisation time (Ty.bool, the
   Boolean theorem library, the retiming theorem) and are closed over by
   code that will run in workers.

   [prepare_spawn] squares that circle: it snapshots the calling domain's
   intern tables, and every domain spawned afterwards starts from the
   snapshot — same nodes, same ids, with its own id counter resuming
   above them.  Those shared nodes therefore keep their physical-equality
   property in every worker.  The discipline is:

   - call [prepare_spawn] once, after all module initialisation, while no
     other domain is running, before spawning workers (the pool calls it
     when it is created and spawns its workers later, on demand; a
     domain starts from the last snapshot taken before it spawns);
   - never let a term or type built *after* the freeze flow into another
     domain (ids are only unique per domain beyond the frozen prefix).

   The kernel signature (type/term constants, definitions, axioms) stays
   plain shared state: theories only extend it during module
   initialisation, so by spawn time it is read-only. *)

open Hol

let mu = Mutex.create ()

let prepare_spawn () =
  Mutex.protect mu (fun () ->
      (* Drop dead nodes first so the snapshot only carries the live
         theorem libraries, not the garbage of prior runs. *)
      Gc.full_major ();
      Ty.freeze ();
      Term.freeze ())
