(** Synthetic stand-ins for the IWLS'91 sequential benchmarks of the
    paper's Table II.

    The original benchmark netlists are not redistributable; these
    deterministic (seeded) generators produce circuits with the same
    flip-flop counts, comparable gate counts and comparable structure —
    a mix of counter/LFSR state logic, input-driven steering logic, and a
    register-fed (hence retimable) pipeline block, so that every circuit
    has a non-trivial maximal forward-retiming cut.  The [mult*] entries
    are genuine shift-add multiplier datapaths (the paper's fractional
    multipliers).  See DESIGN.md for the substitution argument. *)

type entry = {
  name : string;
  circuit : Circuit.t Lazy.t;  (** bit-level *)
  paper_flipflops : int;  (** flip-flop count reported in the paper *)
}

val suite : entry list
(** Table II's circuit list, in the paper's order. *)

val find : string -> entry
(** @raise Not_found *)

val synth :
  name:string -> ffs:int -> gates:int -> ins:int -> outs:int -> seed:int ->
  Circuit.t
(** The underlying generator (also used by tests). *)
