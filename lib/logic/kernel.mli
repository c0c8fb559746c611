(** The kernel as the rest of the system calls it: every rule and
    theory operation of the trusted {!Hol.Kernel}, plus the proof
    recorder.

    The recorder is not part of the trusted base.  It plugs into the
    kernel through {!Hol.Kernel.set_hook} and reads only the step
    indices the kernel stores for it, so a fault in it can spoil a
    certificate (which the independent checker then rejects) but cannot
    make a false theorem pass. *)

include module type of struct
  include Hol.Kernel
end

(** {1 Proof recording}

    While recording is on (per-domain), every primitive inference
    appends one event to an append-only trace; theorems carry the index
    of the event that proved them.  Inputs proved before recording
    started are resolved by name against the theory registries
    (axioms, definitions, registered theorems); an input that cannot be
    resolved {e poisons} the trace — the proof itself is unaffected,
    but {!stop_recording} returns [Error] instead of a trace, so a
    certificate can never silently omit a step. *)

module Trace : sig
  type event =
    | Refl of Hol.Term.t
    | Trans of int * int
    | Mk_comb of int * int
    | Abs of Hol.Term.t * int
    | Beta of Hol.Term.t
    | Assume of Hol.Term.t
    | Eq_mp of int * int
    | Deduct of int * int
    | Inst of (Hol.Term.t * Hol.Term.t) list * int
    | Inst_type of (string * Hol.Ty.t) list * int
    | Axiom_ref of string  (** named axiom of the ambient theory *)
    | Def_ref of string  (** definitional theorem, by constant name *)
    | Import of string  (** theorem registered via [register_theorem] *)

  type t
  (** A completed trace.  Stored packed (struct of arrays) so that the
      int-operand events that dominate synthesis proofs record without
      allocating; {!event} materialises the variant view on demand. *)

  val length : t -> int

  val event : t -> int -> event
  (** [event tr k] is step [k], [0 <= k < length tr].  Undefined
      outside that range. *)
end

val start_recording : unit -> unit
(** Begin recording on the calling domain: empty its memo tables
    ({!Memo.release_domain}; a memoised theorem from before the trace
    began would be an unresolvable input), then set the kernel hook.
    @raise Failure if already recording. *)

val stop_recording : unit -> (Trace.t, string) result
(** Clear the hook and return the trace, or [Error msg] if the trace
    was poisoned by an unresolvable input.
    @raise Failure if not recording. *)

val step_in : Trace.t -> thm -> int option
(** The index of the event that proved [th] within [tr], if [th] was
    recorded in that trace. *)
