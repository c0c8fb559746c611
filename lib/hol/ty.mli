(** Types of the higher-order logic.

    A type is either a type variable or the application of a declared type
    operator to argument types.  The kernel (module {!Kernel}) maintains the
    signature of declared type operators; this module only provides the raw
    syntax and the operations on it.

    Types are {e hash-consed}: every [t] is interned in an open-addressed
    table, so structurally equal types are physically equal, [equal] is
    [(==)], and [compare] orders by interning id.  The [node] field is
    readable and matchable; construction goes through the smart
    constructors below. *)

type t = private { id : int; hash : int; node : node }

and node =
  | Tyvar of string  (** a type variable, e.g. [:a] *)
  | Tyapp of string * t list
      (** a type operator applied to arguments, e.g. [:(bool)list] *)

(** {1 Constructors} *)

val var : string -> t
(** [var v] is the type variable [:v]. *)

val app : string -> t list -> t
(** [app op args] is the interned application of [op] to [args]. *)

(** {1 Built-in type operators}

    These operators are part of the initial signature installed by
    {!Kernel}; they are provided here as smart constructors for
    convenience. *)

val bool : t
(** The type of propositions. *)

val num : t
(** The type of natural numbers (time, in the Automata theory). *)

val alpha : t
(** The type variable [:a]. *)

val beta : t
(** The type variable [:b]. *)

val gamma : t
(** The type variable [:c]. *)

val delta : t
(** The type variable [:d]. *)

val fn : t -> t -> t
(** [fn a b] is the function type [:a -> b]. *)

val prod : t -> t -> t
(** [prod a b] is the product type [:a # b]. *)

val list : t -> t
(** [list a] is the type [:(a)list]. *)

val bv : t
(** [bv] is [:(bool)list], the type of words (bit vectors, LSB first). *)

(** {1 Destructors} *)

val dest_fn : t -> t * t
(** Destruct a function type.  @raise Failure if not a function type. *)

val dest_prod : t -> t * t
(** Destruct a product type.  @raise Failure if not a product type. *)

(** {1 Operations} *)

val tyvars : t -> string list
(** The type variables occurring in a type, each listed once. *)

val subst : (string * t) list -> t -> t
(** [subst theta ty] replaces every type variable [v] bound in [theta] by
    its image.  Unbound variables are unchanged.  Returns [ty] itself
    (physically) when nothing changes. *)

val match_ : t -> t -> (string * t) list -> (string * t) list
(** [match_ pattern concrete acc] extends the type-variable instantiation
    [acc] so that [subst result pattern = concrete].
    @raise Failure if no such instantiation exists. *)

val compare : t -> t -> int
(** Total order by interning id (consistent with [equal]). *)

val equal : t -> t -> bool
(** Physical equality — sound and complete thanks to interning. *)

val node_count : unit -> int
(** Number of distinct type nodes interned in the {e current domain}
    (seeded nodes inherited from the spawning domain included). *)

val freeze : unit -> unit
(** Snapshot the calling domain's intern table as the seed for domains
    spawned afterwards: their tables start as a copy, so every type
    already interned here keeps its physical-equality property there.
    Called by [Logic.Domain_state.prepare_spawn]; terms and types created
    after the freeze must not flow into the new domains. *)

