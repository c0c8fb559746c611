(** Terms of the higher-order logic.

    Terms are simply-typed lambda-terms with named variables.  The kernel
    invariantly produces well-typed terms; the smart constructors here
    check types and raise [Failure] on ill-typed combinations.

    Performance note: terms are {e hash-consed} — every node is interned
    in a weak hash-set, so structurally equal terms are physically equal.
    The set is open-addressed: a weak array of power-of-two capacity
    beside an array of the nodes' hashes, probed linearly.  A collected
    node's slot keeps its hash until the table is rebuilt, which happens
    once used slots pass half the capacity, into at least four times the
    live entries: the table shrinks after a burst as well as growing.
    [type_of] is a per-node cached field, the free-variable set of every
    node is a precomputed exact bitset ([fv]), and [aconv]/[vsubst]/
    [alphaorder] exploit physical equality and id-keyed memo tables, so
    their cost is linear in the number of {e distinct} subterm nodes even
    when the tree representation is exponentially larger than the dag
    (fully inlined circuit let-chains). *)

type t = private {
  id : int;  (** unique interning id; never reused *)
  hash : int;
  ty : Ty.t;  (** cached [type_of] *)
  fv : Bits.t;  (** exact free-variable set, by compact var index *)
  node : node;
}

and node =
  | Var of string * Ty.t
  | Const of string * Ty.t
  | Comb of t * t
  | Abs of t * t  (** [Abs (v, body)] where [v] is always a [Var] *)

(** {1 Constructors} *)

val mk_var : string -> Ty.t -> t

val mk_const_raw : string -> Ty.t -> t
(** Build a constant with exactly the given type.  The kernel checks
    constants against the signature; this raw constructor is used by the
    kernel itself and by the printer tests. *)

val mk_comb : t -> t -> t
(** @raise Failure if the operator is not a function type matching the
    operand. *)

val mk_abs : t -> t -> t
(** [mk_abs v body].  @raise Failure if [v] is not a variable. *)

val list_mk_comb : t -> t list -> t
val list_mk_abs : t list -> t -> t

val mk_eq : t -> t -> t
(** [mk_eq l r] is the equation [l = r].
    @raise Failure if the two sides have different types. *)

val eq_const : Ty.t -> t
(** [eq_const ty] is the equality constant [(=) : ty -> ty -> bool] that
    {!mk_eq} applies at sides of type [ty]; cached per type. *)

(** {1 Destructors and tests} *)

val dest_var : t -> string * Ty.t
val dest_comb : t -> t * t
val dest_abs : t -> t * t
val dest_eq : t -> t * t
val is_var : t -> bool
val is_abs : t -> bool
val is_eq : t -> bool
val rator : t -> t

val strip_comb : t -> t * t list
(** [strip_comb (f a b c)] is [(f, [a; b; c])]. *)

val type_of : t -> Ty.t
(** O(1): reads the cached [ty] field. *)

(** {1 Free variables} *)

val frees : t -> t list
(** The free variables of a term (order unspecified, no duplicates).
    O(size of the set): read off the per-node bitset. *)

val free_in : t -> t -> bool
(** [free_in v tm]: does variable [v] occur free in [tm]?  O(1): a bit
    test on the node's precomputed set.  @raise Failure if [v] is not a
    variable. *)

val variant : t list -> t -> t
(** [variant avoid v] is a variable like [v] whose name clashes with none
    of [avoid] (primes are appended as needed). *)

(** {1 Substitution and instantiation} *)

val vsubst : (t * t) list -> t -> t
(** [vsubst [(v1,t1); ...] tm] simultaneously substitutes [ti] for free
    occurrences of variable [vi], renaming bound variables only where
    capture would occur.  Bindings must be type-correct: [vsubst theta]
    raises [Failure] on an ill-typed one before any term is given.
    Memoised on node ids per partial application: [vsubst theta] applied
    to several terms converts their shared subterms once. *)

val inst : (string * Ty.t) list -> t -> t
(** Instantiate type variables throughout a term, renaming term variables
    where the instantiation identifies previously distinct variables. *)

(** {1 Alpha conversion} *)

val alphaorder : t -> t -> int
(** Total order on terms up to alpha-equivalence. *)

val aconv : t -> t -> bool
(** Alpha-equivalence; physically-equal terms are equal in O(1). *)

val order_memo_key : int -> int -> int
(** The {!alphaorder} memo's int key for node ids [(i1, i2)]: the two
    packed while both are below 2^31, else [-1] (the pair is then its
    own key).  Distinct pairs never share a key.  Exposed for tests. *)

val release_order_memo : unit -> unit
(** Empty the calling domain's memo of {!alphaorder} results (keyed on
    pairs of node ids).  Ids are never reused, so entries for the terms
    of a finished HASH step can never hit again; [Logic.Conv.with_step]
    releases it when a step ends.  A caller outside any step relies on
    the memo's own reset once it holds 2M entries. *)

(** {1 Statistics} *)

type stats = {
  intern_hits : int;  (** constructor calls answered by the intern table *)
  intern_misses : int;  (** distinct nodes ever created *)
  live_nodes : int;
      (** table slots whose node is not yet cleared.  A node that became
          unreachable counts until the major collection that clears it,
          so the figure follows GC timing; after [Gc.full_major] it is
          the reachable population. *)
  peak_nodes : int;  (** highest live population sampled (at rebuilds) *)
  var_count : int;  (** distinct (name, type) variables seen *)
  table_slots : int;  (** the intern table's capacity, in slots *)
}

val stats : unit -> stats
(** Interning statistics of the {e current domain} (counters start at
    zero in every domain, including seeded worker domains). *)

val freeze : unit -> unit
(** Snapshot the calling domain's live nodes as the seed for domains
    spawned afterwards: their intern tables start as a copy and their id
    counters resume above the snapshot, so every term already built here
    (theorem libraries, constants) keeps its physical-equality property
    there.  Called by [Logic.Domain_state.prepare_spawn]; terms created
    after the freeze must not flow into the new domains. *)

val to_string : t -> string
(** Fully parenthesised; prints at most 20 000 nodes (pre-order), each
    node past them as [...].  Tests pin these bytes: theorem statements,
    [check.exe] and the serve daemon's answers carry them. *)

val add_to_buffer : Buffer.t -> t -> unit
(** [add_to_buffer buf tm] appends [to_string tm] to [buf]. *)
