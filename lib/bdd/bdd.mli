(** Reduced ordered binary decision diagrams with hash-consing.

    All operations go through a manager, which owns the unique table and
    the memoisation caches.  The node store and every table live in
    off-heap [Bigarray] buffers, so the OCaml GC never scans them.  Node
    identifiers are stable for the lifetime of the manager, and semantic
    equality of functions is identifier equality — the property the
    symbolic model checker's fixed-point test relies on.  A manager is
    unsynchronised and a node means nothing outside the manager that
    built it, so each domain works in managers of its own.

    Variables are identified by non-negative integers, and the variable
    order is the integer order, fixed for the manager's lifetime: callers
    choose a good order by choosing the numbering (e.g. interleaving
    current- and next-state bits). *)

type manager
type t
(** A BDD node within some manager. *)

val manager : unit -> manager
(** A fresh empty manager. *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
(** The function [fun env -> env.(i)].
    @raise Invalid_argument if [i] is negative. *)

val ite : manager -> t -> t -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor_ : manager -> t -> t -> t
val xnor_ : manager -> t -> t -> t
val not_ : manager -> t -> t

val equal : t -> t -> bool
(** Semantic equality (constant time). *)

val is_zero : manager -> t -> bool

val exists : manager -> int list -> t -> t
(** Existential quantification over a set of variables. *)

val compose : manager -> t -> (int -> t option) -> t
(** [compose m f sigma] simultaneously substitutes [sigma i] (when
    defined) for variable [i] in [f].  Used for functional image
    computation and for van Eijk's dependency elimination. *)

(** {1 Inspection} *)

val support : manager -> t -> int list
(** Variables the function depends on, ascending by variable id. *)

val size : manager -> t -> int
(** Number of distinct nodes reachable from this root (the paper's
    "size of the BDDs"). *)

val node_count : manager -> int
(** Total nodes allocated in the manager (monotone: nodes are never
    reclaimed). *)

val stats : manager -> Obs.snapshot
(** Engine counters: hash-consing calls, unique-table and computed-table
    hit/miss counts, and the peak node count (equal to {!node_count},
    which is monotone).  Counters are cumulative over the manager's
    lifetime. *)

val eval : manager -> t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)
