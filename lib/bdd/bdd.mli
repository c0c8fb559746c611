(** Reduced ordered binary decision diagrams with hash-consing.

    All operations go through a manager, which owns the unique table and
    the memoisation caches.  The node store and every table live in
    off-heap [Bigarray] buffers, so the OCaml GC never scans them.  Node
    identifiers are stable for the lifetime of the manager, and semantic
    equality of functions is identifier equality — the property the
    symbolic model checker's fixed-point test relies on.

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

val nvar : manager -> int -> t
(** The negated variable. *)

val ite : manager -> t -> t -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor_ : manager -> t -> t -> t
val xnor_ : manager -> t -> t -> t
val not_ : manager -> t -> t
val imp : manager -> t -> t -> t

val equal : t -> t -> bool
(** Semantic equality (constant time). *)

val is_zero : manager -> t -> bool
val is_one : manager -> t -> bool

val restrict : manager -> t -> int -> bool -> t
(** Cofactor with respect to a variable. *)

val exists : manager -> int list -> t -> t
(** Existential quantification over a set of variables. *)

val compose : manager -> t -> (int -> t option) -> t
(** [compose m f sigma] simultaneously substitutes [sigma i] (when
    defined) for variable [i] in [f].  Used for functional image
    computation and for van Eijk's dependency elimination. *)

(** {1 Freeze / share for the domain pool} *)

type frozen
(** An immutable snapshot of a manager: right-sized read-only copies of
    the off-heap buffers, safe to share across any number of domains. *)

val freeze : manager -> frozen
(** Snapshot the manager.  The manager itself is untouched and remains
    usable. *)

val share : frozen -> manager
(** A fresh manager seeded from the snapshot by memcpy: it starts with
    the snapshot's nodes and unique table, then grows privately.  Node
    ids of the frozen prefix keep their meaning in every sharing
    manager.  Counters start at zero. *)

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

val any_sat : manager -> t -> (int * bool) list
(** One satisfying partial assignment.  @raise Not_found on [zero]. *)

val pp : manager -> Format.formatter -> t -> unit
