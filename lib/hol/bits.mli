(** Immutable bitsets over small non-negative ints.

    Used by {!Term} for the per-node free-variable sets: every variable
    gets a compact index at creation and each term node carries the exact
    bitset of its free variables.  Sets are normalised (no trailing zero
    words) and [union] preserves physical sharing when one argument
    contains the other, so the memory cost on dag-shaped circuit terms
    stays proportional to the number of distinct sets, not nodes. *)

type t

val empty : t
val singleton : int -> t
val mem : int -> t -> bool

val union : t -> t -> t
(** Returns an argument physically when the other is a subset of it. *)

val remove : int -> t -> t
(** Returns the set itself when the element is absent. *)

val elements : t -> int list
(** Ascending order. *)

val choose : t -> int
(** Least element.  @raise Failure on the empty set. *)
