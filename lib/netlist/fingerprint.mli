(** Canonical structural fingerprints of circuits.

    [of_circuit c] computes a digest that is invariant under renaming of
    nets and reordering of gates and registers, and (by construction of
    the canonical form it hashes) changes whenever anything semantic
    changes: an operator, the wiring, a width, a register's initial
    value, the input order, or an output name.  Internally a
    Weisfeiler–Lehman-style label refinement runs over the register
    feedback until the partition of registers stabilises; the canonical
    form lists the interface in declaration order and the registers and
    gates as sorted multisets of label entries.

    The serve layer keys its cross-request proof cache on fingerprints.
    Cache lookups compare the full canonical form, not just the digest,
    so a hash collision can only cause a spurious miss, never a wrong
    hit. *)

type t = { digest : string; canon : string }

val of_circuit : Circuit.t -> t
(** Validates first: @raise Circuit.Invalid_netlist on a malformed
    (e.g. forged or corrupted) circuit record, like every other consumer
    of untrusted netlists. *)

val digest : t -> string
(** 32 lowercase hex digits: two 63-bit lanes folded over the canonical
    form (stable across runs — nothing in the computation depends on
    hash-table iteration order or randomised hashing). *)

val canon : t -> string
(** The canonical form itself, a binary string (exposed for collision
    auditing and tests). *)
