(** Products.

    The pairing axioms ([FST (x,y) = x], [SND (x,y) = y],
    [(FST p, SND p) = p]) are part of the audited axiomatic basis: in full
    HOL they follow from a type definition over [bool -> bool -> bool];
    here the product type is primitive. *)

open Hol

type thm = Kernel.thm

val mk_pair : Term.t -> Term.t -> Term.t
val list_mk_pair : Term.t list -> Term.t
(** Balanced tuple: the first half (rounded up) on the left, the rest
    on the right; the singleton case is the term itself.
    @raise Failure on the empty list. *)

val mk_fst : Term.t -> Term.t
val mk_snd : Term.t -> Term.t
(** [mk_fst p] is [FST p] ([mk_snd]: [SND p]).  The [FST] and [SND]
    constants are built once per product type: a per-domain table keyed
    by the interned id of [p]'s type holds both.  The table is emptied
    with the domain's memo tables ({!Memo.release_domain}) and whenever
    it outgrows 4096 types.
    @raise Failure if [p] is not of a product type. *)

val proj : Term.t -> int -> int -> Term.t
(** [proj tup i n]: the [i]-th (0-based) projection term out of a term of
    [n]-tuple type, built from [FST]/[SND]. *)

(** {1 Theorems and conversions} *)

val pair_eta : thm
(** [|- (FST p, SND p) = p]. *)

val proj_conv : Conv.conv
(** Reduce [FST (a, b)] or [SND (a, b)] by one step: one [inst] of the
    pairing axiom instantiated at the type of [(a, b)].  That
    type-instantiated axiom, with its [x] and [y] variables, is cached
    in a per-domain table keyed by the interned id of the pair type (and
    by FST or SND), so a step pays one [inst_type] per pair type and
    projection.  The table is emptied by {!Memo.release_domain}, that is
    when a HASH step returns ({!Conv.with_step}) and when a proof
    recording starts, so no cached theorem outlives its step or enters a
    recording it was not proved in; it is also emptied whenever it
    outgrows 4096 entries.  Its lookups are not counted in
    {!Memo.stats}. *)

val proj_beta_conv : Conv.conv
(** One step of the circuit-term normaliser: {!proj_conv} or a
    beta-reduction. *)
