(** Formal state re-encoding (paper §VI): a permutation of the register
    file, performed as a rule application of the kernel-derived
    [ENCODE_THM].

    The encoding function [enc] permutes the state tuple; its left inverse
    [dec] applies the inverse permutation.  The side condition
    [!s. dec (enc s) = s] is proved by projection normalisation and the
    [PAIR_ETA] axiom — no semantic reasoning.

    The result is a {!Synthesis.step} and composes with retiming and
    resynthesis through {!Synthesis.compose}. *)

val permute_registers : Embed.level -> Circuit.t -> int array -> Synthesis.step
(** [permute_registers level c p]: register [r] of the input becomes
    register position [p.(r)] of the output ([p] must be a permutation of
    [0 .. #registers-1]).
    @raise Errors.Invalid_cut if [p] is not a permutation of that size.
    @raise Errors.Join_mismatch on internal disagreement (bug trap). *)
