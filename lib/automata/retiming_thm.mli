(** The universal retiming theorem, derived through the kernel.

    {v
    |- automaton (\i s. g i (f s)) q
       = automaton (\i x. (FST (g i x), f (SND (g i x)))) (f q)
    v}

    where [f : 's -> 'x] is the combinational part over which the registers
    are shifted, [g : 'i -> 'x -> 'o # 's] the part that is not affected,
    and [q : 's] the original initial state (paper §IV.A, RETIMING_THM).
    The new initial state is [f q].

    The derivation follows the paper's description ("induction over
    time"): an invariant lemma [state fd2 (f q) inp t = f (state fd1 q inp t)]
    is established by [NUM_INDUCTION], then output equality is lifted to
    function equality by extensionality.  Only kernel rules are used; the
    proof runs once at module initialisation. *)

open Logic

val retiming_thm : Kernel.thm
(** The theorem above, with [f], [g], [q] as free (hence implicitly
    universal) variables at polymorphic types ['s = :b], ['x = :d],
    ['i = :a], ['o = :c]. *)

val comb_equiv_thm : Kernel.thm
(** [|- automaton fd1 q = automaton fd2 q] under the hypothesis
    [!i s. fd1 i s = fd2 i s] — the composition partner used for
    combinational resynthesis steps (paper §III.A).  Stated as:
    {v (!i. !s. fd1 i s = fd2 i s) |- automaton fd1 q = automaton fd2 q v}
    (a sequent with one hypothesis, dischargeable by the caller).
    Proved without induction: the hypothesis gives [fd1 = fd2] by
    extensionality, and [automaton] applied to equals is equal. *)
