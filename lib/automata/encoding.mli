(** The state-encoding theorem (paper §VI: HASH "also provides various
    other synthesis related transformations on synchronous circuits such
    as state encoding"), derived through the kernel as a corollary of
    {!Retiming_thm.retiming_thm}.

    {v
    (!s. dec (enc s) = s)
    |- automaton fd q
       = automaton (\i x. (FST (fd i (dec x)), enc (SND (fd i (dec x)))))
                   (enc q)
    v}

    with [enc : 'b -> 'd] the new encoding of the state and [dec] a left
    inverse on the states actually used.  No induction of its own: the
    retiming theorem at [f := enc], [g := \i x. fd i (dec x)], beta-normal,
    is [automaton (\i s. fd i (dec (enc s))) q = ] the right side above,
    and the hypothesis turns that step function into [fd] by
    extensionality.

    Unlike [RETIMING_THM] and [COMB_EQUIV_THM], this theorem is not
    registered with the kernel, so a certificate cannot import it: an
    encoding step ([Hash.Encode]) cannot be certified. *)

open Logic

val encode_thm : Kernel.thm
(** The sequent above; free variables [fd], [enc], [dec], [q] at
    polymorphic types (input [:a], state [:b], output [:c], encoded state
    [:d]); exactly one hypothesis. *)
