(** Conversions and conversionals.

    A conversion maps a term [t] to a theorem [|- t = t'].  The combinators
    below are the part of the classic HOL conversional suite this
    repository uses.  The one normaliser is {!memo_top_depth_conv}, a
    physically-memoised top-down rewriter whose cost is proportional to
    the number of {e distinct} subterm nodes — the workhorse behind HASH's
    linear-in-circuit-size behaviour on dag-shaped circuit terms. *)

open Hol

type thm = Kernel.thm
type conv = Term.t -> thm

val thenc : conv -> conv -> conv
val orelsec : conv -> conv -> conv
val try_conv : conv -> conv
(** [try_conv c] is [c], or [|- t = t] where [c] fails. *)

val rand_conv : conv -> conv
(** Apply in the operand of a combination. *)

val rator_conv : conv -> conv
(** Apply in the operator of a combination. *)

val rewr_conv : thm -> conv
(** [rewr_conv |- l = r] rewrites a term matching [l] (first-order match
    with type instantiation) to the corresponding instance of [r]. *)

val rewrs_conv : thm list -> conv
(** First applicable rewrite, in list order.  At partial application the
    rewrites are indexed by the head constant and argument count of
    their left-hand sides ([c a1 .. an] can only match a term
    [c t1 .. tn]); a rewrite whose left-hand side has no constant head
    goes into every bucket, in its list position.  A call tries only the
    bucket of its term's head, so it finds the same first match, and
    proves the same theorem with the same rules, as trying every
    rewrite in order.  The index is built once, never changes and holds
    only the given theorems, so it lives as long as the partially
    applied conversion and every domain may read it.
    @raise Failure ["Conv.first_conv: no conversion applied"] when no
    rewrite matches. *)

val memo_top_depth_conv : conv -> conv
(** Like HOL's [TOP_DEPTH_CONV] (rewrite at the top as long as possible,
    then in the children, then retry the top), but memoised on interned
    node ids, so
    dag-shared subterms are converted once.  The memo table is allocated
    at {e partial application} — bind the result
    ([let my_conv = memo_top_depth_conv c]) — and shared by every call
    until it is released: when the enclosing {!with_step} returns, or,
    for a caller outside any step, at the first call after it outgrows
    its cap (see {!Memo}).  Each domain gets its own table (cached
    theorems mention terms, which never cross domains).  The base
    conversion must be context-independent (true for all rewrite sets
    used here).

    An unchanged subterm costs no rule: a node whose children are all
    already normal is not rebuilt, one with a single changed child is
    lifted with [ap_term]/[ap_thm], and a call on a term that is already
    normal returns a single [refl]. *)

val with_step : (unit -> unit) -> (unit -> 'a) -> 'a
(** [with_step hook f] runs [f ()] as one HASH step: [hook] is installed
    as the normaliser's poll function (called once per memo miss inside
    {!memo_top_depth_conv}), and when [f] returns or raises the previous
    hook is restored and every memo table of the calling domain is
    released ({!Memo.release_domain}, {!Term.release_order_memo}), so no
    theorem or term order cached by the step outlives it.  The synthesis layer uses the hook to enforce time
    budgets. *)

val conv_rule : conv -> thm -> thm
(** Apply a conversion to the conclusion of a theorem ([|- p] with
    [|- p = q] gives [|- q]). *)
