(** Conversions and conversionals.

    A conversion maps a term [t] to a theorem [|- t = t'].  The combinators
    below are the part of the classic HOL conversional suite this
    repository uses; in addition,
    {!memo_top_depth_conv} provides a physically-memoised normaliser whose
    cost is proportional to the number of {e distinct} subterm nodes — the
    workhorse behind HASH's linear-in-circuit-size behaviour on dag-shaped
    circuit terms. *)

open Hol

type thm = Kernel.thm
type conv = Term.t -> thm

val all_conv : conv
(** Always succeeds with [|- t = t]. *)

val no_conv : conv
(** Always fails. *)

val thenc : conv -> conv -> conv
val orelsec : conv -> conv -> conv
val try_conv : conv -> conv

val changed_conv : conv -> conv
(** Fail unless the conversion changes the term. *)

val rand_conv : conv -> conv
(** Apply in the operand of a combination. *)

val rator_conv : conv -> conv
(** Apply in the operator of a combination. *)

val once_depth_conv : conv -> conv

val rewr_conv : thm -> conv
(** [rewr_conv |- l = r] rewrites a term matching [l] (first-order match
    with type instantiation) to the corresponding instance of [r]. *)

val rewrs_conv : thm list -> conv
(** First applicable rewrite. *)

val rewrite_conv : thm list -> conv
(** Exhaustive top-down rewriting with the given equations. *)

val memo_top_depth_conv : conv -> conv
(** Like HOL's [TOP_DEPTH_CONV] (the strategy of {!rewrite_conv}), but
    memoised on interned node ids, so
    dag-shared subterms are converted once.  The memo table is allocated
    at {e partial application} — bind the result
    ([let my_conv = memo_top_depth_conv c]) — and shared by every call
    until it is released: when the enclosing {!with_step} returns, or,
    for a caller outside any step, at the first call after it outgrows
    its cap (see {!Memo}).  Each domain gets its own table (cached
    theorems mention terms, which never cross domains).  The base
    conversion must be context-independent (true for all rewrite sets
    used here). *)

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
