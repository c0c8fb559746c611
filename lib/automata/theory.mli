(** The Automata theory (after Eisenbiegler & Kumar, "An automata theory
    dedicated towards formal circuit synthesis").

    A synchronous circuit is represented by a pair: a step function
    [fd : 'i -> 's -> 'o # 's] describing the combinational part (output and
    next state from input and current state), and an initial state [q].
    The constant [automaton fd q : (num -> 'i) -> num -> 'o] maps
    time-dependent input signals to time-dependent output signals.

    Axiomatic basis added by this module (audited via {!Logic.Kernel.axioms}):
    - [ETA_AX]: extensionality, [(\x. t x) = t];
    - [NUM_INDUCTION]: induction over time;
    - [STATE_0], [STATE_SUC]: primitive recursion of the state trace
      (the analogue of HOL's recursion theorem instance).

    [automaton] itself is definitional. *)

open Hol
open Logic

type thm = Kernel.thm

(** {1 Time} *)

val induct : Term.t -> thm -> thm -> thm
(** [induct (\n. p) base step]: from [|- p[0/n]] and
    [|- !n. p ==> p[SUC n/n]], derive [|- !n. p].  The first argument is
    the induction predicate as an abstraction. *)

val beta_norm_conv : Conv.conv
(** Reduce every beta-redex anywhere in a term (through
    {!Logic.Conv.memo_top_depth_conv}). *)

val ext_rule : Term.t -> thm -> thm
(** [ext_rule x (|- f x = g x)] is [|- f = g], provided [x] is a variable
    not free in [f], [g] or the hypotheses. *)

(** {1 Automata} *)

val state_tm : Ty.t -> Ty.t -> Ty.t -> Term.t
(** [state_tm i s o] is the [state] constant at input type [i], state type
    [s], output type [o]:
    [state : (i -> s -> o#s) -> s -> (num -> i) -> num -> s]. *)

val automaton_tm : Ty.t -> Ty.t -> Ty.t -> Term.t
(** The [automaton] constant at the given input/state/output types:
    [automaton : (i -> s -> o#s) -> s -> (num -> i) -> num -> o]. *)

val mk_automaton : Term.t -> Term.t -> Term.t
(** [mk_automaton fd q] applies the [automaton] constant at the types read
    off from [fd : i -> s -> o#s]. *)

val dest_automaton : Term.t -> Term.t * Term.t
(** Inverse of [mk_automaton]. *)

val automaton_ty : Term.t -> Ty.t * Ty.t * Ty.t
(** [(i, s, o)] types of a step function term [fd : i -> s -> o#s]. *)

val state_0 : thm
(** [|- state fd q inp 0 = q]. *)

val state_suc : thm
(** [|- state fd q inp (SUC t) = SND (fd (inp t) (state fd q inp t))]. *)

val automaton_expand : Conv.conv
(** Rewrite [automaton fd q inp t] to
    [FST (fd (inp t) (state fd q inp t))]. *)
