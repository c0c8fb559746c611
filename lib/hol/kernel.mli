(** The LCF kernel: the only module that can create theorems.

    A value of type {!thm} asserts that its conclusion follows (in
    higher-order logic) from its hypotheses and from the registered axioms.
    The type is abstract; the primitive inference rules below are the only
    constructors, mirroring the security argument of the paper (§III.B):
    "the only way to derive a theorem is by deriving it from axioms and
    rules".

    The rule set is HOL Light's: [REFL], [TRANS], [MK_COMB], [ABS], [BETA],
    [ASSUME], [EQ_MP], [DEDUCT_ANTISYM_RULE], [INST], [INST_TYPE], plus the
    definitional principle [new_basic_definition] and an audited
    [new_axiom]. *)

type thm

val concl : thm -> Term.t
(** The conclusion.  An equational theorem stores only its two sides
    (see {!lhs}), so for one this builds and interns [l = r] in the
    calling domain on every call; rules and derived rules read the
    sides instead. *)

val lhs : thm -> Term.t
(** [lhs (|- l = r)] is [l], read off the theorem without building its
    conclusion.  @raise Failure if the conclusion is not an equation. *)

val rhs : thm -> Term.t
(** [rhs (|- l = r)] is [r].  @raise Failure if the conclusion is not an
    equation. *)

val hyp : thm -> Term.t list

val string_of_thm : thm -> string

(** {1 Signature management} *)

val new_type : string -> int -> unit
(** [new_type name arity] declares a type operator.
    @raise Failure if already declared with a different arity. *)

val new_constant : string -> Ty.t -> unit
(** Declare a constant with its generic type.
    @raise Failure if already declared. *)

val get_const_type : string -> Ty.t
(** The generic type of a declared constant.  @raise Not_found. *)

val is_constant : string -> bool

val mk_const : string -> (string * Ty.t) list -> Term.t
(** [mk_const name tyin] builds the constant with its generic type
    instantiated by [tyin].  @raise Failure if undeclared. *)

val mk_const_at : string -> Ty.t -> Term.t
(** [mk_const_at name ty] builds the constant at the concrete type [ty],
    checking that [ty] is an instance of the generic type. *)

val types : unit -> (string * int) list
(** Every declared type operator with its arity, sorted by name — the
    deterministic signature listing certificate headers are built
    from. *)

val constants : unit -> (string * Ty.t) list
(** Every declared constant with its generic type, sorted by name. *)

(** {1 Primitive inference rules} *)

val refl : Term.t -> thm
(** [refl t] is [|- t = t]. *)

val trans : thm -> thm -> thm
(** From [|- a = b] and [|- b' = c] with [b] alpha-equivalent to [b'],
    derive [|- a = c]. *)

val mk_comb_rule : thm -> thm -> thm
(** From [|- f = g] and [|- x = y], derive [|- f x = g y]. *)

val abs : Term.t -> thm -> thm
(** From [|- l = r], derive [|- (\v. l) = (\v. r)], provided [v] is not
    free in the hypotheses. *)

val beta : Term.t -> thm
(** [beta ((\x. t) x)] is [|- (\x. t) x = t]; the argument must be
    syntactically the bound variable (general beta-conversion is derived
    via [inst]). *)

val assume : Term.t -> thm
(** [assume p] is [p |- p]; [p] must be boolean. *)

val eq_mp : thm -> thm -> thm
(** From [|- a = b] and [|- a], derive [|- b]. *)

val deduct_antisym_rule : thm -> thm -> thm
(** From [A |- p] and [B |- q], derive
    [(A - {q}) u (B - {p}) |- p = q]. *)

val inst : (Term.t * Term.t) list -> thm -> thm
(** Instantiate free term variables throughout hypotheses and
    conclusion. *)

val inst_type : (string * Ty.t) list -> thm -> thm
(** Instantiate type variables throughout hypotheses and conclusion. *)

(** {1 Extension principles} *)

val new_basic_definition : Term.t -> thm
(** [new_basic_definition (mk_eq c_var t)] where the left-hand side is a
    variable [c] standing for the new constant name: declares constant [c]
    and returns [|- c = t].  [t] must be closed and may not contain type
    variables absent from its own type. *)

val new_axiom : string -> Term.t -> thm
(** [new_axiom name p] registers [p] as a named axiom and returns
    [|- p].  All registered axioms are reported by {!axioms}; the Automata
    theory keeps this list small and documented. *)

val axioms : unit -> (string * thm) list
(** Every axiom registered so far, in insertion order (deterministic:
    certificate headers depend on it).  Thread-safe. *)

val definitions : unit -> (string * thm) list
(** Every definitional theorem created so far, in insertion order.
    Thread-safe. *)

val register_theorem : string -> thm -> unit
(** [register_theorem name th] publishes a theorem {e derived} during
    theory-module initialisation (e.g. the Boolean evaluation clauses,
    [RETIMING_THM]) under a stable name, so proof recording can refer to
    it by name instead of tracing its (module-init-time) derivation.
    An independent checker resolves the name against the same theory
    modules — re-deriving the theorem through its own kernel — and
    verifies the sequent matches, so no trust is extended.
    @raise Failure if [name] is already registered. *)

val registered_theorems : unit -> (string * thm) list
(** Every registered theorem, in insertion order.  Thread-safe. *)

(** {1 The recording hook}

    Proof recording lives outside the kernel ([Logic.Kernel]); it plugs
    in here.  While a domain has a hook set, every primitive inference
    on that domain, once its side conditions hold and its result is
    built, is passed to the hook.  The hook returns a step index, which
    the kernel stores in the resulting theorem next to the hook's epoch.
    No rule reads that index for logic, so a faulty recorder can spoil a
    certificate but cannot make a false theorem pass. *)

type leaf = Refl | Beta | Assume  (** the rules on one term *)

type pair = Trans | Mk_comb | Eq_mp | Deduct  (** the rules on two premises *)

(** The other rules. *)
type step =
  | Abs of Term.t * thm
  | Inst of (Term.t * Term.t) list * thm
  | Inst_type of (string * Ty.t) list * thm
  | Axiom of string  (** {!new_axiom}, by name *)
  | Definition of string  (** {!new_basic_definition}, by constant name *)

type hook = {
  epoch : int;  (** stamped into every theorem proved under the hook; > 0 *)
  leaf : leaf -> Term.t -> int;  (** [leaf rule t]: the rule on [t] *)
  pair : pair -> int -> int -> thm -> thm -> int;
      (** [pair rule i j th1 th2]: the rule on premises [th1] and [th2],
          whose {!step_index} under this hook are [i] and [j].  The
          two-premise rules make up most of a proof, so they reach the
          hook without an allocation or a call back into the kernel. *)
  step : step -> int;
}
(** Each function returns the step index to store in the result. *)

val set_hook : hook option -> unit
(** Set or clear the calling domain's hook. *)

val step_index : int -> thm -> int
(** [step_index epoch th] is the index the hook with [epoch] returned
    for [th], or -1 if [th] was not proved under that hook. *)

val rule_count : unit -> int
(** Number of primitive rule applications performed so far {e in the
    current domain} (a cheap profiling aid used by the benchmarks).  An
    [inst] or [inst_type] with an empty substitution is not one. *)
