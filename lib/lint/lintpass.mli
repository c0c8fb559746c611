(** Static analysis of this repository's own sources: the machine-checked
    inventory of the trusted kernel boundary.

    The paper's guarantee — a faulty heuristic can make synthesis {e fail,
    never falsify} — rests on source-level disciplines that the type
    checker alone cannot enforce: theorems are born only in
    [lib/hol/kernel.ml], trust-boundary code raises typed errors instead
    of crashing or swallowing, and nothing shared across OCaml 5 domains
    mutates unguarded.  This pass parses every [lib/**/*.ml] and
    [bin/**/*.ml] with compiler-libs and walks the parsetree, and reads
    the typed trees ([.cmt]/[.cmti]) dune writes for every unit, so these
    disciplines are properties of the tree that CI re-checks on every
    change.

    Six rules (names are what [lint.config] uses), each applied to the
    paths fixed beside it in [lintpass.ml]:

    - ["kernel-boundary"] — outside the kernel, no [Obj.magic] /
      [Obj.repr] / [Obj.obj], no [Marshal], no record literal shaped like
      a [thm] ([hyps] with [lhs]/[rhs] or [concl]), and no handler that
      catches [Kernel_invariant] without re-raising.
    - ["typed-errors"] — no [failwith] / [invalid_arg] / [assert false]
      in trust-boundary libraries; those must raise the typed taxonomy.
    - ["catch-all"] — no [try ... with _ ->] or [| exception _ ->]: a
      wildcard handler can swallow [Out_of_memory] / [Stack_overflow] /
      [Pool.Shutdown] and convert a crash into a wrong verdict.
    - ["domain-safety"] — module-top-level mutable state ([ref],
      [Hashtbl.create], [Buffer.create], mutable-field record literals,
      [Bigarray] globals, ...) must be [Domain.DLS]-keyed, [Atomic.t], or
      allowlisted naming the mutex that guards it.
    - ["clock"] — no [Unix.gettimeofday], [Unix.time] or [Sys.time]:
      durations and deadlines read [Logic.Clock.now], because a
      wall-clock reading steps under NTP (see [lib/logic/clock.mli]) and
      [Sys.time] is processor time.
    - ["unused-export"] — every [val] in a [lib/] interface, submodule
      signatures included, is referenced from another compilation unit
      under [lib/], [bin/], [bench/] or [examples/].  A reference from
      [test/] is not a use: a val only tests reach is flagged, and a
      test seam stays through an allow entry naming the test that needs
      it.  References
      are resolved paths read from the [.cmt] files, so [Lib.M.x],
      [Lib__M.x] and [Lib__.M.x] name one export.  Module aliases
      ([module X = P], [let module X = P in]), re-exports from another
      unit ([U.X] where [U] has [module X = P]) and a re-exporting
      [include P] at the top of a [lib/] unit resolve to [P], so only
      what is referenced through them counts.  A unit used whole in any
      other way (a functor argument, a packed module, an [include]
      outside [lib/]) counts as using all of its exports.  Only {!check_tree} applies
      this rule: it needs the whole tree. *)

exception Config_error of string

module Config : sig
  type t

  val empty : t
  (** No exemptions. *)

  val parse : file:string -> string -> t
  (** Parse [lint.config] text, the only inventory of exemptions.
      One directive per line,
      [allow RULE PATH SYMBOL -- justification], exempts one finding,
      identified by repo-relative path and nearest enclosing top-level
      binding ([*] matches any symbol).  The justification is mandatory:
      the file doubles as the reviewable TCB inventory.
      @raise Config_error on malformed lines or unknown rule names. *)

  val of_file : string -> t
  val allow_count : t -> int
end

type finding = {
  file : string;  (** repo-relative path, '/'-separated *)
  line : int;
  rule : string;
  symbol : string;  (** nearest enclosing top-level binding, or "" *)
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** [file:line rule message], the greppable CI-facing format. *)

type report = {
  files : int;  (** files parsed *)
  violations : finding list;  (** not covered by any exemption — gate *)
  allowed : (finding * string) list;  (** exempted, with justification *)
}

val check_source : ?config:Config.t -> file:string -> string -> report
(** Analyse one compilation unit given as text.  [file] is the
    repo-relative path used for reporting and for the config's allow
    entries.  Every per-file rule (all but ["unused-export"]) applies
    whatever the path — what fixture tests and the CI seeded-violation
    check want.  A file that does not parse yields a ["parse-error"]
    violation rather than an exception. *)

val check_tree : config:Config.t -> root:string -> report
(** Scan [root/lib/**/*.ml] and [root/bin/**/*.ml], each rule within
    its path scope and outside the config's [except] subtrees, and apply
    ["unused-export"] to the typed trees under [root] (or under
    [root/_build/default] when [root] is a source checkout);
    without any [lib/] [.cmti] that rule reports a violation instead of
    passing.  Then append one ["stale-allow"] violation for every
    allowlist entry that matched nothing — so the inventory cannot
    outlive the code it excuses. *)

val report_json : config:Config.t -> root:string -> report -> Obs.Json.t
(** BENCH_lint-style summary: per-rule violation/allowed counts, the
    allowlist size, and [trusted_lines], the [.ml]/[.mli] line count of
    the trusted computing base under [root] ([lib/hol], [lib/cert] and
    [bin/check.ml], every file in those directories), so exemption and
    trusted-base growth are visible in the bench trajectory. *)
