(** Static analysis of this repository's own sources: the machine-checked
    inventory of the trusted kernel boundary.

    The paper's guarantee — a faulty heuristic can make synthesis {e fail,
    never falsify} — rests on source-level disciplines that the type
    checker alone cannot enforce: theorems are born only in
    [lib/logic/kernel.ml], trust-boundary code raises typed errors instead
    of crashing or swallowing, and nothing shared across OCaml 5 domains
    mutates unguarded.  This pass parses every [lib/**/*.ml] and
    [bin/**/*.ml] with compiler-libs and walks the parsetree, so the
    disciplines established by hand in earlier PRs are properties of the
    tree that CI re-checks on every change.

    Five rules (names are what [lint.config] and [\[@lint.allow\]] use):

    - ["kernel-boundary"] — outside the kernel, no [Obj.magic] /
      [Obj.repr] / [Obj.obj], no [Marshal], no record literal shaped like
      a [thm] ([hyps] + [concl] fields), and no handler that catches
      [Kernel_invariant] without re-raising.
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
      [Sys.time] is processor time. *)

val rules : (string * string) list
(** Rule name, one-line description — the complete rule set. *)

exception Config_error of string

module Config : sig
  type t

  val empty : t
  (** No allowlist, default scopes. *)

  val parse : file:string -> string -> t
  (** Parse [lint.config] text.  Directives, one per line:
      [scope RULE PREFIX..] replaces the rule's default path scope;
      [except RULE PREFIX] exempts a subtree (the kernel itself);
      [allow RULE PATH SYMBOL -- justification] exempts one finding,
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

val check_source : ?config:Config.t -> ?scoped:bool -> file:string ->
  string -> report
(** Analyse one compilation unit given as text.  [file] is the
    repo-relative path used for scoping and reporting.  With
    [~scoped:false] (the default) every rule applies regardless of the
    config's path scopes — what fixture tests and the CI seeded-violation
    check want.  A file that does not parse yields a ["parse-error"]
    violation rather than an exception. *)

val check_tree : config:Config.t -> root:string -> report
(** Scan [root/lib/**/*.ml] and [root/bin/**/*.ml] with the config's
    scopes, then append one ["stale-allow"] violation for every allowlist
    entry that matched nothing — so the inventory cannot outlive the code
    it excuses. *)

val report_json : config:Config.t -> report -> Obs.Json.t
(** BENCH_lint-style summary: per-rule violation/allowed counts and the
    allowlist size, so exemption growth is visible in the bench
    trajectory. *)
