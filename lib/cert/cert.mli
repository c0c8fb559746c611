(** Exportable proof certificates.

    A certificate is a self-contained, deterministic, version-tagged
    text rendering of a kernel proof trace ({!Kernel.Trace.t}): the
    theory context (type/constant signature, definitional theorems,
    named axioms, imported registered theorems — each with its full
    sequent) followed by the pruned derivation of one theorem, one
    primitive inference per line, and the claimed final sequent.

    The checker ({!check_string}, wrapped by [bin/check.exe]) replays
    the derivation through its {e own} kernel primitives after
    verifying every theory line against its own theory modules, so a
    certificate transfers no trust: a forged axiom, a wrong signature,
    or a derivation that does not reach the claimed sequent is rejected
    with a typed {!reject} — the checker can fail, never falsify.

    Format (version line [hashcert 1]; names are percent-escaped;
    [Y]/[T] lines intern types/terms as a shared dag and appear before
    first use; the checker reads each token only in the spelling
    {!emit} writes — integers without sign or leading zero, at most 18
    digits, and [%XX] in uppercase hex for exactly the bytes that need
    it: controls, space, ['%'] and non-ASCII):
    {v
    hashcert 1
    tycon <name> <arity>          declared type operator
    const <name> <ty>             declared constant, generic type
    axiom <name> <tm>             named axiom (closed boolean term)
    def <name> <tm>               definitional theorem  |- name = tm
    import <name> <k> <tm>* <tm>  registered theorem with its sequent
    Y <id> v <name>               type variable
    Y <id> a <op> <n> <id>*       type operator application
    T <id> v <name> <ty>          variable
    T <id> c <name> <ty>          constant at a concrete type
    T <id> k <f> <x>              combination
    T <id> l <v> <body>           abstraction
    S <ix> r|t|c|l|b|a|m|d|i|y …  primitive inference step
    S <ix> A|D|I <name>           theory reference (axiom/def/import)
    qed <ix> <k> <tm>* <tm>       claimed hypotheses and conclusion
    v}

    [Y]/[T]/[S] ids are dense and strictly sequential from 0 — {!emit}
    renumbers the pruned derivation that way and the checker {e
    enforces} it, so a step can only ever reference an
    already-replayed step and certificates for the same proof are
    byte-identical across runs.

    Emission costs about what its bytes cost: one [Buffer], no
    [Printf], and only the trace events the proof reaches are read.
    s298's certificate (bit level, 49 557 B) takes about 0.5 ms and
    48 kwords, a quarter of its synthesis time. *)

type reject =
  | Bad_version of string
  | Bad_format of int * string  (** 1-based line number, description *)
  | Unknown_type_constant of string
  | Type_arity_mismatch of string * int * int  (** name, cert, ours *)
  | Unknown_constant of string
  | Signature_mismatch of string
  | Unknown_axiom of string
  | Axiom_mismatch of string
  | Unknown_definition of string
  | Definition_mismatch of string
  | Unknown_import of string
  | Import_mismatch of string
  | Replay_failure of int * string  (** step index, kernel error *)
  | Conclusion_mismatch

val reject_to_string : reject -> string

val emit : Logic.Kernel.Trace.t -> Logic.Kernel.thm -> (string, string) result
(** [emit trace th] renders the derivation of [th] recorded in [trace]
    as a certificate, pruned to the steps [th]'s proof actually reaches
    and renumbered densely.  [Error] if [th] was not recorded in
    [trace] (e.g. recording was poisoned) or an imported theorem has
    been unregistered since. *)

val check_string : string -> (Logic.Kernel.thm * int, reject) result
(** Parse and replay a certificate against the calling process's own
    theory.  Returns the re-proved theorem — a genuine kernel [thm],
    derived here, not deserialized — and the number of primitive
    inferences replayed (equal to the certificate's inference-step
    count). *)

val check_file : string -> (Logic.Kernel.thm * int, reject) result
(** {!check_string} on a file's contents.  @raise Sys_error. *)
