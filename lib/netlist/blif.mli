(** BLIF export/import for bit-level netlists (the interchange format of
    the SIS era — "as intermediate formats HDLs are used", paper §I).

    Word-level circuits must be bit-blasted first.  Latches are emitted
    with their initial values; gates become [.names] truth tables.

    Net naming: primary outputs keep the user's names (sanitized to the
    BLIF token alphabet and uniquified among themselves) and every output
    is driven through an explicit buffer; internal nets use a
    [pi%d]/[lq%d]/[n%d] namespace that steps aside from any colliding
    output name, so hostile output names such as ["n3"] or ["pi0"] can no
    longer alias an unrelated internal net. *)

val to_string : Circuit.t -> string
(** @raise Circuit.Invalid_netlist on word-level circuits. *)

val output : out_channel -> Circuit.t -> unit

val of_string : string -> Circuit.t
(** Parse a BLIF model into a circuit.  This is the serve daemon's front
    door: every request that misses the exact-text cache is read here
    before it is fingerprinted, so it is a single pass over the text.

    Lines.  A physical line loses everything from its first ['#'], then
    leading and trailing blanks (the characters [String.trim] strips:
    space, tab, CR, LF, form feed), so CRLF text reads like LF text.  A
    line whose remainder ends in ['\'] continues on the next line; the
    two join with one blank.  Tokens are separated by spaces and tabs.
    Lines with no token are skipped.

    Directives.  [.model NAME] (the last one names the circuit, default
    ["blif"]); [.inputs] and [.outputs] with any number of nets, possibly
    repeated; [.latch D Q INIT] or [.latch D Q TYPE CLK INIT] with
    [INIT] [0] or [1]; [.names IN... OUT] followed by its truth-table
    rows (every following line up to the next one that starts with
    ['.']); [.end], after which the rest of the text is ignored.  Any
    other directive, or a line outside a table that is not a directive,
    is an error.

    Truth tables.  Rows compare as their tokens joined by single blanks,
    in any order, and must be exactly the rows {!to_string} writes for
    one gate of matching arity: constant 0 (no rows) and 1 (["1"]), Buf
    (["1 1"]), Not (["0 1"]), And (["11 1"]), Or (["1- 1"; "-1 1"]),
    Nand (["0- 1"; "-0 1"]), Nor (["00 1"]), Xor (["10 1"; "01 1"]),
    Xnor (["11 1"; "00 1"]) and Mux (["11- 1"; "0-1 1"], select first).

    Signals are numbered inputs first, then latch outputs, then gates in
    depth-first order of the [.names] blocks.
    @raise Circuit.Invalid_netlist on malformed input — unsupported
    directives or tables, bad latches, undefined nets, combinational
    cycles, and duplicate net definitions (which is how aliased emission
    is caught). *)
