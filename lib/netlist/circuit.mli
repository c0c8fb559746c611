(** Synchronous netlists, at gate level (single-bit signals) and RT level
    (word signals).

    A circuit is a directed graph of signals.  Every signal is produced by
    a driver: a primary input, a register output, or a gate (combinational
    operator over other signals).  Registers hold an initial value and are
    fed by a data signal; primary outputs name signals.

    The combinational part must be acyclic (checked by {!validate});
    cycles through registers are of course allowed. *)

type signal = int
(** Signal identifier (index into the circuit's driver table). *)

exception Invalid_netlist of string
(** Raised for every structural defect of a netlist — bad widths, bad
    arities, dangling signals, combinational cycles, unconnected or
    out-of-range registers, duplicated output names.  This is the typed
    error surface of the whole [netlist] layer: no function here raises a
    bare [Failure], so callers (in particular the fault-injection
    campaign) can tell a malformed netlist from an unexpected bug. *)

val invalid_netlist : ('a, unit, string, 'b) format4 -> 'a
(** [invalid_netlist fmt ...] raises {!Invalid_netlist} with a formatted
    message.  Exposed for the other modules of this layer and for
    netlist-shaped validation in consumers. *)

type width = B | W of int
(** Single bit, or an [n]-bit word with [1 <= n <= 63] (word values live
    in native OCaml ints; wider words are rejected at construction). *)

type value = Bit of bool | Word of int * int
(** A bit, or [Word (width, v)] where [v] holds the word's low [width]
    bits.  For [width <= 62] this means [0 <= v < 2^width]; for
    [width = 63] the value occupies the full native int and may print as
    negative (two's-complement bit pattern).  Words are interpreted
    LSB-first when bit-blasted. *)

type op =
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Buf
  | Mux  (** [Mux (sel, a, b)]: [a] when [sel] is true, else [b] *)
  | Constb of bool
  | Winc  (** word increment (wrapping) *)
  | Wadd  (** word addition (wrapping) *)
  | Weq  (** word equality, produces a bit *)
  | Wmux  (** [Wmux (sel, a, b)] with [sel] a bit, [a], [b] words *)
  | Wnot
  | Wand
  | Wor
  | Wxor
  | Wconst of int * int  (** [(width, value)] *)

type driver =
  | Input of int  (** primary input by index *)
  | Reg_out of int  (** register output by register index *)
  | Gate of op * signal list

type register = { data : signal; init : value }

type t = {
  name : string;
  input_widths : width array;
  drivers : driver array;
  widths : width array;  (** width of each signal *)
  registers : register array;
  outputs : (string * signal) array;
}

(** {1 Builder} *)

type builder
(** Every builder operation is amortised O(1): signals and registers
    live in growable arrays. *)

val create : string -> builder

val input : builder -> width -> signal
(** Declare the next primary input. *)

val reg : builder -> init:value -> width -> signal
(** Declare a register (data signal connected later with {!connect_reg});
    returns its output signal. *)

val connect_reg : builder -> signal -> data:signal -> unit
(** [connect_reg b r ~data] connects the data input of the register whose
    output signal is [r].  @raise Invalid_netlist if [r] is not a signal
    of [b], is not a register output, or is already connected. *)

val gate : builder -> op -> signal list -> signal
(** Add a gate; checks operand counts and widths.
    @raise Invalid_netlist on an operand that is not a signal of the
    builder, or on arity or width mismatch. *)

val output : builder -> string -> signal -> unit

val finish : builder -> t
(** Freeze the builder.  @raise Invalid_netlist if a register is left
    unconnected or the combinational part is cyclic. *)

(** {1 Convenience gate constructors} *)

val not_ : builder -> signal -> signal
val and_ : builder -> signal -> signal -> signal
val or_ : builder -> signal -> signal -> signal
val xor_ : builder -> signal -> signal -> signal
val xnor_ : builder -> signal -> signal -> signal
val mux : builder -> sel:signal -> signal -> signal -> signal
val constb : builder -> bool -> signal

(** {1 Inspection} *)

val width_of : t -> signal -> width
val n_signals : t -> int
val n_inputs : t -> int
val gate_count : t -> int
(** Number of gates, counting an [n]-bit word operator with the gate count
    of its bit-level expansion (as the paper's tables count gates). *)

val flipflop_count : t -> int
(** Number of flip-flops (an [n]-bit register counts [n]). *)

val topo_order : t -> signal list
(** Gate signals in topological order (inputs and register outputs are
    ready at the start; every gate appears after its operands). *)

val topo_array : t -> signal array
(** {!topo_order} as an array. *)

val fanout_map : t -> signal list array
(** [fanout_map c] maps each signal to the gate signals reading it.  Used
    by retiming heuristics. *)

val validate : t -> unit
(** Re-check {e all} structural invariants: acyclicity, operand ranges,
    input/register index ranges, the full width table against what each
    driver actually produces, register data widths, output ranges and
    output-name uniqueness.  Tolerates arbitrarily forged records — it
    performs its range checks before anything indexes, so a corrupt
    circuit yields a diagnostic, never an [Invalid_argument] crash.
    @raise Invalid_netlist with a diagnostic. *)

val pp_stats : Format.formatter -> t -> unit

val width_of_value : value -> width

val builder_width : builder -> signal -> width
(** Width of a signal during construction.
    @raise Invalid_netlist if the signal is not one of the builder's. *)
