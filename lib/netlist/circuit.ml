type signal = int
type width = B | W of int
type value = Bit of bool | Word of int * int

(* Typed failure for every structural defect of a netlist: the campaign
   driver (lib/faults) and the formal step (lib/hash) distinguish "the
   netlist is broken" from "the cut is broken" and from genuine kernel
   bugs by exception class, so nothing at this layer may raise a bare
   [Failure]. *)
exception Invalid_netlist of string

let invalid_netlist fmt =
  Printf.ksprintf (fun s -> raise (Invalid_netlist s)) fmt

type op =
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Buf
  | Mux
  | Constb of bool
  | Winc
  | Wadd
  | Weq
  | Wmux
  | Wnot
  | Wand
  | Wor
  | Wxor
  | Wconst of int * int

type driver =
  | Input of int
  | Reg_out of int
  | Gate of op * signal list

type register = { data : signal; init : value }

type t = {
  name : string;
  input_widths : width array;
  drivers : driver array;
  widths : width array;
  registers : register array;
  outputs : (string * signal) array;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  bname : string;
  mutable binputs : width list;  (* reversed *)
  mutable n_binputs : int;
  (* per signal: the first [count] slots *)
  mutable bdrivers : driver array;
  mutable bwidths : width array;
  mutable count : int;
  (* per register: the first [n_bregs] slots; data is None until
     [connect_reg] *)
  mutable breg_init : value array;
  mutable breg_data : signal option array;
  mutable n_bregs : int;
  mutable bouts : (string * signal) list;  (* reversed *)
}

let create name =
  { bname = name; binputs = []; n_binputs = 0; bdrivers = [||];
    bwidths = [||]; count = 0; breg_init = [||]; breg_data = [||];
    n_bregs = 0; bouts = [] }

(* [a] with room for index [n] (the first [n] slots kept), doubling when
   full, so every builder operation is amortised O(1) *)
let room a n x =
  if n < Array.length a then a
  else begin
    let a' = Array.make (max 16 (2 * n)) x in
    Array.blit a 0 a' 0 n;
    a'
  end

(* Word values live in native OCaml ints (63 bits), so wider words cannot
   be simulated faithfully; reject them at construction. *)
let check_width = function
  | B -> ()
  | W n ->
      if n < 1 || n > 63 then
        invalid_netlist "Circuit: unsupported word width (must be 1..63)"

let push b d w =
  let id = b.count in
  b.bdrivers <- room b.bdrivers id d;
  b.bwidths <- room b.bwidths id w;
  b.bdrivers.(id) <- d;
  b.bwidths.(id) <- w;
  b.count <- id + 1;
  id

let input b w =
  check_width w;
  let idx = b.n_binputs in
  b.binputs <- w :: b.binputs;
  b.n_binputs <- idx + 1;
  push b (Input idx) w

let width_of_value = function Bit _ -> B | Word (w, _) -> W w

let reg b ~init w =
  check_width w;
  if width_of_value init <> w then invalid_netlist "Circuit.reg: init width mismatch";
  let ridx = b.n_bregs in
  b.breg_init <- room b.breg_init ridx init;
  b.breg_data <- room b.breg_data ridx None;
  b.breg_init.(ridx) <- init;
  b.n_bregs <- ridx + 1;
  push b (Reg_out ridx) w

let connect_reg b r ~data =
  if r < 0 || r >= b.count then
    invalid_netlist "Circuit.connect_reg: unknown signal";
  match b.bdrivers.(r) with
  | Reg_out ridx ->
      if b.breg_data.(ridx) <> None then
        invalid_netlist "Circuit.connect_reg: already connected";
      b.breg_data.(ridx) <- Some data
  | Input _ | Gate _ ->
      invalid_netlist "Circuit.connect_reg: not a register output"

let sig_width b s =
  if s < 0 || s >= b.count then invalid_netlist "Circuit: unknown signal %d" s;
  b.bwidths.(s)

(* the common width of a binary word operator's operands *)
let word2 = function
  | [ W n; W m ] when n = m -> n
  | _ -> invalid_netlist "Circuit: word operator width mismatch"

(* width equality without a polymorphic compare: [validate] compares
   every signal's width *)
let equal_width a b =
  match (a, b) with B, B -> true | W n, W m -> n = m | B, W _ | W _, B -> false

let op_signature op arg_widths =
  (* returns the result width; raises on mismatch *)
  match (op, arg_widths) with
  | Not, [ B ] | Buf, [ B ] -> B
  | (And | Or | Nand | Nor | Xor | Xnor), [ B; B ] -> B
  | Mux, [ B; B; B ] -> B
  | Constb _, [] -> B
  | Winc, [ W n ] -> W n
  | Wadd, _ -> W (word2 arg_widths)
  | Weq, _ ->
      ignore (word2 arg_widths);
      B
  | Wmux, [ B; W n; W m ] when n = m -> W n
  | Wnot, [ W n ] -> W n
  | (Wand | Wor | Wxor), _ -> W (word2 arg_widths)
  | Wconst (n, v), [] ->
      check_width (W n);
      (* for n = 63 every int is a valid bit pattern; for n <= 62 the
         value must fit in the low n bits (the old [v >= 1 lsl n] test
         overflowed at n = 62 and rejected every 62-bit constant) *)
      if n <= 62 && v land lnot ((1 lsl n) - 1) <> 0 then
        invalid_netlist "Circuit: Wconst out of range"
      else W n
  | _ -> invalid_netlist "Circuit: bad operator arity/width"

let gate b op args =
  let ws = List.map (sig_width b) args in
  let w = op_signature op ws in
  push b (Gate (op, args)) w

let output b name s = b.bouts <- (name, s) :: b.bouts

let not_ b s = gate b Not [ s ]
let and_ b s1 s2 = gate b And [ s1; s2 ]
let or_ b s1 s2 = gate b Or [ s1; s2 ]
let xor_ b s1 s2 = gate b Xor [ s1; s2 ]
let xnor_ b s1 s2 = gate b Xnor [ s1; s2 ]
let mux b ~sel s1 s2 = gate b Mux [ sel; s1; s2 ]
let constb b v = gate b (Constb v) []

(* ------------------------------------------------------------------ *)
(* Validation and freezing                                             *)
(* ------------------------------------------------------------------ *)

(* the gate signals in DFS completion order, i.e. topologically *)
let topo_gates drivers =
  let n = Array.length drivers in
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let order = Array.make n 0 and n_gates = ref 0 in
  let rec visit s =
    match state.(s) with
    | 2 -> ()
    | 1 -> invalid_netlist "Circuit: combinational cycle"
    | _ -> (
        state.(s) <- 1;
        (match drivers.(s) with
        | Input _ | Reg_out _ -> ()
        | Gate (_, args) -> List.iter visit args);
        state.(s) <- 2;
        match drivers.(s) with
        | Gate (_, _) ->
            order.(!n_gates) <- s;
            incr n_gates
        | Input _ | Reg_out _ -> ())
  in
  for s = 0 to n - 1 do
    visit s
  done;
  Array.sub order 0 !n_gates

let finish b =
  let registers =
    Array.init b.n_bregs (fun ridx ->
        match b.breg_data.(ridx) with
        | Some data -> { data; init = b.breg_init.(ridx) }
        | None -> invalid_netlist "Circuit.finish: unconnected register")
  in
  let drivers = Array.sub b.bdrivers 0 b.count in
  ignore (topo_gates drivers);
  {
    name = b.bname;
    input_widths = Array.of_list (List.rev b.binputs);
    drivers;
    widths = Array.sub b.bwidths 0 b.count;
    registers;
    outputs = Array.of_list (List.rev b.bouts);
  }

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let width_of c s = c.widths.(s)
let n_signals c = Array.length c.drivers
let n_inputs c = Array.length c.input_widths

let wordsize = function B -> 1 | W n -> n

let gate_cost c op args =
  (* gate count of the bit-level expansion, for paper-style statistics *)
  match op with
  | Not | And | Or | Nand | Nor | Xor | Xnor | Buf -> 1
  | Mux -> 3
  | Constb _ -> 0
  | Winc -> (
      match args with [ a ] -> 2 * wordsize c.widths.(a) | _ -> 0)
  | Wadd -> (
      match args with [ a; _ ] -> 5 * wordsize c.widths.(a) | _ -> 0)
  | Weq -> (
      match args with
      | [ a; _ ] -> (2 * wordsize c.widths.(a)) - 1
      | _ -> 0)
  | Wmux -> ( match args with [ _; a; _ ] -> 3 * wordsize c.widths.(a) | _ -> 0)
  | Wnot -> ( match args with [ a ] -> wordsize c.widths.(a) | _ -> 0)
  | Wand | Wor | Wxor -> (
      match args with [ a; _ ] -> wordsize c.widths.(a) | _ -> 0)
  | Wconst _ -> 0

let gate_count c =
  Array.fold_left
    (fun acc d ->
      match d with Gate (op, args) -> acc + gate_cost c op args | _ -> acc)
    0 c.drivers

let flipflop_count c =
  Array.fold_left
    (fun acc r ->
      acc + match r.init with Bit _ -> 1 | Word (w, _) -> w)
    0 c.registers

let topo_array c = topo_gates c.drivers
let topo_order c = Array.to_list (topo_array c)

(* Full structural audit.  Beyond the original acyclicity / register /
   output checks this re-derives every width from the drivers, so a
   record forged with a lying [widths] array, a dangling operand, an
   out-of-range input or register index, or a duplicated output name is
   rejected with [Invalid_netlist] instead of crashing (or silently
   mis-simulating) deep inside a consumer.  [Embed.embed] runs this
   before the formal step, which is what lets the fault campaign promise
   a typed rejection for every corrupted netlist. *)
let validate c =
  let n = n_signals c in
  if Array.length c.widths <> n then
    invalid_netlist "Circuit.validate: widths table has %d entries for %d \
                     signals" (Array.length c.widths) n;
  (* range checks first: everything after may index freely *)
  Array.iteri
    (fun s d ->
      match d with
      | Input i ->
          if i < 0 || i >= n_inputs c then
            invalid_netlist "Circuit.validate: signal %d reads input %d \
                             (circuit has %d inputs)" s i (n_inputs c)
      | Reg_out r ->
          if r < 0 || r >= Array.length c.registers then
            invalid_netlist "Circuit.validate: signal %d reads register %d \
                             (circuit has %d registers)" s r
              (Array.length c.registers)
      | Gate (_, args) ->
          List.iter
            (fun a ->
              if a < 0 || a >= n then
                invalid_netlist "Circuit.validate: gate %d reads dangling \
                                 signal %d" s a)
            args)
    c.drivers;
  ignore (topo_array c);
  (* widths must agree with what the drivers produce *)
  Array.iteri
    (fun s d ->
      let derived =
        match d with
        | Input i -> c.input_widths.(i)
        | Reg_out r -> width_of_value c.registers.(r).init
        | Gate (op, args) ->
            op_signature op (List.map (fun a -> c.widths.(a)) args)
      in
      if not (equal_width c.widths.(s) derived) then
        invalid_netlist "Circuit.validate: signal %d is declared with a \
                         width its driver does not produce" s)
    c.drivers;
  Array.iteri
    (fun i r ->
      if r.data < 0 || r.data >= n then
        invalid_netlist "Circuit.validate: register %d has dangling data \
                         signal %d" i r.data;
      let wreg = width_of_value r.init in
      if not (equal_width c.widths.(r.data) wreg) then
        invalid_netlist "Circuit.validate: register data width mismatch")
    c.registers;
  let out_names = Hashtbl.create 16 in
  Array.iter
    (fun (name, s) ->
      if s < 0 || s >= n then
        invalid_netlist "Circuit.validate: dangling output";
      if Hashtbl.mem out_names name then
        invalid_netlist "Circuit.validate: duplicate output name %S" name;
      Hashtbl.replace out_names name ())
    c.outputs

let pp_stats ppf c =
  Format.fprintf ppf "%s: %d inputs, %d outputs, %d flipflops, %d gates"
    c.name (n_inputs c)
    (Array.length c.outputs)
    (flipflop_count c) (gate_count c)

let builder_width = sig_width
