open Hol
open Logic

type level = Bit_level | Rt_level

type t = {
  circuit : Circuit.t;
  level : level;
  fd : Term.t;
  q : Term.t;
  i_ty : Ty.t;
  s_ty : Ty.t;
  o_ty : Ty.t;
  i_var : Term.t;
  s_var : Term.t;
  wire : Term.t array;
}

let signal_ty level (w : Circuit.width) =
  match (level, w) with
  | _, Circuit.B -> Ty.bool
  | Rt_level, Circuit.W _ -> Ty.bv
  | Bit_level, Circuit.W _ ->
      Errors.invalid_netlist "Embed: word signal in a bit-level embedding"

let value_term level (v : Circuit.value) =
  match (level, v) with
  | _, Circuit.Bit b -> Boolean.bool_const b
  | Rt_level, Circuit.Word (w, n) ->
      Automata.Words.mk_bv (List.init w (fun k -> (n lsr k) land 1 = 1))
  | Bit_level, Circuit.Word _ ->
      Errors.invalid_netlist "Embed: word value in a bit-level embedding"

(* Mirrors the balanced shape of [Pairs.list_mk_pair]. *)
let rec tuple_ty = function
  | [] -> Errors.invalid_netlist "Embed: empty tuple"
  | [ ty ] -> ty
  | tys ->
      let n = List.length tys in
      let l = (n + 1) / 2 in
      let left = List.filteri (fun i _ -> i < l) tys in
      let right = List.filteri (fun i _ -> i >= l) tys in
      Ty.prod (tuple_ty left) (tuple_ty right)

(* The term for a gate, given the terms of its operands. *)
let gate_term level (op : Circuit.op) args =
  let a i = List.nth args i in
  let module W = Automata.Words in
  match op with
  | Circuit.Not -> Boolean.mk_neg (a 0)
  | Circuit.Buf -> a 0
  | Circuit.And -> Boolean.mk_conj (a 0) (a 1)
  | Circuit.Or -> Boolean.mk_disj (a 0) (a 1)
  | Circuit.Nand -> Boolean.mk_neg (Boolean.mk_conj (a 0) (a 1))
  | Circuit.Nor -> Boolean.mk_neg (Boolean.mk_disj (a 0) (a 1))
  | Circuit.Xor -> Boolean.mk_xor (a 0) (a 1)
  | Circuit.Xnor -> Term.mk_eq (a 0) (a 1)
  | Circuit.Mux -> Boolean.mk_cond (a 0) (a 1) (a 2)
  | Circuit.Constb b -> Boolean.bool_const b
  | Circuit.Winc -> Term.mk_comb W.bv_inc_tm (a 0)
  | Circuit.Wadd -> Term.list_mk_comb W.bv_add_tm [ a 0; a 1 ]
  | Circuit.Weq -> Term.list_mk_comb W.bv_eq_tm [ a 0; a 1 ]
  | Circuit.Wmux -> Boolean.mk_cond (a 0) (a 1) (a 2)
  | Circuit.Wnot -> Term.mk_comb W.bv_not_tm (a 0)
  | Circuit.Wand -> Term.list_mk_comb W.bv_and_tm [ a 0; a 1 ]
  | Circuit.Wor -> Term.list_mk_comb W.bv_or_tm [ a 0; a 1 ]
  | Circuit.Wxor -> Term.list_mk_comb W.bv_xor_tm [ a 0; a 1 ]
  | Circuit.Wconst (w, n) ->
      ignore (signal_ty level (Circuit.W w));
      value_term level (Circuit.Word (w, n))

let embed level (c : Circuit.t) =
  (* full structural audit up front: embedding is the trust boundary of
     the formal step, so a corrupted netlist must be rejected with a
     typed [Invalid_netlist] here, before any theorem is attempted *)
  Circuit.validate c;
  if Circuit.n_inputs c = 0 then
    Errors.invalid_netlist "Embed: circuit has no inputs";
  if Array.length c.Circuit.outputs = 0 then
    Errors.invalid_netlist "Embed: circuit has no outputs";
  if Array.length c.Circuit.registers = 0 then
    Errors.invalid_netlist "Embed: circuit has no registers";
  let n_in = Circuit.n_inputs c in
  let n_reg = Array.length c.Circuit.registers in
  let in_tys =
    Array.to_list (Array.map (signal_ty level) c.Circuit.input_widths)
  in
  let reg_tys =
    Array.to_list
      (Array.map
         (fun (r : Circuit.register) ->
           signal_ty level (Circuit.width_of_value r.Circuit.init))
         c.Circuit.registers)
  in
  let i_ty = tuple_ty in_tys and s_ty = tuple_ty reg_tys in
  let i_var = Term.mk_var "i" i_ty and s_var = Term.mk_var "s" s_ty in
  (* The term of every signal.  Gate terms are built once and referenced
     physically wherever the signal is read: the embedding is a dag in
     memory (sharing lives in the heap, not in a LET chain), and it is
     already in the normal form used by the split/join proofs. *)
  let wire = Array.make (Circuit.n_signals c) i_var in
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Input k -> wire.(s) <- Pairs.proj i_var k n_in
      | Circuit.Reg_out r -> wire.(s) <- Pairs.proj s_var r n_reg
      | Circuit.Gate (_, _) -> ())
    c.Circuit.drivers;
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args) ->
          wire.(s) <-
            gate_term level op (List.map (fun a -> wire.(a)) args)
      | Circuit.Input _ | Circuit.Reg_out _ -> ())
    (Circuit.topo_order c);
  (* result tuple *)
  let o_tms =
    Array.to_list (Array.map (fun (_, s) -> wire.(s)) c.Circuit.outputs)
  in
  let s'_tms =
    Array.to_list
      (Array.map (fun (r : Circuit.register) -> wire.(r.Circuit.data))
         c.Circuit.registers)
  in
  let result =
    Pairs.mk_pair (Pairs.list_mk_pair o_tms) (Pairs.list_mk_pair s'_tms)
  in
  let o_ty = fst (Ty.dest_prod (Term.type_of result)) in
  let fd = Term.mk_abs i_var (Term.mk_abs s_var result) in
  let q =
    Pairs.list_mk_pair
      (Array.to_list
         (Array.map
            (fun (r : Circuit.register) -> value_term level r.Circuit.init)
            c.Circuit.registers))
  in
  { circuit = c; level; fd; q; i_ty; s_ty; o_ty; i_var; s_var; wire }

let mk_automaton_of e = Automata.Theory.mk_automaton e.fd e.q

(* Partial application: one memo table, shared within each step. *)
let circuit_norm_conv = Conv.memo_top_depth_conv Pairs.proj_beta_conv

let equal_by_norm conv ~mismatch t1 t2 =
  let th1 = conv t1 in
  let th2 = conv t2 in
  if not (Term.aconv (Kernel.rhs th1) (Kernel.rhs th2)) then raise mismatch
  else Kernel.trans th1 (Drule.sym th2)
