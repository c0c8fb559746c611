open Hol
open Logic

type t = {
  f_term : Term.t;
  g_term : Term.t;
  x_ty : Ty.t;
  split_thm : Kernel.thm;
}

(* Build f and g terms for a (possibly unvalidated) gate set. *)
let build_terms (e : Embed.t) f_gate_list =
  let c = e.Embed.circuit in
  let in_f = Array.make (Circuit.n_signals c) false in
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate _ -> in_f.(s) <- true
      | Circuit.Input _ | Circuit.Reg_out _ ->
          Errors.cut_mismatch "cut member %d is not a gate" s)
    f_gate_list;
  (* consumers outside f *)
  let consumed_outside = Array.make (Circuit.n_signals c) false in
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Gate (_, args) when not in_f.(s) ->
          List.iter (fun a -> consumed_outside.(a) <- true) args
      | _ -> ())
    c.Circuit.drivers;
  Array.iter (fun (_, s) -> consumed_outside.(s) <- true) c.Circuit.outputs;
  Array.iter
    (fun (r : Circuit.register) -> consumed_outside.(r.Circuit.data) <- true)
    c.Circuit.registers;
  let boundary =
    List.sort compare
      (List.filter (fun s -> consumed_outside.(s)) f_gate_list)
  in
  let passthrough =
    let keep = ref [] in
    Array.iteri
      (fun s d ->
        match d with
        | Circuit.Reg_out r when consumed_outside.(s) -> keep := r :: !keep
        | _ -> ())
      c.Circuit.drivers;
    List.sort compare !keep
  in
  let n_reg = Array.length c.Circuit.registers in
  let level = e.Embed.level in
  (* ---- f : s -> x ---- *)
  (* f binds the embedding's own [s] and g binds its [i] and an [s] at
     the retimed state type: the split's [f s] and [g i] and the join's
     [(\s. B) s] are then trivial beta-redexes, one rule each and no
     copy of the body.  Renaming a binder would cost that copy. *)
  let s_var = e.Embed.s_var in
  (* a gate's slot is read only once the topological pass below has
     filled it: an f-gate reading a non-f gate is a false cut.  The
     wire arrays are made with an old constant term and then filled: an
     [Array.make] of more than 256 slots with a young value (a fresh
     variable) empties the minor heap first. *)
  let fwire = Array.make (Circuit.n_signals c) Boolean.t_tm in
  Array.fill fwire 0 (Array.length fwire) s_var;
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Reg_out r -> fwire.(s) <- Pairs.proj s_var r n_reg
      | Circuit.Input _ ->
          fwire.(s) <- e.Embed.i_var (* flagged below if used by f *)
      | Circuit.Gate _ -> ())
    c.Circuit.drivers;
  if boundary = [] && passthrough = [] then
    Errors.cut_mismatch "empty retimed state: nothing to retime";
  let topo = Circuit.topo_order c in
  (* f gate terms: a dag over projections of s *)
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args) when in_f.(s) ->
          List.iter
            (fun a ->
              match c.Circuit.drivers.(a) with
              | Circuit.Input _ ->
                  Errors.cut_mismatch
                    "f depends on primary input %d: it cannot be typed \
                     as a function of the state (false cut)"
                    a
              | Circuit.Gate _ when not in_f.(a) ->
                  Errors.cut_mismatch
                    "f-gate %d reads non-f gate %d (false cut)" s a
              | _ -> ())
            args;
          fwire.(s) <-
            Embed.gate_term level op (List.map (fun a -> fwire.(a)) args)
      | _ -> ())
    topo;
  (* read after the loop: a boundary signal driven by an f-gate holds its
     gate term only now *)
  let x_components =
    List.map (fun s -> fwire.(s)) boundary
    @ List.map (fun r -> Pairs.proj s_var r n_reg) passthrough
  in
  let f_result = Pairs.list_mk_pair x_components in
  let f_term = Term.mk_abs s_var f_result in
  let x_ty = Term.type_of f_result in
  (* ---- g : i -> x -> o # s' ---- *)
  let x_var = Term.mk_var "s" x_ty in
  let i_var = e.Embed.i_var in
  let n_x = List.length x_components in
  let gwire = Array.make (Circuit.n_signals c) Boolean.t_tm in
  Array.fill gwire 0 (Array.length gwire) x_var;
  let n_in = Circuit.n_inputs c in
  (* the component of x holding a boundary gate (its first occurrence)
     or a passthrough register; -1 for none *)
  let gate_x = Array.make (Circuit.n_signals c) (-1) in
  List.iteri (fun k s -> if gate_x.(s) < 0 then gate_x.(s) <- k) boundary;
  let reg_x = Array.make n_reg (-1) in
  let n_bnd = List.length boundary in
  List.iteri (fun k r -> reg_x.(r) <- n_bnd + k) passthrough;
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Input k -> gwire.(s) <- Pairs.proj i_var k n_in
      | Circuit.Reg_out r ->
          (* a register not passed through is read by f only *)
          if reg_x.(r) >= 0 then gwire.(s) <- Pairs.proj x_var reg_x.(r) n_x
      | Circuit.Gate _ ->
          if gate_x.(s) >= 0 then gwire.(s) <- Pairs.proj x_var gate_x.(s) n_x)
    c.Circuit.drivers;
  (* non-f gates as dag terms over the g-context references (boundary
     gates are f-gates) *)
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args) when not in_f.(s) ->
          gwire.(s) <-
            Embed.gate_term level op (List.map (fun a -> gwire.(a)) args)
      | _ -> ())
    topo;
  let o_tms =
    Array.to_list (Array.map (fun (_, s) -> gwire.(s)) c.Circuit.outputs)
  in
  let s'_tms =
    Array.to_list
      (Array.map
         (fun (r : Circuit.register) -> gwire.(r.Circuit.data))
         c.Circuit.registers)
  in
  let g_result =
    Pairs.mk_pair (Pairs.list_mk_pair o_tms) (Pairs.list_mk_pair s'_tms)
  in
  let g_term = Term.mk_abs i_var (Term.mk_abs x_var g_result) in
  (f_term, g_term, x_ty)

let prove_split (e : Embed.t) f_term g_term =
  (* pattern = \i s. g i (f s) *)
  let i = e.Embed.i_var and s = e.Embed.s_var in
  let pattern =
    Term.mk_abs i
      (Term.mk_abs s
         (Term.mk_comb (Term.mk_comb g_term i) (Term.mk_comb f_term s)))
  in
  Embed.equal_by_norm Embed.circuit_norm_conv e.Embed.fd pattern
    ~mismatch:
      (Errors.Cut_mismatch
         "the split does not reproduce the circuit: normal forms differ \
          (false cut)")

let split_gates e gates =
  let f_term, g_term, x_ty = build_terms e gates in
  let split_thm =
    try prove_split e f_term g_term
    with Failure msg ->
      Errors.cut_mismatch "split proof failed in the logic: %s" msg
  in
  { f_term; g_term; x_ty; split_thm }

let split e (cut : Cut.t) = split_gates e cut.Cut.f_gates
