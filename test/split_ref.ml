(* [Split.build_terms] as it stood before it became linear, kept as the
   reference of the split-term property in test_hash.ml: it looks a
   signal up in the boundary list with [List.assoc_opt] and
   [List.mem_assoc], and builds an unread placeholder variable for every
   gate.  [signal_ty] is a copy of the one [Hash.Embed] used to export
   for that placeholder. *)

open Hol
open Logic

let signal_ty level (w : Circuit.width) =
  match (level, w) with
  | _, Circuit.B -> Ty.bool
  | Hash.Embed.Rt_level, Circuit.W _ -> Ty.bv
  | Hash.Embed.Bit_level, Circuit.W _ ->
      Hash.Errors.invalid_netlist "Embed: word signal in a bit-level embedding"

let build_terms (e : Hash.Embed.t) f_gate_list =
  let c = e.Hash.Embed.circuit in
  let in_f = Array.make (Circuit.n_signals c) false in
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate _ -> in_f.(s) <- true
      | Circuit.Input _ | Circuit.Reg_out _ ->
          Hash.Errors.cut_mismatch "cut member %d is not a gate" s)
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
  let level = e.Hash.Embed.level in
  (* ---- f : s -> x ---- *)
  let sf_var = Term.mk_var "sf" e.Hash.Embed.s_ty in
  let fwire = Array.make (Circuit.n_signals c) sf_var in
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Reg_out r -> fwire.(s) <- Pairs.proj sf_var r n_reg
      | Circuit.Input _ ->
          fwire.(s) <- e.Hash.Embed.i_var (* flagged below if used by f *)
      | Circuit.Gate _ ->
          fwire.(s) <-
            Term.mk_var
              (Printf.sprintf "v%d" s)
              (signal_ty level (Circuit.width_of c s)))
    c.Circuit.drivers;
  if boundary = [] && passthrough = [] then
    Hash.Errors.cut_mismatch "empty retimed state: nothing to retime";
  let topo = Circuit.topo_order c in
  (* f gate terms: a dag over projections of sf *)
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args) when in_f.(s) ->
          List.iter
            (fun a ->
              match c.Circuit.drivers.(a) with
              | Circuit.Input _ ->
                  Hash.Errors.cut_mismatch
                    "f depends on primary input %d: it cannot be typed \
                     as a function of the state (false cut)"
                    a
              | Circuit.Gate _ when not in_f.(a) ->
                  Hash.Errors.cut_mismatch
                    "f-gate %d reads non-f gate %d (false cut)" s a
              | _ -> ())
            args;
          fwire.(s) <-
            Hash.Embed.gate_term level op (List.map (fun a -> fwire.(a)) args)
      | _ -> ())
    topo;
  (* read after the loop: a boundary signal driven by an f-gate holds its
     gate term only now *)
  let x_components =
    List.map (fun s -> fwire.(s)) boundary
    @ List.map (fun r -> Pairs.proj sf_var r n_reg) passthrough
  in
  let f_result = Pairs.list_mk_pair x_components in
  let f_term = Term.mk_abs sf_var f_result in
  let x_ty = Term.type_of f_result in
  (* ---- g : i -> x -> o # s' ---- *)
  let xg_var = Term.mk_var "xg" x_ty in
  let ig_var = Term.mk_var "ig" e.Hash.Embed.i_ty in
  let n_x = List.length x_components in
  let gwire = Array.make (Circuit.n_signals c) xg_var in
  let n_in = Circuit.n_inputs c in
  let bnd_index = List.mapi (fun k s -> (s, k)) boundary in
  let pas_index =
    List.mapi (fun k r -> (r, List.length boundary + k)) passthrough
  in
  Array.iteri
    (fun s d ->
      match d with
      | Circuit.Input k -> gwire.(s) <- Pairs.proj ig_var k n_in
      | Circuit.Reg_out r -> (
          match List.assoc_opt r pas_index with
          | Some k -> gwire.(s) <- Pairs.proj xg_var k n_x
          | None -> () (* only f may read it; g never will *))
      | Circuit.Gate _ -> (
          match List.assoc_opt s bnd_index with
          | Some k -> gwire.(s) <- Pairs.proj xg_var k n_x
          | None -> ()))
    c.Circuit.drivers;
  (* non-f gates as dag terms over the g-context references *)
  List.iter
    (fun s ->
      match c.Circuit.drivers.(s) with
      | Circuit.Gate (op, args)
        when (not in_f.(s)) && not (List.mem_assoc s bnd_index) ->
          gwire.(s) <-
            Hash.Embed.gate_term level op (List.map (fun a -> gwire.(a)) args)
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
  let g_term = Term.mk_abs ig_var (Term.mk_abs xg_var g_result) in
  (f_term, g_term, x_ty)
