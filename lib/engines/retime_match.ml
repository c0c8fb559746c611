open Circuit

(* An abstract netlist graph that is easy to rewrite: nodes are numbered,
   registers are explicit nodes. *)
type node =
  | Ninput of int
  | Ngate of op * int list
  | Nreg of bool * int  (* init, data *)

type graph = {
  mutable nodes : node array;
  mutable outs : int array;
}

let of_circuit c =
  let nodes =
    Array.map
      (fun d ->
        match d with
        | Input i -> Ninput i
        | Gate (op, args) -> Ngate (op, args)
        | Reg_out r ->
            let reg = c.registers.(r) in
            let init =
              match reg.init with
              | Bit b -> b
              | Word _ -> Common.unsupported "Retime_match: word register"
            in
            Nreg (init, reg.data))
      c.drivers
  in
  { nodes; outs = Array.map snd c.outputs }

let eval_const op args =
  match (op, args) with
  | Not, [ a ] -> not a
  | Buf, [ a ] -> a
  | And, [ a; b ] -> a && b
  | Or, [ a; b ] -> a || b
  | Nand, [ a; b ] -> not (a && b)
  | Nor, [ a; b ] -> not (a || b)
  | Xor, [ a; b ] -> a <> b
  | Xnor, [ a; b ] -> a = b
  | Mux, [ s; a; b ] -> if s then a else b
  | Constb v, [] -> v
  | _ -> Common.unsupported "Retime_match: bad constant gate"

(* Maximal forward retiming normal form: whenever every operand of a gate
   is registered or constant, pull the registers through the gate
   (duplicating registers across fanout, as retiming does); constants
   pass through registers unchanged.  The rewriting is fuelled: on
   pathological circuits we stop and let the caller report
   inconclusiveness rather than loop. *)
let normalize g =
  let fuel = ref (4 * Array.length g.nodes * (1 + Array.length g.nodes)) in
  let changed = ref true in
  while !changed && !fuel > 0 do
    changed := false;
    Array.iteri
      (fun s n ->
        match n with
        | Ngate (op, args) when args <> [] && !fuel > 0 ->
            let srcs =
              List.map
                (fun a ->
                  match g.nodes.(a) with
                  | Nreg (init, d) -> Some (init, d)
                  | Ngate (Constb b, []) -> Some (b, a)
                  | _ -> None)
                args
            in
            let all_const =
              List.for_all
                (fun a ->
                  match g.nodes.(a) with
                  | Ngate (Constb _, []) -> true
                  | _ -> false)
                args
            in
            if (not all_const) && List.for_all Option.is_some srcs then begin
              decr fuel;
              let srcs = List.map Option.get srcs in
              let inits = List.map fst srcs in
              let datas = List.map snd srcs in
              (* new gate over the data inputs, registered *)
              let gate_id = Array.length g.nodes in
              g.nodes <- Array.append g.nodes [| Ngate (op, datas) |];
              g.nodes.(s) <- Nreg (eval_const op inits, gate_id);
              changed := true
            end
        | Ngate _ | Ninput _ | Nreg _ -> ())
      g.nodes
  done

(* Verified structural matching from the outputs down. *)
exception No_match

let match_graphs ga gb =
  let assoc : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rassoc : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec go a b =
    match Hashtbl.find_opt assoc a with
    | Some b' -> if b' <> b then raise No_match
    | None -> (
        (match Hashtbl.find_opt rassoc b with
        | Some a' -> if a' <> a then raise No_match
        | None -> ());
        Hashtbl.replace assoc a b;
        Hashtbl.replace rassoc b a;
        match (ga.nodes.(a), gb.nodes.(b)) with
        | Ninput i, Ninput j -> if i <> j then raise No_match
        | Ngate (op1, args1), Ngate (op2, args2) ->
            if op1 <> op2 || List.length args1 <> List.length args2 then
              raise No_match
            else List.iter2 go args1 args2
        | Nreg (i1, d1), Nreg (i2, d2) ->
            if i1 <> i2 then raise No_match else go d1 d2
        | _ -> raise No_match)
  in
  if Array.length ga.outs <> Array.length gb.outs then raise No_match;
  Array.iteri (fun k oa -> go oa gb.outs.(k)) ga.outs

let decide budget ca cb =
  if not (Common.same_interface ca cb) then
    Common.interface_mismatch "Retime_match: interface mismatch";
  try
    Common.check budget;
    let ga = of_circuit ca and gb = of_circuit cb in
    normalize ga;
    Common.check budget;
    normalize gb;
    Common.check budget;
    match_graphs ga gb;
    Common.Equivalent
  with
  | No_match -> Common.Inconclusive "no structural match after normalisation"
  | Common.Out_of_budget -> Common.Timeout

let equiv budget ca cb =
  Common.observe ~engine:"match" (fun () -> (decide budget ca cb, []))
