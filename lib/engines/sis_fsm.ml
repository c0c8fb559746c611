open Circuit

(* Compiled evaluator: gates as a flat instruction array over a mutable
   boolean value table, avoiding per-step allocation. *)

type compiled = {
  circ : Circuit.t;
  order : signal array;
  vals : bool array;
  input_sigs : signal array;
  reg_out_sigs : signal array;  (* signal of each register output *)
}

let compile c =
  let order =
    Array.of_list
      (List.filter
         (fun s -> match c.drivers.(s) with Gate _ -> true | _ -> false)
         (topo_order c))
  in
  let input_sigs = Array.make (n_inputs c) (-1) in
  let reg_out_sigs = Array.make (Array.length c.registers) (-1) in
  Array.iteri
    (fun s d ->
      match d with
      | Input i -> input_sigs.(i) <- s
      | Reg_out r -> reg_out_sigs.(r) <- s
      | Gate _ -> ())
    c.drivers;
  { circ = c; order; vals = Array.make (n_signals c) false;
    input_sigs; reg_out_sigs }

let eval_gates cc =
  let c = cc.circ and vals = cc.vals in
  Array.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) ->
          let a i = vals.(List.nth args i) in
          vals.(s) <-
            (match op with
            | Not -> not (a 0)
            | Buf -> a 0
            | And -> a 0 && a 1
            | Or -> a 0 || a 1
            | Nand -> not (a 0 && a 1)
            | Nor -> not (a 0 || a 1)
            | Xor -> a 0 <> a 1
            | Xnor -> a 0 = a 1
            | Mux -> if a 0 then a 1 else a 2
            | Constb v -> v
            | Winc | Wadd | Weq | Wmux | Wnot | Wand | Wor | Wxor
            | Wconst _ ->
                Common.unsupported "Sis_fsm: word operator (bit-blast first)")
      | Input _ | Reg_out _ -> ())
    cc.order

(* Pack a register valuation into bytes for hashing. *)
let pack bits =
  let n = Array.length bits in
  let b = Bytes.make ((n + 7) / 8) '\000' in
  Array.iteri
    (fun i v ->
      if v then
        Bytes.set b (i / 8)
          (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (i mod 8)))))
    bits;
  Bytes.to_string b

exception Mismatch of string

let init_bits c =
  Array.map
    (fun r ->
      match r.init with
      | Bit b -> b
      | Word _ -> Common.unsupported "Sis_fsm: word register (bit-blast first)")
    c.registers

let traverse budget ca cb =
  if not (Common.same_interface ca cb) then
    Common.interface_mismatch "Sis_fsm: interface mismatch";
  let cca = compile ca and ccb = compile cb in
  let ni = Array.length cca.input_sigs in
  if ni > 24 then Common.(Inconclusive "too many inputs to enumerate", 0)
  else begin
    let ka = Array.length ca.registers and kb = Array.length cb.registers in
    let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
    let queue = Queue.create () in
    let sta0 = init_bits ca and stb0 = init_bits cb in
    let key sa sb = pack sa ^ "|" ^ pack sb in
    Hashtbl.replace visited (key sta0 stb0) ();
    Queue.add (sta0, stb0) queue;
    let n_in_vecs = 1 lsl ni in
    let evals = ref 0 in
    let visited_states = ref 1 in
    try
      while not (Queue.is_empty queue) do
        let sta, stb = Queue.pop queue in
        for iv = 0 to n_in_vecs - 1 do
          incr evals;
          if !evals land 1023 = 0 then Common.check budget;
          (* load inputs and state *)
          for j = 0 to ni - 1 do
            let bit = (iv lsr j) land 1 = 1 in
            cca.vals.(cca.input_sigs.(j)) <- bit;
            ccb.vals.(ccb.input_sigs.(j)) <- bit
          done;
          Array.iteri (fun r s -> cca.vals.(s) <- sta.(r)) cca.reg_out_sigs;
          Array.iteri (fun r s -> ccb.vals.(s) <- stb.(r)) ccb.reg_out_sigs;
          eval_gates cca;
          eval_gates ccb;
          (* compare outputs *)
          Array.iteri
            (fun j (_, s) ->
              let _, sb = cb.outputs.(j) in
              if cca.vals.(s) <> ccb.vals.(sb) then
                raise
                  (Mismatch
                     (Printf.sprintf "output %d differs on input %d" j iv)))
            ca.outputs;
          (* next states *)
          let sta' = Array.init ka (fun r -> cca.vals.(ca.registers.(r).data)) in
          let stb' = Array.init kb (fun r -> ccb.vals.(cb.registers.(r).data)) in
          let k = key sta' stb' in
          if not (Hashtbl.mem visited k) then begin
            Hashtbl.replace visited k ();
            incr visited_states;
            Queue.add (sta', stb') queue
          end
        done
      done;
      (Common.Equivalent, !visited_states)
    with
    | Common.Out_of_budget -> (Common.Timeout, !visited_states)
    | Mismatch msg -> (Common.Not_equivalent msg, !visited_states)
  end

let equiv budget ca cb =
  Common.observe ~engine:"sis" (fun () ->
      let r, states = traverse budget ca cb in
      (r, [ ("visited_states", float_of_int states) ]))
