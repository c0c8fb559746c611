open Circuit

(* Value of every f-gate under the initial state (inputs are irrelevant:
   a valid cut never reads them; we feed dummies). *)
let f_values_at_init c =
  let dummy_inputs =
    Array.map
      (function B -> Bit false | W n -> Word (n, 0))
      c.input_widths
  in
  Sim.eval_comb c (Sim.initial_state c) dummy_inputs

(* Audit a cut record before trusting any of its fields.  [Cut.of_gates]
   only produces valid records, but the campaign (and any external
   heuristic) can hand us a forged one: duplicated or non-topological
   [f_gates], boundary/pass-through lists with gaps, out-of-range
   entries.  The original code indexed [gmap]/[fmap] built with [-1]
   sentinels and crashed deep inside [Circuit.gate] on such records;
   after this audit no [-1] slot can ever be read, and every defect is
   reported as [Cut.Invalid_cut]. *)
let validate_cut c (cut : Cut.t) =
  let n = n_signals c in
  let in_f = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then
        Cut.invalid_cut "Forward.retime: cut member %d out of range" s;
      (match c.drivers.(s) with
      | Gate _ -> ()
      | Input _ | Reg_out _ ->
          Cut.invalid_cut "Forward.retime: non-gate in cut");
      if in_f.(s) then
        Cut.invalid_cut "Forward.retime: duplicate cut member %d" s;
      in_f.(s) <- true)
    cut.Cut.f_gates;
  (* fan-in condition + topological order of the listing itself: the
     f-part is re-instantiated by walking [f_gates] in list order, so an
     f operand must appear before its consumer *)
  let emitted = Array.make n false in
  List.iter
    (fun s ->
      (match c.drivers.(s) with
      | Gate (_, args) ->
          List.iter
            (fun a ->
              match c.drivers.(a) with
              | Reg_out _ -> ()
              | Input _ ->
                  Cut.invalid_cut
                    "Forward.retime: f reads an input (false cut)"
              | Gate _ ->
                  if not in_f.(a) then
                    Cut.invalid_cut
                      "Forward.retime: f reads a non-f gate (false cut)";
                  if not emitted.(a) then
                    Cut.invalid_cut
                      "Forward.retime: f_gates not in topological order")
            args
      | Input _ | Reg_out _ -> assert false);
      emitted.(s) <- true)
    cut.Cut.f_gates;
  let in_boundary = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n || not in_f.(s) then
        Cut.invalid_cut "Forward.retime: boundary entry %d is not an f-gate"
          s;
      if in_boundary.(s) then
        Cut.invalid_cut "Forward.retime: duplicate boundary entry %d" s;
      in_boundary.(s) <- true)
    cut.Cut.boundary;
  let nregs = Array.length c.registers in
  let in_pass = Array.make nregs false in
  List.iter
    (fun r ->
      if r < 0 || r >= nregs then
        Cut.invalid_cut
          "Forward.retime: pass-through register %d out of range" r;
      if in_pass.(r) then
        Cut.invalid_cut
          "Forward.retime: duplicate pass-through register %d" r;
      in_pass.(r) <- true)
    cut.Cut.passthrough;
  (* completeness (same consumed-outside notion as [Cut.of_gates]):
     every f-gate read outside f must be on the boundary and every
     register read outside f must be pass-through, else the g-part
     would read an unmapped slot.  Extra entries are harmless. *)
  let consumed_outside = Array.make n false in
  Array.iteri
    (fun s d ->
      match d with
      | Gate (_, args) when not in_f.(s) ->
          List.iter (fun a -> consumed_outside.(a) <- true) args
      | Gate _ | Input _ | Reg_out _ -> ())
    c.drivers;
  Array.iter (fun (_, s) -> consumed_outside.(s) <- true) c.outputs;
  Array.iter (fun r -> consumed_outside.(r.data) <- true) c.registers;
  Array.iteri
    (fun s d ->
      if consumed_outside.(s) then
        match d with
        | Gate _ when in_f.(s) && not in_boundary.(s) ->
            Cut.invalid_cut
              "Forward.retime: f-gate %d is read outside f but missing \
               from the boundary" s
        | Reg_out r when not in_pass.(r) ->
            Cut.invalid_cut
              "Forward.retime: register %d is read outside f but missing \
               from pass-through" r
        | Gate _ | Reg_out _ | Input _ -> ())
    c.drivers;
  if cut.Cut.boundary = [] && cut.Cut.passthrough = [] then
    Cut.invalid_cut "Forward.retime: empty boundary and pass-through"

let retime c (cut : Cut.t) =
  validate_cut c cut;
  let in_f = Array.make (n_signals c) false in
  List.iter (fun s -> in_f.(s) <- true) cut.Cut.f_gates;
  let inits = f_values_at_init c in
  let b = create (c.name ^ "_ret") in
  (* inputs *)
  let input_sig = Array.map (fun w -> input b w) c.input_widths in
  (* new registers: boundary gates then pass-through registers *)
  let boundary_reg =
    List.map
      (fun s -> (s, reg b ~init:inits.(s) (width_of c s)))
      cut.Cut.boundary
  in
  let passthrough_reg =
    List.map
      (fun r ->
        let reg_ = c.registers.(r) in
        (r, reg b ~init:reg_.init (width_of_value reg_.init)))
      cut.Cut.passthrough
  in
  (* map from original signal to new signal, for the g-part *)
  let gmap = Array.make (n_signals c) (-1) in
  Array.iteri
    (fun s d ->
      match d with
      | Input i -> gmap.(s) <- input_sig.(i)
      | Reg_out _ | Gate _ -> ())
    c.drivers;
  List.iter (fun (s, nr) -> gmap.(s) <- nr) boundary_reg;
  Array.iteri
    (fun s d ->
      match d with
      | Reg_out r -> (
          match List.assoc_opt r passthrough_reg with
          | Some nr -> gmap.(s) <- nr
          | None -> ())
      | Input _ | Gate _ -> ())
    c.drivers;
  (* defensive read: [validate_cut] proves no mapped slot is ever [-1],
     but a diagnostic beats an inscrutable crash if that proof rots *)
  let gread a =
    let v = gmap.(a) in
    if v < 0 then
      Cut.invalid_cut "Forward.retime: internal: unmapped signal %d" a;
    v
  in
  (* g-part gates (non-f gates) in topological order *)
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) when not in_f.(s) ->
          gmap.(s) <- gate b op (List.map gread args)
      | Gate _ | Input _ | Reg_out _ -> ())
    (topo_order c);
  (* s'-values: the data signal of each original register, in the g-part *)
  let s'_sig r = gread c.registers.(r).data in
  (* f-part: re-instantiate the f gates over the s'-values *)
  let fmap = Array.make (n_signals c) (-1) in
  let farg a =
    match c.drivers.(a) with
    | Reg_out r -> s'_sig r
    | Gate _ ->
        let v = fmap.(a) in
        if v < 0 then
          Cut.invalid_cut "Forward.retime: internal: unmapped f signal %d" a;
        v
    | Input _ -> Cut.invalid_cut "Forward.retime: f reads an input (false cut)"
  in
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) -> fmap.(s) <- gate b op (List.map farg args)
      | Input _ | Reg_out _ -> Cut.invalid_cut "Forward.retime: non-gate in cut")
    cut.Cut.f_gates;
  (* connect the new registers *)
  List.iter
    (fun (s, nr) -> connect_reg b nr ~data:fmap.(s))
    boundary_reg;
  List.iter
    (fun (r, nr) -> connect_reg b nr ~data:(s'_sig r))
    passthrough_reg;
  (* outputs *)
  Array.iter (fun (name, s) -> output b name (gread s)) c.outputs;
  finish b
