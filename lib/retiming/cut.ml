open Circuit

type t = {
  f_gates : signal list;
  boundary : signal list;
  passthrough : int list;
}

(* Typed failure for every defect of the heuristic's output: the cut is
   control information from an untrusted source (paper §IV.A — "some
   arbitrary external program"), so its rejection must be
   distinguishable, by exception class, from a broken netlist and from a
   kernel bug. *)
exception Invalid_cut of string

let invalid_cut fmt = Printf.ksprintf (fun s -> raise (Invalid_cut s)) fmt

let of_gates c gates =
  let n = n_signals c in
  let in_f = Array.make n false in
  List.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_cut "Cut.of_gates: signal %d out of range (0..%d)" s (n - 1);
      in_f.(s) <- true)
    gates;
  (* fan-in condition *)
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (_, args) ->
          List.iter
            (fun a ->
              match c.drivers.(a) with
              | Reg_out _ -> ()
              | Gate _ when in_f.(a) -> ()
              | Gate _ | Input _ ->
                  invalid_cut
                    "Cut.of_gates: f depends on a non-register signal \
                     (false cut)")
            args
      | Input _ | Reg_out _ ->
          invalid_cut "Cut.of_gates: cut member is not a gate")
    gates;
  (* keep f in topological order (this also drops duplicates) *)
  let order = topo_order c in
  let f_gates = List.filter (fun s -> in_f.(s)) order in
  (* boundary: f-gates with a consumer outside f *)
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
  let boundary = List.filter (fun s -> consumed_outside.(s)) f_gates in
  let boundary = List.sort compare boundary in
  (* pass-through: registers read outside f *)
  let passthrough =
    let keep = ref [] in
    Array.iteri
      (fun s d ->
        match d with
        | Reg_out r when consumed_outside.(s) -> keep := r :: !keep
        | Reg_out _ | Gate _ | Input _ -> ())
      c.drivers;
    List.sort compare !keep
  in
  if boundary = [] && passthrough = [] then
    invalid_cut
      "Cut.of_gates: empty boundary (the cut computes only dead logic)";
  { f_gates; boundary; passthrough }

let maximal c =
  let n = n_signals c in
  let retimable = Array.make n false in
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (_, args) ->
          retimable.(s) <-
            List.for_all
              (fun a ->
                match c.drivers.(a) with
                | Reg_out _ -> true
                | Gate _ -> retimable.(a)
                | Input _ -> false)
              args
      | Input _ | Reg_out _ -> ())
    (topo_order c);
  let gates = ref [] in
  for s = n - 1 downto 0 do
    if retimable.(s) then gates := s :: !gates
  done;
  if !gates = [] then invalid_cut "Cut.maximal: no retimable gate"
  else of_gates c !gates

let prefixes c k =
  if k < 1 then invalid_cut "Cut.prefixes: k must be >= 1 (got %d)" k;
  let full = maximal c in
  let gates = full.f_gates in
  let total = List.length gates in
  let sizes =
    List.sort_uniq compare
      (List.init k (fun i -> max 1 ((i + 1) * total / k)))
  in
  List.filter_map
    (fun sz ->
      let prefix = List.filteri (fun i _ -> i < sz) gates in
      (* a topological prefix of a valid cut is itself a valid cut *)
      try Some (of_gates c prefix) with Invalid_cut _ -> None)
    sizes
