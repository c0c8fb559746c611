open Circuit

let rt n =
  let b = create (Printf.sprintf "fig2_rt_%d" n) in
  let a = input b (W n) in
  let bb = input b (W n) in
  let s = reg b ~init:(Word (n, 0)) (W n) in
  let x = gate b Winc [ s ] in
  let sel = gate b Weq [ a; bb ] in
  let y = gate b Wmux [ sel; x; bb ] in
  connect_reg b s ~data:y;
  output b "y" y;
  finish b

let gate n = Bitblast.expand (rt n)

let false_cut_gates c =
  (* every gate that is NOT in the incrementer cone: = and MUX *)
  let max_cut = Cut.maximal c in
  let in_f = Array.make (n_signals c) false in
  List.iter (fun s -> in_f.(s) <- true) max_cut.Cut.f_gates;
  let gates = ref [] in
  Array.iteri
    (fun s d ->
      match d with
      | Gate (_, _) when not in_f.(s) -> gates := s :: !gates
      | Gate _ | Input _ | Reg_out _ -> ())
    c.drivers;
  List.rev !gates
