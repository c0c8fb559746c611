(* [Fingerprint.of_circuit] as it stood before its canon was assembled
   from per-signal label texts, kept verbatim as the reference of the
   canon identity test in test_fingerprint.ml: the canonical string and
   its digest must stay byte-identical, because serve cache keys and the
   service benchmark's de-duplicated request streams are built on them. *)

open Circuit

type t = { digest : string; canon : string }

let digest fp = fp.digest
let canon fp = fp.canon
let equal a b = String.equal a.digest b.digest && String.equal a.canon b.canon

(* ------------------------------------------------------------------ *)
(* Two independently mixed 63-bit label lanes                          *)
(* ------------------------------------------------------------------ *)

let mix1 h x =
  let h = (h lxor x) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let mix2 h x =
  let h = (h lxor (x lxor 0x9e3779b9)) * 0x27d4eb2f165667c5 in
  h lxor (h lsr 29)

let seed1 tag = mix1 0x51_7cc1b7 tag
let seed2 tag = mix2 0x6c_62272e tag

let fold1 h l = List.fold_left mix1 h l
let fold2 h l = List.fold_left mix2 h l

let ints_of_value = function
  | Bit b -> [ 0; (if b then 1 else 0) ]
  | Word (w, v) -> [ 1; w; v ]

let int_of_width = function B -> 0 | W n -> n

let ints_of_op = function
  | Not -> [ 1 ]
  | And -> [ 2 ]
  | Or -> [ 3 ]
  | Nand -> [ 4 ]
  | Nor -> [ 5 ]
  | Xor -> [ 6 ]
  | Xnor -> [ 7 ]
  | Buf -> [ 8 ]
  | Mux -> [ 9 ]
  | Constb b -> [ 10; (if b then 1 else 0) ]
  | Winc -> [ 11 ]
  | Wadd -> [ 12 ]
  | Weq -> [ 13 ]
  | Wmux -> [ 14 ]
  | Wnot -> [ 15 ]
  | Wand -> [ 16 ]
  | Wor -> [ 17 ]
  | Wxor -> [ 18 ]
  | Wconst (w, v) -> [ 19; w; v ]

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)
(* ------------------------------------------------------------------ *)

(* Partition of the registers by label, as first-occurrence class ids:
   equal arrays on consecutive rounds = the refinement has stabilised. *)
let classes_of rl1 rl2 =
  let tbl = Hashtbl.create 16 in
  Array.init (Array.length rl1) (fun r ->
      let l = (rl1.(r), rl2.(r)) in
      match Hashtbl.find_opt tbl l with
      | Some id -> id
      | None ->
          let id = Hashtbl.length tbl in
          Hashtbl.add tbl l id;
          id)

let refine c =
  let nsig = Array.length c.drivers in
  let nregs = Array.length c.registers in
  let topo = Array.of_list (topo_order c) in
  (* per-gate operator base hashes, and per-register initial labels *)
  let gate_base1 = Array.make nsig 0 and gate_base2 = Array.make nsig 0 in
  Array.iteri
    (fun s d ->
      match d with
      | Gate (op, _) ->
          let ints = ints_of_op op in
          gate_base1.(s) <- fold1 (seed1 3) ints;
          gate_base2.(s) <- fold2 (seed2 3) ints
      | Input _ | Reg_out _ -> ())
    c.drivers;
  let r0_1 =
    Array.init nregs (fun r ->
        let reg = c.registers.(r) in
        fold1 (seed1 2)
          (int_of_width c.widths.(reg.data) :: ints_of_value reg.init))
  and r0_2 =
    Array.init nregs (fun r ->
        let reg = c.registers.(r) in
        fold2 (seed2 2)
          (int_of_width c.widths.(reg.data) :: ints_of_value reg.init))
  in
  let sl1 = Array.make nsig 0 and sl2 = Array.make nsig 0 in
  (* input labels never change across rounds *)
  Array.iteri
    (fun s d ->
      match d with
      | Input i ->
          sl1.(s) <- fold1 (seed1 1) [ i; int_of_width c.widths.(s) ];
          sl2.(s) <- fold2 (seed2 1) [ i; int_of_width c.widths.(s) ]
      | Reg_out _ | Gate _ -> ())
    c.drivers;
  let rl1 = Array.copy r0_1 and rl2 = Array.copy r0_2 in
  let pass () =
    Array.iteri
      (fun s d ->
        match d with
        | Reg_out r ->
            sl1.(s) <- rl1.(r);
            sl2.(s) <- rl2.(r)
        | Input _ | Gate _ -> ())
      c.drivers;
    Array.iter
      (fun s ->
        match c.drivers.(s) with
        | Gate (_, args) ->
            let h1 = ref gate_base1.(s) and h2 = ref gate_base2.(s) in
            List.iter
              (fun a ->
                h1 := mix1 (mix1 !h1 sl1.(a)) sl2.(a);
                h2 := mix2 (mix2 !h2 sl1.(a)) sl2.(a))
              args;
            sl1.(s) <- !h1;
            sl2.(s) <- !h2
        | Input _ | Reg_out _ -> ())
      topo
  in
  if nregs > 0 then begin
    let classes = ref (classes_of rl1 rl2) in
    let stop = ref false in
    let round = ref 0 in
    while not !stop do
      pass ();
      for r = 0 to nregs - 1 do
        let d = c.registers.(r).data in
        rl1.(r) <- mix1 (mix1 r0_1.(r) sl1.(d)) sl2.(d);
        rl2.(r) <- mix2 (mix2 r0_2.(r) sl1.(d)) sl2.(d)
      done;
      let classes' = classes_of rl1 rl2 in
      incr round;
      if classes' = !classes || !round > nregs + 2 then stop := true;
      classes := classes'
    done
  end;
  pass ();
  (sl1, sl2, rl1, rl2)

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

(* [Buffer.add_string (string_of_int _)] rather than [bprintf]: format
   interpretation dominated the canon build, which runs per request. *)
let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ','

let add_label b s1 s2 =
  Buffer.add_string b (string_of_int s1);
  Buffer.add_char b '.';
  Buffer.add_string b (string_of_int s2);
  Buffer.add_char b ','

let of_circuit c =
  validate c;
  let sl1, sl2, rl1, rl2 = refine c in
  let b = Buffer.create 1024 in
  Buffer.add_string b "fp1;in:";
  Array.iter (fun w -> add_int b (int_of_width w)) c.input_widths;
  Buffer.add_string b ";out:";
  Array.iter
    (fun (name, s) ->
      (* length-prefixed so no output name can fake the separators *)
      add_int b (String.length name);
      Buffer.add_string b name;
      Buffer.add_char b '=';
      add_label b sl1.(s) sl2.(s))
    c.outputs;
  let regs =
    Array.to_list c.registers
    |> List.mapi (fun r (reg : register) ->
           let eb = Buffer.create 32 in
           Buffer.add_string eb "r:";
           List.iter (add_int eb) (ints_of_value reg.init);
           Buffer.add_string eb "d=";
           add_label eb sl1.(reg.data) sl2.(reg.data);
           Buffer.add_string eb ";l=";
           add_label eb rl1.(r) rl2.(r);
           Buffer.contents eb)
    |> List.sort String.compare
  in
  let gates = ref [] in
  Array.iteri
    (fun s d ->
      match d with
      | Gate (op, args) ->
          let eb = Buffer.create 32 in
          Buffer.add_string eb "g:";
          List.iter (add_int eb) (ints_of_op op);
          Buffer.add_string eb "a=";
          List.iter (fun a -> add_label eb sl1.(a) sl2.(a)) args;
          Buffer.add_string eb ";l=";
          add_label eb sl1.(s) sl2.(s);
          gates := Buffer.contents eb :: !gates
      | Input _ | Reg_out _ -> ())
    c.drivers;
  let gates = List.sort String.compare !gates in
  Buffer.add_string b ";regs:";
  List.iter
    (fun e ->
      Buffer.add_string b e;
      Buffer.add_char b '|')
    regs;
  Buffer.add_string b ";gates:";
  List.iter
    (fun e ->
      Buffer.add_string b e;
      Buffer.add_char b '|')
    gates;
  let canon = Buffer.contents b in
  { digest = Digest.to_hex (Digest.string canon); canon }
