(* Tests for the netlist substrate: builder, simulator, bit-blaster. *)

open Circuit

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Builder and validation                                              *)
(* ------------------------------------------------------------------ *)

let test_builder_basic () =
  let b = create "t" in
  let a = input b B in
  let r = reg b ~init:(Bit false) B in
  let g = xor_ b a r in
  connect_reg b r ~data:g;
  output b "o" g;
  let c = finish b in
  validate c;
  Alcotest.(check int) "inputs" 1 (n_inputs c);
  Alcotest.(check int) "ffs" 1 (flipflop_count c);
  Alcotest.(check int) "gates" 1 (gate_count c)

let test_builder_errors () =
  Alcotest.check_raises "width mismatch"
    (Invalid_netlist "Circuit: word operator width mismatch") (fun () ->
      let b = create "t" in
      let x = input b (W 4) and y = input b (W 5) in
      ignore (gate b Wadd [ x; y ]));
  Alcotest.check_raises "unconnected register"
    (Invalid_netlist "Circuit.finish: unconnected register") (fun () ->
      let b = create "t" in
      let _ = input b B in
      let _ = reg b ~init:(Bit false) B in
      ignore (finish b));
  Alcotest.check_raises "init width"
    (Invalid_netlist "Circuit.reg: init width mismatch") (fun () ->
      let b = create "t" in
      ignore (reg b ~init:(Bit false) (W 3)));
  Alcotest.check_raises "bad arity"
    (Invalid_netlist "Circuit: bad operator arity/width") (fun () ->
      let b = create "t" in
      let x = input b B in
      ignore (gate b And [ x ]));
  Alcotest.check_raises "unknown operand"
    (Invalid_netlist "Circuit: unknown signal 7") (fun () ->
      let b = create "t" in
      let x = input b B in
      ignore (gate b And [ x; 7 ]))

(* connect_reg's own three diagnostics, one case each *)
let test_connect_unknown () =
  Alcotest.check_raises "past the last signal"
    (Invalid_netlist "Circuit.connect_reg: unknown signal") (fun () ->
      let b = create "t" in
      let x = input b B in
      let _ = reg b ~init:(Bit false) B in
      connect_reg b 2 ~data:x);
  Alcotest.check_raises "negative"
    (Invalid_netlist "Circuit.connect_reg: unknown signal") (fun () ->
      let b = create "t" in
      let x = input b B in
      connect_reg b (-1) ~data:x)

let test_connect_not_register () =
  Alcotest.check_raises "a gate"
    (Invalid_netlist "Circuit.connect_reg: not a register output") (fun () ->
      let b = create "t" in
      let x = input b B in
      let _ = reg b ~init:(Bit false) B in
      connect_reg b (not_ b x) ~data:x);
  Alcotest.check_raises "an input"
    (Invalid_netlist "Circuit.connect_reg: not a register output") (fun () ->
      let b = create "t" in
      let x = input b B in
      connect_reg b x ~data:x)

let test_connect_twice () =
  Alcotest.check_raises "second connection"
    (Invalid_netlist "Circuit.connect_reg: already connected") (fun () ->
      let b = create "t" in
      let x = input b B in
      let r = reg b ~init:(Bit false) B in
      connect_reg b r ~data:x;
      connect_reg b r ~data:x)

let test_cycle_detection () =
  (* a combinational cycle through two gates *)
  Alcotest.check_raises "cycle" (Invalid_netlist "Circuit: combinational cycle")
    (fun () ->
      let b = create "t" in
      let x = input b B in
      (* forge a cycle by connecting a register and then rewiring… we
         can't: the builder is append-only, so a combinational cycle is
         impossible to build by construction.  Check the checker itself
         on a hand-made array instead. *)
      ignore x;
      let drivers =
        [| Input 0; Gate (And, [ 0; 2 ]); Gate (Not, [ 1 ]) |]
      in
      let c =
        {
          name = "cyc";
          input_widths = [| B |];
          drivers;
          widths = [| B; B; B |];
          registers = [||];
          outputs = [| ("o", 1) |];
        }
      in
      ignore (topo_order c))

let test_topo_order () =
  let c = Fig2.gate 4 in
  let order = topo_order c in
  let pos = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.replace pos s i) order;
  Array.iteri
    (fun s d ->
      match d with
      | Gate (_, args) ->
          List.iter
            (fun a ->
              match c.drivers.(a) with
              | Gate _ ->
                  check "producer before consumer" true
                    (Hashtbl.find pos a < Hashtbl.find pos s)
              | Input _ | Reg_out _ -> ())
            args
      | Input _ | Reg_out _ -> ())
    c.drivers

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let test_sim_counter () =
  (* fig2 with a = b: the register increments every cycle *)
  let c = Fig2.rt 4 in
  let st = ref (Sim.initial_state c) in
  for t = 0 to 9 do
    let inputs = [| Word (4, 3); Word (4, 3) |] in
    let outs, st' = Sim.step c !st inputs in
    (match outs.(0) with
    | Word (4, v) ->
        Alcotest.(check int)
          (Printf.sprintf "cycle %d" t)
          ((t + 1) mod 16) v
    | _ -> Alcotest.fail "expected word");
    st := st'
  done

let test_sim_mux_path () =
  (* a <> b: the register loads b *)
  let c = Fig2.rt 4 in
  let outs =
    Sim.run c [ [| Word (4, 1); Word (4, 9) |] ]
  in
  match outs with
  | [ [| Word (4, v) |] ] -> Alcotest.(check int) "load b" 9 v
  | _ -> Alcotest.fail "bad output shape"

let test_value_equal () =
  check "bit eq" true (Sim.value_equal (Bit true) (Bit true));
  check "word neq" false (Sim.value_equal (Word (4, 3)) (Word (4, 4)));
  check "mixed" false (Sim.value_equal (Bit true) (Word (1, 1)))

(* ------------------------------------------------------------------ *)
(* Wide words: width 62/63 must mask correctly (native ints are 63 bits) *)
(* ------------------------------------------------------------------ *)

let wide_adder w =
  let b = create (Printf.sprintf "wide%d" w) in
  let a = input b (W w) in
  let b2 = input b (W w) in
  output b "inc" (gate b Winc [ a ]);
  output b "add" (gate b Wadd [ a; b2 ]);
  output b "xor" (gate b Wxor [ a; b2 ]);
  finish b

let run1 c inputs =
  match Sim.run c [ inputs ] with [ outs ] -> outs | _ -> assert false

let test_wide_words_62 () =
  let c = wide_adder 62 in
  let ones = max_int (* 2^62 - 1: all 62 bits set *) in
  let outs = run1 c [| Word (62, ones); Word (62, ones) |] in
  (match outs.(0) with
  | Word (62, v) -> Alcotest.(check int) "inc wraps to 0" 0 v
  | _ -> Alcotest.fail "expected word");
  (match outs.(1) with
  | Word (62, v) ->
      Alcotest.(check int) "add wraps" (ones - 1) v;
      check "add stays non-negative" true (v >= 0)
  | _ -> Alcotest.fail "expected word");
  match outs.(2) with
  | Word (62, v) -> Alcotest.(check int) "xor" 0 v
  | _ -> Alcotest.fail "expected word"

let test_wide_words_63 () =
  let c = wide_adder 63 in
  let ones = -1 (* all 63 bits set *) in
  let outs = run1 c [| Word (63, ones); Word (63, ones) |] in
  (match outs.(0) with
  | Word (63, v) -> Alcotest.(check int) "inc wraps to 0" 0 v
  | _ -> Alcotest.fail "expected word");
  (match outs.(1) with
  | Word (63, v) -> Alcotest.(check int) "add wraps" (-2) v
  | _ -> Alcotest.fail "expected word");
  (* 2^62 (the sign bit of the native int) round-trips *)
  let outs = run1 c [| Word (63, max_int); Word (63, 1) |] in
  match outs.(1) with
  | Word (63, v) -> Alcotest.(check int) "max_int + 1" min_int v
  | _ -> Alcotest.fail "expected word"

let test_wide_register_roundtrip () =
  (* a 62-bit counter seeded at the top of its range *)
  let b = create "wide_counter" in
  let r = reg b ~init:(Word (62, max_int)) (W 62) in
  let x = gate b Winc [ r ] in
  connect_reg b r ~data:x;
  output b "x" x;
  let c = finish b in
  let expected = [ 0; 1; 2 ] in
  let outs = Sim.run c (List.map (fun _ -> [||]) expected) in
  List.iter2
    (fun e outs ->
      match outs.(0) with
      | Word (62, v) -> Alcotest.(check int) "counter" e v
      | _ -> Alcotest.fail "expected word")
    expected outs

let test_wide_random_inputs () =
  (* regression: [1 lsl n] overflowed for n >= 62 and made
     Random.State.int raise *)
  let b = create "wide_inputs" in
  ignore (input b (W 61));
  ignore (input b (W 62));
  ignore (input b (W 63));
  output b "o" (constb b false);
  let c = finish b in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let inputs = Sim.random_inputs rng c in
    Array.iter
      (function
        | Word (w, v) when w <= 62 ->
            check "in range" true (v >= 0 && v land lnot ((1 lsl w) - 1) = 0)
        | _ -> ())
      inputs
  done

let test_width_rejection () =
  Alcotest.check_raises "wide input rejected"
    (Invalid_netlist "Circuit: unsupported word width (must be 1..63)") (fun () ->
      ignore (input (create "t") (W 64)));
  Alcotest.check_raises "zero-width input rejected"
    (Invalid_netlist "Circuit: unsupported word width (must be 1..63)") (fun () ->
      ignore (input (create "t") (W 0)));
  Alcotest.check_raises "wide register rejected"
    (Invalid_netlist "Circuit: unsupported word width (must be 1..63)") (fun () ->
      ignore (reg (create "t") ~init:(Word (64, 0)) (W 64)));
  Alcotest.check_raises "wide constant rejected"
    (Invalid_netlist "Circuit: unsupported word width (must be 1..63)") (fun () ->
      ignore (gate (create "t") (Wconst (64, 0)) []));
  (* regression: the old range check rejected every 62-bit constant *)
  let b = create "t" in
  ignore (gate b (Wconst (62, max_int)) []);
  ignore (gate b (Wconst (63, -1)) []);
  Alcotest.check_raises "out-of-range constant rejected"
    (Invalid_netlist "Circuit: Wconst out of range") (fun () ->
      ignore (gate (create "t") (Wconst (4, 16)) []))

(* ------------------------------------------------------------------ *)
(* Bit-blasting preserves behaviour (co-simulation)                    *)
(* ------------------------------------------------------------------ *)

let word_outputs_as_bits c outs =
  (* flatten word outputs LSB-first to compare with the expanded circuit *)
  Array.to_list outs
  |> List.concat_map (fun v ->
         match v with
         | Bit b -> [ b ]
         | Word (w, n) -> List.init w (fun k -> (n lsr k) land 1 = 1))
  |> fun l ->
  ignore c;
  l

let cosim_check c cycles seed =
  let cb = Bitblast.expand c in
  let rng = Random.State.make [| seed |] in
  let st = ref (Sim.initial_state c) in
  let stb = ref (Sim.initial_state cb) in
  let ok = ref true in
  for _ = 1 to cycles do
    let inputs = Sim.random_inputs rng c in
    let bit_inputs =
      Array.of_list
        (Array.to_list inputs
        |> List.concat_map (fun v ->
               match v with
               | Bit b -> [ Bit b ]
               | Word (w, n) ->
                   List.init w (fun k -> Bit ((n lsr k) land 1 = 1))))
    in
    let outs, st' = Sim.step c !st inputs in
    let outsb, stb' = Sim.step cb !stb bit_inputs in
    let expected = word_outputs_as_bits c outs in
    let got = Array.to_list outsb |> List.map (function
      | Bit b -> b
      | Word _ -> false)
    in
    if expected <> got then ok := false;
    st := st';
    stb := stb'
  done;
  !ok

let test_bitblast_wide () =
  (* bit-blasting a 62/63-bit design agrees with word simulation (also
     exercises the fixed random_inputs on wide words) *)
  let b = create "wide_blast" in
  let a = input b (W 62) in
  let a2 = input b (W 63) in
  let r = reg b ~init:(Word (63, 0)) (W 63) in
  connect_reg b r ~data:(gate b Winc [ r ]);
  output b "add" (gate b Wadd [ a; a ]);
  output b "eq" (gate b Weq [ a2; r ]);
  output b "cnt" r;
  let c = finish b in
  check "wide cosim" true (cosim_check c 24 1234)

let prop_bitblast =
  QCheck.Test.make ~count:40 ~name:"bitblast preserves behaviour"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c =
        Random_circ.generate ~retimable:false ~words:true ~seed
          ~max_gates:25 ()
      in
      cosim_check c 24 (seed + 1))

let test_bitblast_fig2 () =
  check "fig2 rt vs gate" true (cosim_check (Fig2.rt 5) 40 42)

let test_stats () =
  let c = Fig2.gate 8 in
  Alcotest.(check int) "ffs" 8 (flipflop_count c);
  check "gates positive" true (gate_count c > 0)

let suite =
  [
    Alcotest.test_case "builder basic" `Quick test_builder_basic;
    Alcotest.test_case "builder errors" `Quick test_builder_errors;
    Alcotest.test_case "connect_reg: unknown signal" `Quick
      test_connect_unknown;
    Alcotest.test_case "connect_reg: not a register output" `Quick
      test_connect_not_register;
    Alcotest.test_case "connect_reg: already connected" `Quick
      test_connect_twice;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "sim counter behaviour" `Quick test_sim_counter;
    Alcotest.test_case "sim mux path" `Quick test_sim_mux_path;
    Alcotest.test_case "value equality" `Quick test_value_equal;
    Alcotest.test_case "wide words (W 62)" `Quick test_wide_words_62;
    Alcotest.test_case "wide words (W 63)" `Quick test_wide_words_63;
    Alcotest.test_case "wide register roundtrip" `Quick
      test_wide_register_roundtrip;
    Alcotest.test_case "wide random inputs" `Quick test_wide_random_inputs;
    Alcotest.test_case "width rejection" `Quick test_width_rejection;
    Alcotest.test_case "bitblast wide words" `Quick test_bitblast_wide;
    Alcotest.test_case "bitblast fig2" `Quick test_bitblast_fig2;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bitblast;
    Alcotest.test_case "stats" `Quick test_stats;
  ]

(* ------------------------------------------------------------------ *)
(* BLIF export                                                         *)
(* ------------------------------------------------------------------ *)

let test_blif_export () =
  let c = Fig2.gate 3 in
  let s = Blif.to_string c in
  check "has model" true
    (String.length s > 0
    && String.sub s 0 6 = ".model");
  (* one .latch per flip-flop, one .names block per gate *)
  let count needle =
    let n = ref 0 in
    let ln = String.length needle in
    for i = 0 to String.length s - ln do
      if String.sub s i ln = needle then incr n
    done;
    !n
  in
  Alcotest.(check int) "latches" (flipflop_count c) (count ".latch");
  let gate_nodes =
    Array.fold_left
      (fun acc d -> match d with Gate _ -> acc + 1 | _ -> acc)
      0 c.drivers
  in
  check "one names block per gate node" true (count ".names" >= gate_nodes);
  Alcotest.check_raises "word circuit rejected"
    (Invalid_netlist "Blif: word input (bit-blast first)") (fun () ->
      ignore (Blif.to_string (Fig2.rt 3)))

let suite = suite @ [
    Alcotest.test_case "blif export" `Quick test_blif_export;
  ]

(* ------------------------------------------------------------------ *)
(* BLIF round-trip with hostile output names                           *)
(* ------------------------------------------------------------------ *)

(* Output names deliberately collide with the emitter's internal
   [pi%d]/[n%d]/[lq%d] nets, with each other after sanitisation, and
   contain characters BLIF cannot carry.  The pre-fix emitter aliased
   distinct nets onto one name here; the parser's duplicate-definition
   check would reject its own output. *)
let hostile_circuit () =
  let b = create "my model!" in
  let x = input b B in
  let y = input b B in
  let q = reg b ~init:(Bit false) B in
  let g1 = and_ b x y in
  let g2 = xor_ b g1 q in
  connect_reg b q ~data:g2;
  output b "pi0" g1;
  output b "n1" g2;
  output b "lq0" q;
  output b "bad name" (or_ b x q);
  output b "bad\tname" (not_ b y);
  output b "" x;
  finish b

let test_blif_roundtrip_hostile () =
  let c = hostile_circuit () in
  let s = Blif.to_string c in
  let c' = Blif.of_string s in
  Alcotest.(check int) "same inputs" (n_inputs c) (n_inputs c');
  Alcotest.(check int) "same outputs"
    (Array.length c.outputs) (Array.length c'.outputs);
  Alcotest.(check int) "same flip-flops"
    (flipflop_count c) (flipflop_count c');
  (* lockstep co-simulation: the parsed circuit must behave identically *)
  let rng = Random.State.make [| 0xb11f |] in
  let st = ref (Sim.initial_state c) and st' = ref (Sim.initial_state c') in
  for _ = 1 to 64 do
    let inputs = Sim.random_inputs rng c in
    let o, n = Sim.step c !st inputs in
    let o', n' = Sim.step c' !st' inputs in
    check "round-trip outputs agree" true
      (Array.for_all2 Sim.value_equal o o');
    st := n;
    st' := n'
  done;
  (* the emitted text must never define one net twice (the aliasing bug) *)
  let lines = String.split_on_char '\n' s in
  let defined = Hashtbl.create 16 in
  List.iter
    (fun ln ->
      let words =
        String.split_on_char ' ' ln |> List.filter (fun w -> w <> "")
      in
      match words with
      | ".names" :: args when args <> [] ->
          let target = List.nth args (List.length args - 1) in
          check ("unique definition of " ^ target) false
            (Hashtbl.mem defined target);
          Hashtbl.replace defined target ()
      | [ ".latch"; _; q ] | [ ".latch"; _; q; _; _ ] ->
          check ("unique definition of " ^ q) false (Hashtbl.mem defined q);
          Hashtbl.replace defined q ()
      | _ -> ())
    lines

let test_blif_roundtrip_fig2 () =
  let c = Fig2.gate 5 in
  let c' = Blif.of_string (Blif.to_string c) in
  let rng = Random.State.make [| 0xf162 |] in
  let st = ref (Sim.initial_state c) and st' = ref (Sim.initial_state c') in
  for _ = 1 to 64 do
    let inputs = Sim.random_inputs rng c in
    let o, n = Sim.step c !st inputs in
    let o', n' = Sim.step c' !st' inputs in
    check "fig2 round-trip outputs agree" true
      (Array.for_all2 Sim.value_equal o o');
    st := n;
    st' := n'
  done

let suite = suite @ [
    Alcotest.test_case "blif round-trip (hostile names)" `Quick
      test_blif_roundtrip_hostile;
    Alcotest.test_case "blif round-trip (fig2)" `Quick
      test_blif_roundtrip_fig2;
  ]

(* ------------------------------------------------------------------ *)
(* Differential test: the single-pass reader against the reference     *)
(* ------------------------------------------------------------------ *)

(* [Blif_ref.of_string] is the line-list reader the single-pass one
   replaced.  On every text the two must build the same circuit (signal
   numbering included) or raise the same [Invalid_netlist] message. *)

let read parse text =
  match parse text with
  | c -> Ok c
  | exception Invalid_netlist msg -> Error msg

(* The emitted circuits the texts start from: every Table II profile of
   the IWLS generator at a fresh seed, random bit- and word-level
   circuits (bit-blasted) and Figure 2. *)
let table2_profiles =
  lazy
    (List.filter_map
       (fun (e : Iwls.entry) ->
         if String.length e.name > 1 && e.name.[0] = 's' then
           let c = Lazy.force e.circuit in
           Some
             ( e.name,
               flipflop_count c,
               gate_count c,
               n_inputs c,
               Array.length c.outputs )
         else None)
       Iwls.suite)

let base_text rng =
  let seed = Random.State.bits rng in
  Blif.to_string
    (match Random.State.int rng 4 with
    | 0 ->
        let profiles = Lazy.force table2_profiles in
        let name, ffs, gates, ins, outs =
          List.nth profiles (Random.State.int rng (List.length profiles))
        in
        Iwls.synth ~name ~ffs ~gates ~ins ~outs ~seed
    | 1 -> Random_circ.generate ~seed ~max_gates:40 ()
    | 2 ->
        Bitblast.expand (Random_circ.generate ~words:true ~seed ~max_gates:20 ())
    | _ -> Fig2.gate (1 + Random.State.int rng 6))

let pick rng a = a.(Random.State.int rng (Array.length a))

(* A fresh spelling of an emitted text: every net renamed, the .names
   blocks shuffled, and the layout varied with '#' comments, '\'
   continuations, tabs, CRLF line ends and blank lines.  The result
   describes the same circuit up to naming and gate order. *)
let respell rng text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l -> String.split_on_char ' ' l |> List.filter (( <> ) ""))
    |> List.filter (( <> ) [])
  in
  (* directives stay in place; .names blocks (header and rows) shuffle
     among the block positions *)
  let items = ref [] in
  List.iter
    (fun toks ->
      match (toks, !items) with
      | ".names" :: _, _ -> items := `Block [ toks ] :: !items
      | d :: _, _ when d.[0] = '.' -> items := `Dir toks :: !items
      | _, `Block rows :: rest -> items := `Block (toks :: rows) :: rest
      | _ -> items := `Dir toks :: !items)
    lines;
  let items = Array.of_list (List.rev !items) in
  let blocks =
    Array.of_list
      (List.filter_map
         (function `Block rows -> Some (List.rev rows) | `Dir _ -> None)
         (Array.to_list items))
  in
  for i = Array.length blocks - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = blocks.(i) in
    blocks.(i) <- blocks.(j);
    blocks.(j) <- x
  done;
  let next_block = ref 0 in
  let lines =
    List.concat_map
      (function
        | `Dir toks -> [ toks ]
        | `Block _ ->
            let rows = blocks.(!next_block) in
            incr next_block;
            rows)
      (Array.to_list items)
  in
  (* an injective renaming of every net *)
  let prefix = pick rng [| "v"; "net_"; "N["; "x.y$"; "q-" |] in
  let fresh = Hashtbl.create 64 in
  let rename tok =
    match Hashtbl.find_opt fresh tok with
    | Some t -> t
    | None ->
        let t = Printf.sprintf "%s%d" prefix (Random.State.bits rng) in
        let t = if Hashtbl.mem fresh t then t ^ "_" ^ tok else t in
        Hashtbl.replace fresh tok t;
        t
  in
  let lines =
    List.map
      (fun toks ->
        match toks with
        | (".inputs" | ".outputs" | ".names") :: nets ->
            List.hd toks :: List.map rename nets
        | ".latch" :: d :: q :: rest -> ".latch" :: rename d :: rename q :: rest
        | _ -> toks)
      lines
  in
  let nl = if Random.State.bool rng then "\r\n" else "\n" in
  let b = Buffer.create (String.length text * 2) in
  let blank () = Buffer.add_string b (pick rng [| ""; " "; "\t"; " \t " |]) in
  List.iter
    (fun toks ->
      if Random.State.int rng 8 = 0 then begin
        blank ();
        if Random.State.bool rng then Buffer.add_string b "# a comment .names";
        Buffer.add_string b nl
      end;
      blank ();
      let n = List.length toks in
      let cut = if Random.State.int rng 6 = 0 then Random.State.int rng n else -1 in
      List.iteri
        (fun k tok ->
          if k > 0 then
            if k = cut then begin
              Buffer.add_string b (pick rng [| " \\"; "\\"; " \\ "; " \\\t" |]);
              Buffer.add_string b nl;
              blank ()
            end
            else Buffer.add_string b (pick rng [| " "; "\t"; "  "; " \t" |]);
          Buffer.add_string b tok)
        toks;
      blank ();
      if Random.State.int rng 6 = 0 then Buffer.add_string b " # trailing";
      Buffer.add_string b nl)
    lines;
  Buffer.contents b

(* One byte-level mutant: a character deleted, duplicated or replaced
   by one the reader treats specially, or a whole line dropped. *)
let mutate rng text =
  let n = String.length text in
  if n = 0 then text
  else
    let i = Random.State.int rng n in
    match Random.State.int rng 4 with
    | 0 -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
    | 1 -> String.sub text 0 (i + 1) ^ String.sub text i (n - i)
    | 2 ->
        let ch =
          pick rng
            [| '.'; '#'; '\\'; ' '; '\t'; '\n'; '\r'; '\012'; '\011'; '0';
               '1'; '-'; 'x'; 'n' |]
        in
        String.mapi (fun j c -> if j = i then ch else c) text
    | _ ->
        let lines = Array.of_list (String.split_on_char '\n' text) in
        let k = Random.State.int rng (Array.length lines) in
        String.concat "\n"
          (List.filteri (fun j _ -> j <> k) (Array.to_list lines))

let prop_reader_differential =
  QCheck.Test.make ~count:150 ~name:"single-pass reader = reference reader"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let text = base_text rng in
      let spelt = respell rng text in
      let agree t =
        let got = read Blif.of_string t and want = read Blif_ref.of_string t in
        if got = want then true
        else
          QCheck.Test.fail_reportf "readers differ on %S:@ %s@ vs@ %s" t
            (match got with Ok _ -> "accepted" | Error m -> m)
            (match want with Ok _ -> "accepted" | Error m -> m)
      in
      (match read Blif_ref.of_string spelt with
      | Ok _ -> ()
      | Error m -> QCheck.Test.fail_reportf "respelling rejected: %s" m);
      agree text && agree spelt
      && List.for_all agree (List.init 12 (fun _ -> mutate rng spelt)))

(* Corner cases of the line grammar, each checked against the
   reference. *)
let test_reader_corners () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "same outcome on %S" t)
        true
        (read Blif.of_string t = read Blif_ref.of_string t))
    [
      "";
      "\n";
      ".model";
      ".model m\n.inputs a\n.outputs a\n.end\n";
      ".inputs a \\";
      ".inputs a \\\n";
      ".inputs a\\\nb\n.outputs b\n";
      "\\\n\n.inputs a\n.outputs a\n";
      ".inputs a\n.outputs y\n.names a y\n\\\n\n";
      ".inputs a\n.outputs y\n.names a y\n1 1\n1 1\n";
      ".inputs a\n.outputs y\n.names a y\n 1\t1 \n";
      ".inputs a\n.outputs y\n.names a y\n1 1 # c\n.end\ngarbage\n";
      ".inputs a\n.outputs y\n.names a y\n1 1\n1 1\n0 1\n";
      ".inputs a b\n.outputs y\n.names b a y\n1- 1\n-1 1\n";
      ".inputs a\n.outputs y\n.names y y\n1 1\n";
      ".inputs a\n.outputs y\n.names z y\n1 1\n";
      ".inputs a\n.inputs a\n.outputs a\n";
      ".inputs a\n.outputs q\n.latch a q 2\n";
      ".inputs a\n.outputs q\n.latch a q re clk\n";
      ".inputs a\n.outputs q\n.latch a q re clk 1\n";
      ".inputs a\n.outputs y\n.names\n";
      ".inputs a\n.outputs y\n.subckt x\n";
      ".inputs a\n.outputs y\n  stray  line \\\n more\n";
      "\r.inputs a\r\n.outputs a\r\n";
      ".inputs a\011b\n.outputs a\011b\n";
      ".outputs y\n.names y\n1\n.names c\n";
      ".outputs y\n.names y\n\\\n\n";
      ".outputs y\n.names y\n\\\n";
      "stray \\\n";
      "stray \\";
    ]

let suite = suite @ [
    Alcotest.test_case "reader corner cases" `Quick test_reader_corners;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xb1f0 |])
      prop_reader_differential;
  ]

(* ------------------------------------------------------------------ *)
(* Differential test: the writer against the reference                 *)
(* ------------------------------------------------------------------ *)

(* [Blif_ref.to_string] is the Printf writer that resolved a signal's
   name on every reference.  On every circuit the two must emit the same
   bytes or raise the same [Invalid_netlist] message. *)

let write emit c =
  match emit c with
  | s -> Ok s
  | exception Invalid_netlist msg -> Error msg

let same_text what c =
  let got = write Blif.to_string c and want = write Blif_ref.to_string c in
  if got <> want then
    Alcotest.failf "%s: writers differ:@ %s@ vs@ %s" what
      (match got with Ok s -> s | Error m -> m)
      (match want with Ok s -> s | Error m -> m)

let test_writer_suite () =
  List.iter
    (fun (e : Iwls.entry) -> same_text e.name (Lazy.force e.circuit))
    Iwls.suite;
  same_text "hostile names" (hostile_circuit ());
  List.iter (fun n -> same_text "fig2" (Fig2.gate n)) [ 1; 3; 6 ]

(* [c] with its outputs named like its own internal nets (a gate's
   n<k>, pi0, lq0, and pi0_ as well), so every net name must step aside,
   some more than once. *)
let outputs_named_like_nets c =
  let gates =
    List.filter
      (fun s -> match c.drivers.(s) with Gate _ -> true | _ -> false)
      (List.init (Array.length c.drivers) Fun.id)
  in
  let name i =
    match (i mod 4, gates) with
    | 0, _ :: _ ->
        "n" ^ string_of_int (List.nth gates (i / 4 mod List.length gates))
    | 1, _ -> "pi0"
    | 2, _ -> "lq0"
    | _ -> "pi0_"
  in
  { c with outputs = Array.mapi (fun i (_, s) -> (name i, s)) c.outputs }

let prop_writer_differential =
  QCheck.Test.make ~count:200 ~name:"writer = reference writer"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:40 () in
      same_text "bit-level" c;
      same_text "outputs named like nets" (outputs_named_like_nets c);
      let w = Random_circ.generate ~words:true ~seed ~max_gates:20 () in
      same_text "word-level" w;
      same_text "bit-blasted" (Bitblast.expand w);
      true)

let suite = suite @ [
    Alcotest.test_case "writer = reference writer on Table II" `Quick
      test_writer_suite;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xb1f1 |])
      prop_writer_differential;
  ]
