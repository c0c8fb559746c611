(* Structural fingerprint: the proof-cache key must be invariant under
   net renaming and gate reordering, and must never equate semantically
   distinct circuits — the soundness condition of the serve cache.  The
   negative side is property-tested with semantic mutators (operator
   flips, initial-value flips) whose effect is confirmed by
   co-simulation, and with the fault campaign's netlist mutators. *)

let check = Alcotest.(check bool)

let fp c = Fingerprint.of_circuit c

let cosim c1 c2 steps seed =
  let rng = Random.State.make [| seed |] in
  let st1 = ref (Sim.initial_state c1) in
  let st2 = ref (Sim.initial_state c2) in
  let ok = ref true in
  for _ = 1 to steps do
    let ins = Sim.random_inputs rng c1 in
    let o1, s1 = Sim.step c1 !st1 ins in
    let o2, s2 = Sim.step c2 !st2 ins in
    st1 := s1;
    st2 := s2;
    if not (Array.for_all2 Sim.value_equal o1 o2) then ok := false
  done;
  !ok

(* --- textual transforms on the emitted BLIF ------------------------- *)

(* Whole-token rename of the emitter's internal namespace
   (pi%d/lq%d/n%d) and the model name: same circuit, fresh spelling. *)
let rename_internal suffix blif =
  let with_digits p tok =
    let lp = String.length p and lt = String.length tok in
    lt > lp
    && String.sub tok 0 lp = p
    && String.for_all (function '0' .. '9' -> true | _ -> false)
         (String.sub tok lp (lt - lp))
  in
  let rename_tok prev tok =
    if prev = ".model" then "m" ^ suffix
    else if with_digits "pi" tok || with_digits "lq" tok || with_digits "n" tok
    then "w" ^ suffix ^ "_" ^ tok
    else tok
  in
  let buf = Buffer.create (String.length blif + 64) in
  let n = String.length blif in
  let i = ref 0 in
  let prev = ref "" in
  let is_ws c = c = ' ' || c = '\n' || c = '\t' || c = '\r' in
  while !i < n do
    if is_ws blif.[!i] then begin
      Buffer.add_char buf blif.[!i];
      incr i
    end
    else begin
      let j = ref !i in
      while !j < n && not (is_ws blif.[!j]) do
        incr j
      done;
      let tok = String.sub blif !i (!j - !i) in
      Buffer.add_string buf (rename_tok !prev tok);
      prev := tok;
      i := !j
    end
  done;
  Buffer.contents buf

(* Reverse the order of the .names blocks: the parser assigns signal
   indices in first-mention order, so this permutes both the gate list
   and the index space. *)
let reorder_names blif =
  let lines = String.split_on_char '\n' blif in
  let rec split_head acc = function
    | [] -> (List.rev acc, [])
    | l :: rest when String.length l >= 6 && String.sub l 0 6 = ".names" ->
        (List.rev acc, l :: rest)
    | l :: rest -> split_head (l :: acc) rest
  in
  let head, rest = split_head [] lines in
  (* group into .names blocks, keeping the trailing .end separate *)
  let blocks = ref [] in
  let cur = ref [] in
  let tail = ref [] in
  List.iter
    (fun l ->
      if String.length l >= 6 && String.sub l 0 6 = ".names" then begin
        if !cur <> [] then blocks := List.rev !cur :: !blocks;
        cur := [ l ]
      end
      else if String.trim l = ".end" || (!cur = [] && !blocks = []) then
        tail := l :: !tail
      else cur := l :: !cur)
    rest;
  if !cur <> [] then blocks := List.rev !cur :: !blocks;
  String.concat "\n"
    (head @ List.concat !blocks @ List.rev !tail)

(* --- semantic mutators (validity-preserving) ------------------------ *)

let flip_op c =
  let open Circuit in
  let site = ref None in
  Array.iteri
    (fun s d ->
      match (d, !site) with
      | Gate (And, args), None -> site := Some (s, Or, args)
      | Gate (Or, args), None -> site := Some (s, And, args)
      | Gate (Xor, args), None -> site := Some (s, Xnor, args)
      | _ -> ())
    c.drivers;
  match !site with
  | None -> None
  | Some (s, op', args) ->
      let drivers = Array.copy c.drivers in
      drivers.(s) <- Gate (op', args);
      Some { c with drivers }

let flip_init c =
  let open Circuit in
  let site = ref None in
  Array.iteri
    (fun r (reg : register) ->
      match (reg.init, !site) with
      | Bit b, None -> site := Some (r, { reg with init = Bit (not b) })
      | _ -> ())
    c.registers;
  match !site with
  | None -> None
  | Some (r, reg') ->
      let registers = Array.copy c.registers in
      registers.(r) <- reg';
      Some { c with registers }

(* --- unit tests ----------------------------------------------------- *)

(* The serve cache always keys on parsed text, so the invariance
   properties quantify over parses of transformed text.  (Comparing a
   hand-built circuit against the parse of its own emission would be
   wrong: the emitter inserts an output buffer stage, so parse∘emit is
   not structurally the identity.) *)

let test_parse_deterministic () =
  List.iter
    (fun n ->
      let blif = Blif.to_string (Fig2.gate n) in
      let a = fp (Blif.of_string blif) in
      let b = fp (Blif.of_string blif) in
      check (Printf.sprintf "fig2 %d same text, same key" n) true
        (a = b);
      Alcotest.(check string)
        (Printf.sprintf "fig2 %d canon is bit-identical" n)
        (Fingerprint.canon a) (Fingerprint.canon b))
    [ 1; 2; 4; 8 ]

let test_rename_invariance () =
  let blif = Blif.to_string (Fig2.gate 4) in
  let c = Blif.of_string blif in
  let c' = Blif.of_string (rename_internal "x7" blif) in
  check "renamed nets, same fingerprint" true
    (fp c = fp c')

let test_reorder_invariance () =
  let blif = Blif.to_string (Fig2.gate 4) in
  let c = Blif.of_string blif in
  let reordered = reorder_names blif in
  check "the transform changed the text" true (reordered <> blif);
  let c' = Blif.of_string reordered in
  check "reordered gates, same fingerprint" true
    (fp c = fp c')

let test_distinct_fig2 () =
  check "fig2 4 vs fig2 5" false
    (fp (Fig2.gate 4) = fp (Fig2.gate 5))

(* --- partition identity with the reference -------------------------- *)

(* [Fingerprint_ref] builds the fp1 canon: labels in decimal, entries as
   strings.  The canon now writes the same labels and entries as binary
   lanes, so the two differ byte for byte, but they must split circuits
   alike: for every pair, equal canons exactly when equal reference
   canons.  The cache compares canons, and the service benchmark
   de-duplicates its request streams by digest, so this is what keeps
   both unchanged. *)

(* A respelling of a circuit record: signals and registers renumbered by
   a random permutation (input order and output names are part of the
   interface and stay). *)
let permute rng (c : Circuit.t) =
  let open Circuit in
  let perm n =
    let p = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- x
    done;
    p
  in
  let ps = perm (Array.length c.drivers)
  and pr = perm (Array.length c.registers) in
  let drivers = Array.make (Array.length c.drivers) (Input 0)
  and widths = Array.make (Array.length c.drivers) B
  and registers = Array.copy c.registers in
  Array.iteri
    (fun s d ->
      drivers.(ps.(s)) <-
        (match d with
        | Input i -> Input i
        | Reg_out r -> Reg_out pr.(r)
        | Gate (op, args) -> Gate (op, List.map (fun a -> ps.(a)) args));
      widths.(ps.(s)) <- c.widths.(s))
    c.drivers;
  Array.iteri
    (fun r (reg : register) -> registers.(pr.(r)) <- { reg with data = ps.(reg.data) })
    c.registers;
  { c with drivers; widths; registers;
    outputs = Array.map (fun (n, s) -> (n, ps.(s))) c.outputs }

(* The first gate whose operator has a sibling of the same signature,
   switched to it; None when there is none. *)
let mutate_gate (c : Circuit.t) =
  let open Circuit in
  let sibling = function
    | And -> Some Or | Or -> Some And | Nand -> Some Nor | Nor -> Some Nand
    | Xor -> Some Xnor | Xnor -> Some Xor | Not -> Some Buf | Buf -> Some Not
    | Constb b -> Some (Constb (not b))
    | Winc -> Some Wnot | Wnot -> Some Winc | Wand -> Some Wor
    | Wor -> Some Wxor | Wxor -> Some Wand
    | Wconst (w, v) -> Some (Wconst (w, v lxor 1))
    | Mux | Wadd | Weq | Wmux -> None
  in
  let site = ref None in
  Array.iteri
    (fun s d ->
      match (d, !site) with
      | Gate (op, args), None -> (
          match sibling op with
          | Some op' -> site := Some (s, Gate (op', args))
          | None -> ())
      | _ -> ())
    c.drivers;
  Option.map
    (fun (s, d) ->
      let drivers = Array.copy c.drivers in
      drivers.(s) <- d;
      { c with drivers })
    !site

(* Both canons of a circuit, computed once. *)
let canons c =
  (Fingerprint.canon (fp c), Fingerprint_ref.canon (Fingerprint_ref.of_circuit c))

let same_split (a2, a1) (b2, b1) = String.equal a2 b2 = String.equal a1 b1

(* The corpus: every Table II profile of the IWLS generator (the suite's
   own circuit and two more seeds), Figure 2 at both levels, 80 random
   circuits, and 63-bit constants at the edges of the int range. *)
let corpus () =
  let iwls =
    List.concat_map
      (fun (e : Iwls.entry) ->
        let c = Lazy.force e.circuit in
        (e.name, c)
        ::
        (if e.name.[0] = 's' then
           List.map
             (fun seed ->
               ( Printf.sprintf "%s seed %d" e.name seed,
                 Iwls.synth ~name:e.name ~ffs:(Circuit.flipflop_count c)
                   ~gates:(Circuit.gate_count c) ~ins:(Circuit.n_inputs c)
                   ~outs:(Array.length c.outputs) ~seed ))
             [ 1; 2 ]
         else []))
      Iwls.suite
  in
  let fig2 =
    List.concat_map
      (fun n ->
        [ (Printf.sprintf "fig2 rt %d" n, Fig2.rt n);
          (Printf.sprintf "fig2 gate %d" n, Fig2.gate n) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    @ [ ("fig2 rt 63", Fig2.rt 63) ]
  in
  let edges =
    [ 0; 1; -1; 9; 10; -10; 99; 100; -100; 1_000_000_000_000_000_000;
      -1_000_000_000_000_000_000; max_int; min_int; min_int + 1 ]
  in
  let b = Circuit.create "edges" in
  let x = Circuit.input b (Circuit.W 63) in
  List.iter
    (fun v ->
      let r = Circuit.reg b ~init:(Circuit.Word (63, v)) (Circuit.W 63) in
      let k = Circuit.gate b (Circuit.Wconst (63, v)) [] in
      Circuit.connect_reg b r ~data:(Circuit.gate b Circuit.Wxor [ x; k ]);
      Circuit.output b (string_of_int v) r)
    edges;
  let random =
    List.concat_map
      (fun seed ->
        [ (Printf.sprintf "random %d" seed,
           Random_circ.generate ~seed ~max_gates:30 ());
          (Printf.sprintf "random words %d" seed,
           Random_circ.generate ~words:true ~seed ~max_gates:30 ()) ])
      (List.init 40 Fun.id)
  in
  iwls @ fig2 @ [ ("edge constants", Circuit.finish b) ] @ random

let test_partition_identity () =
  let rng = Random.State.make [| 0xfb2 |] in
  let all = Array.of_list (List.map (fun (name, c) -> (name, c, canons c)) (corpus ())) in
  Array.iteri
    (fun i (name, c, k) ->
      check (name ^ " vs its respelling") true
        (same_split k (canons (permute rng c)));
      Option.iter
        (fun m -> check (name ^ " vs a one-gate mutant") true (same_split k (canons m)))
        (mutate_gate c);
      for j = i + 1 to Array.length all - 1 do
        let name', _, k' = all.(j) in
        if not (same_split k k') then
          Alcotest.failf "%s vs %s: the canons split them unlike the reference"
            name name'
      done)
    all

(* --- properties ----------------------------------------------------- *)

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

let prop_rename_and_reorder =
  QCheck.Test.make ~name:"rename+reorder never changes the fingerprint"
    ~count:60 gen_seed (fun seed ->
      let blif = Blif.to_string (Random_circ.generate ~seed ~max_gates:30 ()) in
      let c0 = Blif.of_string blif in
      let c1 = Blif.of_string (rename_internal "q" blif) in
      let c2 = Blif.of_string (reorder_names blif) in
      let c3 = Blif.of_string (reorder_names (rename_internal "z" blif)) in
      fp c0 = fp c1 && fp c0 = fp c2 && fp c0 = fp c3)

(* The cache-soundness direction: a mutant that provably changes
   behaviour (cosim finds a diverging trace) must change the
   fingerprint.  Equal fingerprints are only tolerated when 64 steps of
   co-simulation cannot tell the circuits apart. *)
let prop_semantic_mutant_distinct =
  QCheck.Test.make ~name:"semantically distinct mutants get distinct keys"
    ~count:60 gen_seed (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:30 () in
      let mutants =
        List.filter_map (fun m -> m c) [ flip_op; flip_init ]
      in
      List.for_all
        (fun m ->
          Circuit.validate m;
          let equivalent = cosim c m 64 (seed + 1) in
          let same_key = fp c = fp m in
          (not same_key) || equivalent)
        mutants)

(* The fault campaign's netlist mutators forge ill-formed circuits; the
   fingerprint sits at the cache's trust boundary, so it must reject
   them (never key a cache slot on an invalid netlist) or — if the
   mutant happens to stay valid — fall under the same soundness rule as
   above. *)
let prop_fault_mutants =
  QCheck.Test.make ~name:"fault-campaign netlist mutants never share a key"
    ~count:40 gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c = Random_circ.generate ~seed ~max_gates:30 () in
      let bases =
        [|
          {
            Faults.Mutate.base_name = "rand";
            circuit = c;
            level = Hash.Embed.Bit_level;
            cut = Cut.maximal c;
          };
        |]
      in
      List.for_all
        (fun cls ->
          match Faults.Mutate.apply rng ~bases ~base_idx:0 cls with
          | None -> true
          | Some subj -> (
              let m = subj.Faults.Mutate.circuit in
              match Fingerprint.of_circuit m with
              | exception Circuit.Invalid_netlist _ -> true
              | fpm ->
                  fp c <> fpm
                  || cosim c m 64 (seed + 1)))
        [
          "netlist_dangling_output";
          "netlist_dup_output";
          "netlist_width_lie";
          "netlist_reg_width";
        ])

(* The same over random pairs: two small circuits (small enough that
   draws are sometimes isomorphic), a respelling and a mutant. *)
let prop_partition_identity =
  QCheck.Test.make ~name:"canons split random pairs like the reference"
    ~count:200
    (QCheck.pair gen_seed gen_seed)
    (fun (s1, s2) ->
      let rng = Random.State.make [| s1; s2 |] in
      let words = s1 mod 2 = 0 in
      let a = Random_circ.generate ~words ~seed:s1 ~max_gates:4 () in
      let b = Random_circ.generate ~words ~seed:s2 ~max_gates:4 () in
      let ka = canons a in
      same_split ka (canons b)
      && same_split ka (canons (permute rng a))
      && same_split (canons (permute rng b)) ka
      && match mutate_gate a with
         | Some m -> same_split ka (canons m)
         | None -> true)

let suite =
  [
    Alcotest.test_case "parsing is deterministic" `Quick
      test_parse_deterministic;
    Alcotest.test_case "rename invariance" `Quick test_rename_invariance;
    Alcotest.test_case "reorder invariance" `Quick test_reorder_invariance;
    Alcotest.test_case "distinct widths differ" `Quick test_distinct_fig2;
    Alcotest.test_case "canons partition like the reference" `Quick
      test_partition_identity;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xf1a9 |])
      prop_rename_and_reorder;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xf1aa |])
      prop_semantic_mutant_distinct;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xf1ab |])
      prop_fault_mutants;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xf1ac |])
      prop_partition_identity;
  ]
