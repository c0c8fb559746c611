(* End-to-end tests of the HASH formal synthesis core. *)

open Hol
open Logic

let check = Alcotest.(check bool)

let cosim c1 c2 cycles seed =
  let rng = Random.State.make [| seed |] in
  let st1 = ref (Sim.initial_state c1) in
  let st2 = ref (Sim.initial_state c2) in
  let ok = ref true in
  for _ = 1 to cycles do
    let inputs = Sim.random_inputs rng c1 in
    let o1, st1' = Sim.step c1 !st1 inputs in
    let o2, st2' = Sim.step c2 !st2 inputs in
    if not (Array.for_all2 Sim.value_equal o1 o2) then ok := false;
    st1 := st1';
    st2 := st2'
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Embedding                                                           *)
(* ------------------------------------------------------------------ *)

let is_abs t = match t.Term.node with Term.Abs _ -> true | _ -> false

let test_embed_shapes () =
  let c = Fig2.rt 4 in
  let e = Hash.Embed.embed Hash.Embed.Rt_level c in
  check "fd is a double abstraction" true
    (is_abs e.Hash.Embed.fd && is_abs (snd (Term.dest_abs e.Hash.Embed.fd)));
  check "q is the zero word" true
    (Automata.Words.dest_bv e.Hash.Embed.q = [ false; false; false; false ]);
  check "state type is a word" true (Ty.equal e.Hash.Embed.s_ty Ty.bv)

let test_embed_levels () =
  let c = Fig2.rt 4 in
  Alcotest.check_raises "bit-level embedding of a word circuit"
    (Circuit.Invalid_netlist "Embed: word signal in a bit-level embedding") (fun () ->
      ignore (Hash.Embed.embed Hash.Embed.Bit_level c));
  let g = Fig2.gate 4 in
  ignore (Hash.Embed.embed Hash.Embed.Bit_level g);
  ignore (Hash.Embed.embed Hash.Embed.Rt_level g)

let test_embed_requires_io () =
  let b = Circuit.create "no_regs" in
  let x = Circuit.input b Circuit.B in
  Circuit.output b "o" (Circuit.not_ b x);
  let c = Circuit.finish b in
  Alcotest.check_raises "needs registers"
    (Circuit.Invalid_netlist "Embed: circuit has no registers") (fun () ->
      ignore (Hash.Embed.embed Hash.Embed.Bit_level c))

(* ------------------------------------------------------------------ *)
(* The full formal retiming step                                       *)
(* ------------------------------------------------------------------ *)

let test_retime_rt () =
  let c = Fig2.rt 8 in
  let step = Hash.Synthesis.retime Hash.Embed.Rt_level c (Cut.maximal c) in
  check "theorem closed" true (Kernel.hyp step.Hash.Synthesis.theorem = []);
  check "theorem speaks about the circuits" true
    (Hash.Synthesis.check step);
  check "behaviour preserved" true
    (cosim step.Hash.Synthesis.before step.Hash.Synthesis.after 50 3)

let test_retime_bit () =
  let c = Fig2.gate 6 in
  let step = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  check "check" true (Hash.Synthesis.check step);
  check "cosim" true
    (cosim step.Hash.Synthesis.before step.Hash.Synthesis.after 50 4)

(* [c] with its first AND, OR or XOR gate turned into another of the
   three *)
let one_gate_changed c =
  let open Circuit in
  let drivers = Array.copy c.drivers in
  let rec go i =
    if i = Array.length drivers then Alcotest.fail "no binary gate to change"
    else
      match drivers.(i) with
      | Gate (And, args) -> drivers.(i) <- Gate (Or, args)
      | Gate ((Or | Xor), args) -> drivers.(i) <- Gate (And, args)
      | _ -> go (i + 1)
  in
  go 0;
  { c with drivers }

(* The fault campaign's verdicts rest on [check]: it must refuse a step
   whose circuits are not the theorem's two sides, and a theorem that
   holds only under a hypothesis. *)
let test_check_rejects () =
  let c = Fig2.gate 4 in
  let step = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  check "the honest step passes" true (Hash.Synthesis.check step);
  let before = one_gate_changed step.Hash.Synthesis.before in
  check "before changed by one gate" false
    (Hash.Synthesis.check { step with Hash.Synthesis.before });
  let after = one_gate_changed step.Hash.Synthesis.after in
  check "after changed by one gate" false
    (Hash.Synthesis.check { step with Hash.Synthesis.after });
  let theorem = Kernel.assume (Kernel.concl step.Hash.Synthesis.theorem) in
  check "same sides under a hypothesis" false
    (Hash.Synthesis.check { step with Hash.Synthesis.theorem })

let test_retimed_init_value () =
  (* paper: the new initial state is f(q); on fig2 that's 0+1 = 1 *)
  let c = Fig2.rt 5 in
  let step = Hash.Synthesis.retime Hash.Embed.Rt_level c (Cut.maximal c) in
  let _, q' =
    Automata.Theory.dest_automaton (Kernel.rhs step.Hash.Synthesis.theorem)
  in
  Alcotest.(check (list bool))
    "f(q) = 1" [ true; false; false; false; false ]
    (Automata.Words.dest_bv q')

let test_faulty_cut_paper () =
  (* Figure 4: f = {=, MUX} depends on the inputs *)
  let c = Fig2.rt 4 in
  check "cut mismatch raised" true
    (try
       ignore
         (Hash.Synthesis.retime_gates Hash.Embed.Rt_level c
            (Fig2.false_cut_gates c));
       false
     with Hash.Errors.Cut_mismatch _ -> true)

let test_faulty_cut_garbage () =
  let c = Fig2.gate 4 in
  (* a random non-closed subset of gates *)
  let all_gates =
    List.filter
      (fun s ->
        match c.Circuit.drivers.(s) with
        | Circuit.Gate _ -> true
        | _ -> false)
      (Circuit.topo_order c)
  in
  let garbage = [ List.nth all_gates (List.length all_gates - 1) ] in
  check "garbage cut rejected" true
    (try
       ignore (Hash.Synthesis.retime_gates Hash.Embed.Bit_level c garbage);
       false
     with Hash.Errors.Cut_mismatch _ -> true)

let test_faulty_cut_produces_no_theorem () =
  (* §IV.C: the failure happens before any theorem about the target
     circuit exists — the kernel rule counter tells us nothing was
     asserted about the (impossible) result *)
  let c = Fig2.rt 4 in
  (try
     ignore
       (Hash.Synthesis.retime_gates Hash.Embed.Rt_level c
          (Fig2.false_cut_gates c))
   with Hash.Errors.Cut_mismatch _ -> ());
  check "no result escaped" true true

(* ------------------------------------------------------------------ *)
(* Composition by transitivity                                         *)
(* ------------------------------------------------------------------ *)

(* Two-stage pipeline: both increment stages are retimable in sequence. *)
let pipeline n =
  let open Circuit in
  let b = create (Printf.sprintf "pipe%d" n) in
  let a = input b (W n) in
  let bb = input b (W n) in
  let r = reg b ~init:(Word (n, 0)) (W n) in
  let u1 = gate b Winc [ r ] in
  let u2 = gate b Winc [ u1 ] in
  let sel = gate b Weq [ a; bb ] in
  let y = gate b Wmux [ sel; u2; bb ] in
  connect_reg b r ~data:y;
  output b "y" y;
  finish b

let test_compose () =
  let c = pipeline 4 in
  (* first step: move registers over the whole increment chain's first
     stage only *)
  let e = Hash.Embed.embed Hash.Embed.Rt_level c in
  ignore e;
  let gates = Cut.maximal c in
  (* the maximal cut covers both stages; take only the first stage *)
  let stage1 = [ List.hd gates.Cut.f_gates ] in
  let step1 =
    Hash.Synthesis.retime Hash.Embed.Rt_level c (Cut.of_gates c stage1)
  in
  let c2 = step1.Hash.Synthesis.after in
  (* the second stage now reads the new register: retime it too *)
  let step2 =
    Hash.Synthesis.retime Hash.Embed.Rt_level c2 (Cut.maximal c2)
  in
  let composed = Hash.Synthesis.compose step1 step2 in
  check "composed theorem closed" true
    (Kernel.hyp composed.Hash.Synthesis.theorem = []);
  check "ends relate original to final" true
    (Term.aconv (Kernel.lhs composed.Hash.Synthesis.theorem)
       (Kernel.lhs step1.Hash.Synthesis.theorem)
    && Term.aconv (Kernel.rhs composed.Hash.Synthesis.theorem)
         (Kernel.rhs step2.Hash.Synthesis.theorem));
  check "behaviour preserved end-to-end" true
    (cosim c composed.Hash.Synthesis.after 50 9)

let test_compose_mismatch () =
  let c1 = Fig2.rt 4 and c2 = Fig2.rt 5 in
  let s1 = Hash.Synthesis.retime Hash.Embed.Rt_level c1 (Cut.maximal c1) in
  let s2 = Hash.Synthesis.retime Hash.Embed.Rt_level c2 (Cut.maximal c2) in
  Alcotest.check_raises "non-chaining steps"
    (Hash.Errors.Kernel_invariant "Synthesis.compose: steps do not chain") (fun () ->
      ignore (Hash.Synthesis.compose s1 s2))

(* ------------------------------------------------------------------ *)
(* Cross-validation against the engines and properties                 *)
(* ------------------------------------------------------------------ *)

let test_hash_vs_smv () =
  let c = Fig2.gate 4 in
  let step = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  let budget = Engines.Common.budget_of_seconds 20.0 in
  check "SMV confirms the theorem" true
    ((Engines.Smv.equiv budget c step.Hash.Synthesis.after).result
    = Engines.Common.Equivalent)

let prop_random_formal_retiming =
  QCheck.Test.make ~count:30 ~name:"formal retiming on random circuits"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:20 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut -> (
          match Hash.Synthesis.retime Hash.Embed.Bit_level c cut with
          | step ->
              Kernel.hyp step.Hash.Synthesis.theorem = []
              && Hash.Synthesis.check step
              && cosim c step.Hash.Synthesis.after 24 (seed + 5)
          | exception Hash.Errors.Cut_mismatch _ -> false))

let prop_random_formal_retiming_words =
  QCheck.Test.make ~count:20 ~name:"formal retiming on random RT circuits"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~words:true ~seed ~max_gates:16 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut -> (
          match Hash.Synthesis.retime Hash.Embed.Rt_level c cut with
          | step ->
              Kernel.hyp step.Hash.Synthesis.theorem = []
              && cosim c step.Hash.Synthesis.after 24 (seed + 5)
          | exception Hash.Errors.Cut_mismatch _ -> false))

(* The theorem's initial-state evaluation agrees with the simulator (they
   are two independent interpreters of the same netlist). *)
let prop_init_eval_agrees =
  QCheck.Test.make ~count:30
    ~name:"deductive initial-state evaluation = simulator"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:16 () in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut ->
          (* Synthesis.retime cross-checks f(q) against the simulator's
             boundary inits internally and raises Join_mismatch on any
             disagreement. *)
          (match Hash.Synthesis.retime Hash.Embed.Bit_level c cut with
          | _ -> true
          | exception Hash.Errors.Join_mismatch _ -> false))

let suite =
  [
    Alcotest.test_case "embed shapes" `Quick test_embed_shapes;
    Alcotest.test_case "embed levels" `Quick test_embed_levels;
    Alcotest.test_case "embed needs registers" `Quick test_embed_requires_io;
    Alcotest.test_case "retime RT level" `Quick test_retime_rt;
    Alcotest.test_case "retime bit level" `Quick test_retime_bit;
    Alcotest.test_case "check rejects a step that lies" `Quick
      test_check_rejects;
    Alcotest.test_case "new initial value is f(q)" `Quick
      test_retimed_init_value;
    Alcotest.test_case "paper's false cut fails" `Quick test_faulty_cut_paper;
    Alcotest.test_case "garbage cut fails" `Quick test_faulty_cut_garbage;
    Alcotest.test_case "faulty cut yields no theorem" `Quick
      test_faulty_cut_produces_no_theorem;
    Alcotest.test_case "compose two retimings" `Quick test_compose;
    Alcotest.test_case "compose mismatch" `Quick test_compose_mismatch;
    Alcotest.test_case "hash vs smv" `Quick test_hash_vs_smv;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_random_formal_retiming;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_random_formal_retiming_words;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_init_eval_agrees;
  ]

(* ------------------------------------------------------------------ *)
(* Combinational resynthesis (constant propagation with proof)         *)
(* ------------------------------------------------------------------ *)

(* A circuit with foldable constants in the combinational part. *)
let consty () =
  let open Circuit in
  let b = create "consty" in
  let x = input b B in
  let r = reg b ~init:(Bit false) B in
  let t = constb b true in
  let f = constb b false in
  let g1 = and_ b t x in          (* = x *)
  let g2 = or_ b f g1 in          (* = x *)
  let g3 = gate b Nand [ f; x ] in (* = T *)
  let g4 = mux b ~sel:g3 g2 x in  (* = g2 = x *)
  let g5 = xor_ b g4 r in
  connect_reg b r ~data:g5;
  output b "o" g5;
  finish b

let test_resynth () =
  let c = consty () in
  let step = Hash.Resynth.resynthesize Hash.Embed.Bit_level c in
  check "theorem closed" true (Kernel.hyp step.Hash.Synthesis.theorem = []);
  check "gates reduced" true
    (Circuit.gate_count step.Hash.Synthesis.after < Circuit.gate_count c);
  check "behaviour preserved" true
    (cosim c step.Hash.Synthesis.after 40 11)

let prop_resynth =
  QCheck.Test.make ~count:40 ~name:"resynthesis on random circuits"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = Random_circ.generate ~seed ~max_gates:25 () in
      let step = Hash.Resynth.resynthesize Hash.Embed.Bit_level c in
      Kernel.hyp step.Hash.Synthesis.theorem = []
      && cosim c step.Hash.Synthesis.after 24 (seed + 3))

let test_retime_then_resynth () =
  (* the paper's §III.A compound step: retiming ∘ logic minimisation *)
  let c = consty () in
  let step1 = Hash.Resynth.resynthesize Hash.Embed.Bit_level c in
  match Cut.maximal step1.Hash.Synthesis.after with
  | exception Cut.Invalid_cut _ -> ()  (* nothing retimable after simplification *)
  | cut ->
      let step2 =
        Hash.Synthesis.retime Hash.Embed.Bit_level
          step1.Hash.Synthesis.after cut
      in
      let compound = Hash.Synthesis.compose step1 step2 in
      check "compound closed" true
        (Kernel.hyp compound.Hash.Synthesis.theorem = []);
      check "compound behaviour" true
        (cosim c compound.Hash.Synthesis.after 40 13)

let suite = suite @ [
    Alcotest.test_case "resynthesis" `Quick test_resynth;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_resynth;
    Alcotest.test_case "retime then resynthesise" `Quick
      test_retime_then_resynth;
  ]

(* ------------------------------------------------------------------ *)
(* State encoding (register permutation)                               *)
(* ------------------------------------------------------------------ *)

(* The exact sequent, as in test_automata's COMB_EQUIV pin: the
   conclusion and the one hypothesis are physically the interned terms
   built here, and the printed theorem is pinned. *)
let test_encode_thm_pinned () =
  let th = Automata.Encoding.encode_thm in
  let a = Ty.alpha and b = Ty.beta and c = Ty.gamma and d = Ty.delta in
  let fd = Term.mk_var "fd" (Ty.fn a (Ty.fn b (Ty.prod c b))) in
  let enc = Term.mk_var "enc" (Ty.fn b d) in
  let dec = Term.mk_var "dec" (Ty.fn d b) in
  let q = Term.mk_var "q" b and i = Term.mk_var "i" a in
  let s = Term.mk_var "s" b and x = Term.mk_var "s" d in
  let hyp =
    Boolean.mk_forall s
      (Term.mk_eq (Term.mk_comb dec (Term.mk_comb enc s)) s)
  in
  let fdx = Term.list_mk_comb fd [ i; Term.mk_comb dec x ] in
  let fd2 =
    Term.list_mk_abs [ i; x ]
      (Pairs.mk_pair (Pairs.mk_fst fdx)
         (Term.mk_comb enc (Pairs.mk_snd fdx)))
  in
  check "conclusion" true
    (Kernel.concl th
    == Term.mk_eq (Automata.Theory.mk_automaton fd q)
         (Automata.Theory.mk_automaton fd2 (Term.mk_comb enc q)));
  check "hypothesis" true
    (match Kernel.hyp th with [ h ] -> h == hyp | _ -> false);
  Alcotest.(check string) "printed"
    "(!s. ((dec (enc s)) = s)) |- (((automaton fd) q) = ((automaton (\\i. \
     (\\s. ((FST ((fd i) (dec s))), (enc (SND ((fd i) (dec s)))))))) \
     (enc q)))"
    (Kernel.string_of_thm th)

(* Register r moves to position n-1-r. *)
let reverse_registers level c =
  let n = Array.length c.Circuit.registers in
  Hash.Encode.permute_registers level c (Array.init n (fun r -> n - 1 - r))

let test_permute_registers () =
  let c = Iwls.synth ~name:"enc_t" ~ffs:6 ~gates:30 ~ins:2 ~outs:2 ~seed:99 in
  let step = reverse_registers Hash.Embed.Bit_level c in
  check "theorem closed" true (Kernel.hyp step.Hash.Synthesis.theorem = []);
  check "behaviour preserved" true
    (cosim c step.Hash.Synthesis.after 40 21);
  Alcotest.(check int) "same flip-flop count"
    (Circuit.flipflop_count c)
    (Circuit.flipflop_count step.Hash.Synthesis.after)

let test_permute_validation () =
  let c = Fig2.gate 3 in
  Alcotest.check_raises "not a permutation"
    (Cut.Invalid_cut "Encode.permute_registers: not a permutation") (fun () ->
      ignore
        (Hash.Encode.permute_registers Hash.Embed.Bit_level c [| 0; 0; 1 |]))

let test_encode_composes_with_retiming () =
  let c = Fig2.gate 4 in
  let step1 = Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c) in
  let step2 =
    reverse_registers Hash.Embed.Bit_level
      step1.Hash.Synthesis.after
  in
  let compound = Hash.Synthesis.compose step1 step2 in
  check "compound closed" true
    (Kernel.hyp compound.Hash.Synthesis.theorem = []);
  check "compound behaviour" true
    (cosim c compound.Hash.Synthesis.after 40 23)

let prop_permute =
  QCheck.Test.make ~count:30 ~name:"register permutation on random circuits"
    QCheck.(pair (int_range 0 10_000) (int_range 0 1000))
    (fun (seed, pseed) ->
      let c = Random_circ.generate ~seed ~max_gates:20 () in
      let n = Array.length c.Circuit.registers in
      (* a deterministic pseudo-random permutation *)
      let rng = Random.State.make [| pseed |] in
      let p = Array.init n (fun i -> i) in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = p.(i) in
        p.(i) <- p.(j);
        p.(j) <- t
      done;
      let step = Hash.Encode.permute_registers Hash.Embed.Bit_level c p in
      Kernel.hyp step.Hash.Synthesis.theorem = []
      && cosim c step.Hash.Synthesis.after 20 (seed + 29))

let suite = suite @ [
    Alcotest.test_case "ENCODE_THM statement pinned" `Quick
      test_encode_thm_pinned;
    Alcotest.test_case "permute registers" `Quick test_permute_registers;
    Alcotest.test_case "permutation validated" `Quick test_permute_validation;
    Alcotest.test_case "encoding composes with retiming" `Quick
      test_encode_composes_with_retiming;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_permute;
  ]

(* ------------------------------------------------------------------ *)
(* Step scope: memo tables and timings                                 *)
(* ------------------------------------------------------------------ *)

(* Each HASH step releases the normaliser's memo tables when it returns
   or raises, so a long-lived process (the serve daemon) does not retain
   the terms and theorems of every circuit it has retimed. *)
let test_step_releases_memos () =
  let s298 seed =
    Iwls.synth ~name:"s298" ~ffs:14 ~gates:119 ~ins:3 ~outs:6 ~seed
  in
  let retime ?budget c =
    Hash.Synthesis.retime ?budget Hash.Embed.Bit_level c (Cut.maximal c)
  in
  let live () =
    Gc.full_major ();
    (Term.stats ()).Term.live_nodes
  in
  let c0 = s298 1000 in
  let first = Kernel.string_of_thm (retime c0).Hash.Synthesis.theorem in
  let n0 = live () in
  for seed = 1001 to 1020 do
    ignore (retime (s298 seed))
  done;
  let expired = Engines.Common.budget_of_seconds (-1.0) in
  Alcotest.check_raises "expired budget" Engines.Common.Out_of_budget
    (fun () -> ignore (retime ~budget:expired (s298 1021)));
  (* one s298-profile step's memos hold about 3.4 k term nodes *)
  let grown = live () - n0 in
  if grown > 1000 then
    Alcotest.failf "20 retimed circuits left %d live term nodes behind" grown;
  let again = retime c0 in
  Alcotest.(check string)
    "same theorem as the first time" first
    (Kernel.string_of_thm again.Hash.Synthesis.theorem);
  check "check accepts" true (Hash.Synthesis.check again)

(* A step that raises mid-normalisation leaves no memo entry behind:
   the next step re-derives exactly as many terms as a cold one. *)
let test_raising_step_releases () =
  let fd = (Hash.Embed.embed Hash.Embed.Bit_level (Fig2.gate 8)).Hash.Embed.fd in
  let misses f =
    let _, m0 = Memo.stats () in
    f ();
    let _, m1 = Memo.stats () in
    m1 - m0
  in
  let norm () =
    ignore (Conv.with_step ignore (fun () -> Hash.Embed.circuit_norm_conv fd))
  in
  let cold = misses norm in
  check "normalisation misses" true (cold > 20);
  let polls = ref 0 in
  let hook () =
    incr polls;
    if !polls = cold / 2 then raise Engines.Common.Out_of_budget
  in
  Alcotest.check_raises "budget hook fires" Engines.Common.Out_of_budget
    (fun () ->
      ignore (Conv.with_step hook (fun () -> Hash.Embed.circuit_norm_conv fd)));
  Alcotest.(check int) "cold again" cold (misses norm)

(* Step timings come from [Logic.Clock]: with a source that advances one
   second per read, every measured phase spans at least one read. *)
let test_step_timings_clock () =
  let t = ref 0.0 in
  Clock.set_source (fun () ->
      t := !t +. 1.0;
      !t);
  Fun.protect ~finally:Clock.use_monotonic @@ fun () ->
  let at_least_one name v =
    if v < 1.0 then Alcotest.failf "%s = %g, expected >= 1.0" name v
  in
  let c = Fig2.gate 4 in
  let timings (s : Hash.Synthesis.step) = s.timings in
  let tm = timings (Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c)) in
  List.iter
    (fun (n, v) -> at_least_one n v)
    [ ("t_embed", tm.t_embed); ("t_split", tm.t_split);
      ("t_apply", tm.t_apply); ("t_join", tm.t_join); ("t_init", tm.t_init) ];
  let tm = timings (Hash.Resynth.resynthesize Hash.Embed.Bit_level c) in
  at_least_one "resynth t_embed" tm.t_embed;
  at_least_one "resynth t_apply" tm.t_apply;
  let tm = timings (reverse_registers Hash.Embed.Bit_level c) in
  at_least_one "encode t_embed" tm.t_embed;
  at_least_one "encode t_apply" tm.t_apply;
  at_least_one "encode t_join" tm.t_join

let suite = suite @ [
    Alcotest.test_case "a step leaves no memo behind" `Quick
      test_step_releases_memos;
    Alcotest.test_case "a raising step releases its memos" `Quick
      test_raising_step_releases;
    Alcotest.test_case "step timings on the monotonic clock" `Quick
      test_step_timings_clock;
  ]

(* The statement of every Table II theorem, pinned.  [string_of_thm] of
   the retiming theorem for each profile at the maximal cut, at bit
   level and at RT level (every profile embeds at both, and the two
   statements coincide), digested.  The digests were computed before
   equational theorems stopped storing their conclusion term; a change
   to how the kernel represents or derives theorems may change proofs,
   never these statements. *)
let pinned_statements =
  [
    ("s298", "421b454adfdf552d290829c889232a12");
    ("s344", "98f8564a81e14dc5943864fc460faec9");
    ("s420", "da6b024f75f454058d8081995f3f378d");
    ("s526", "c19fde10dc1e54ad61e7fbcc8b8a7c23");
    ("s641", "9c12e9bfc724d60cedd6c02e6247bfd1");
    ("s838", "ec023354c9ae333f1bbdcab4b18f266b");
    ("s1423", "f50bc6f62692028a977a1c647f545250");
    ("s5378", "693e5db92ccb9acd4178dab59ec7b542");
    ("mult8", "519981d3ba1b3d9352ff27ee7519ea7c");
    ("mult16", "11661aa000bff240f8fd17c079b167a0");
    ("mult32", "159e09f3ecf57c6b3f37848f1622e8fb");
  ]

let test_pinned_statements () =
  Alcotest.(check (list string))
    "every Table II profile is pinned"
    (List.map (fun e -> e.Iwls.name) Iwls.suite)
    (List.map fst pinned_statements);
  List.iter
    (fun (name, digest) ->
      let c = Lazy.force (Iwls.find name).Iwls.circuit in
      List.iter
        (fun (lname, level) ->
          let s = Hash.Synthesis.retime level c (Cut.maximal c) in
          Alcotest.(check string)
            (Printf.sprintf "%s %s statement" name lname)
            digest
            (Digest.to_hex
               (Digest.string (Kernel.string_of_thm s.Hash.Synthesis.theorem))))
        [ ("bit", Hash.Embed.Bit_level); ("rt", Hash.Embed.Rt_level) ])
    pinned_statements

let suite =
  suite
  @ [
      Alcotest.test_case "Table II theorem statements pinned" `Quick
        test_pinned_statements;
    ]

(* ------------------------------------------------------------------ *)
(* The normaliser's work, pinned in rules                              *)
(* ------------------------------------------------------------------ *)

let s298 () = Lazy.force (Iwls.find "s298").Iwls.circuit
let fig2_bits () = Bitblast.expand (Fig2.rt 4)

(* Kernel rules [f ()] spends from empty memo tables.  [f] runs once
   first, so theorems a module proves lazily on first use are not
   counted. *)
let rules_of f =
  ignore (f ());
  Memo.release_domain ();
  let r0 = Kernel.rule_count () in
  ignore (f ());
  Kernel.rule_count () - r0

(* An embedding is in normal form: normalising it costs the one [refl]
   of the top-level call, whatever the size of the circuit. *)
let test_normal_term_one_rule () =
  List.iter
    (fun (name, level, c) ->
      let fd = (Hash.Embed.embed level c).Hash.Embed.fd in
      Alcotest.(check int)
        (name ^ ": rules to normalise fd") 1
        (rules_of (fun () ->
             Conv.with_step ignore (fun () -> Hash.Embed.circuit_norm_conv fd))))
    [
      ("fig2 n=4 RT", Hash.Embed.Rt_level, Fig2.rt 4);
      ("s298 bit", Hash.Embed.Bit_level, s298 ());
    ]

(* The rules of one HASH step at the maximal cut, pinned exactly: a
   change that makes the proof longer must say so here. *)
let test_rules_per_step_pinned () =
  List.iter
    (fun (name, c, want) ->
      Alcotest.(check int)
        (name ^ ": rules per retiming step") want
        (rules_of (fun () ->
             Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c))))
    [ ("fig2 n=4 bit", fig2_bits (), 225); ("s298 bit", s298 (), 1257) ]

(* A recorded retime counts exactly the inferences its certificate
   replays: every rule the kernel counts is a step of the proof. *)
let test_rules_are_inferences () =
  List.iter
    (fun (name, c) ->
      let retime () =
        Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c)
      in
      ignore (retime ());
      Kernel.start_recording ();
      let r0 = Kernel.rule_count () in
      let th = (retime ()).Hash.Synthesis.theorem in
      let rules = Kernel.rule_count () - r0 in
      let replayed =
        match Kernel.stop_recording () with
        | Error msg -> Alcotest.fail ("recording poisoned: " ^ msg)
        | Ok tr -> (
            match Result.map Cert.check_string (Cert.emit tr th) with
            | Ok (Ok (_, inferences)) -> inferences
            | Ok (Error rej) -> Alcotest.fail (Cert.reject_to_string rej)
            | Error msg -> Alcotest.fail ("emit failed: " ^ msg))
      in
      Alcotest.(check int) (name ^ ": rules = replayed inferences") replayed
        rules)
    [ ("fig2 n=4 bit", fig2_bits ()); ("s298 bit", s298 ()) ]

(* ------------------------------------------------------------------ *)
(* The normaliser against its reference                                *)
(* ------------------------------------------------------------------ *)

(* [Conv_ref] is the normaliser that paid for every node it visited.
   Both run on the same base conversions, each from empty memo tables:
   the current one must prove the same normal form (physically: terms
   are hash-consed) of the same term, spending no more rules. *)
let ground_rewrites =
  let words (n, th) =
    if String.length n > 2 && String.sub n 0 2 = "BV" then Some th else None
  in
  List.filter_map words (Kernel.axioms () @ Kernel.definitions ())
  @ Boolean.eval_rewrites

let ground_base =
  Conv.orelsec (Conv.rewrs_conv ground_rewrites) Pairs.proj_beta_conv
let ground_new = Conv.memo_top_depth_conv ground_base
let ground_ref = Conv_ref.memo_top_depth_conv ground_base
let circuit_new = Conv.memo_top_depth_conv Pairs.proj_beta_conv
let circuit_ref = Conv_ref.memo_top_depth_conv Pairs.proj_beta_conv

let agrees_with_ref conv conv_ref tm =
  let run c =
    Conv.with_step ignore (fun () ->
        let r0 = Kernel.rule_count () in
        let th = c tm in
        (th, Kernel.rule_count () - r0))
  in
  let th, rules = run conv and th_ref, rules_ref = run conv_ref in
  Kernel.lhs th == tm
  && Kernel.rhs th == Kernel.rhs th_ref
  && rules <= rules_ref

(* A random ground term over the Boolean connectives and the word
   operators, on literal words of one width. *)
let gen_ground rng =
  let width = 1 + Random.State.int rng 4 in
  let bit () = Boolean.bool_const (Random.State.bool rng) in
  let rec word d =
    if d = 0 || Random.State.int rng 3 = 0 then
      Automata.Words.mk_bv (List.init width (fun _ -> Random.State.bool rng))
    else
      let op1 f = Term.mk_comb f (word (d - 1)) in
      let op2 f = Term.list_mk_comb f [ word (d - 1); word (d - 1) ] in
      match Random.State.int rng 6 with
      | 0 -> op1 Automata.Words.bv_not_tm
      | 1 -> op1 Automata.Words.bv_inc_tm
      | 2 -> op2 Automata.Words.bv_and_tm
      | 3 -> op2 Automata.Words.bv_or_tm
      | 4 -> op2 Automata.Words.bv_xor_tm
      | _ -> op2 Automata.Words.bv_add_tm
  and bool d =
    if d = 0 || Random.State.int rng 4 = 0 then bit ()
    else
      match Random.State.int rng 6 with
      | 0 -> Boolean.mk_conj (bool (d - 1)) (bool (d - 1))
      | 1 -> Boolean.mk_disj (bool (d - 1)) (bool (d - 1))
      | 2 -> Boolean.mk_xor (bool (d - 1)) (bool (d - 1))
      | 3 -> Boolean.mk_neg (bool (d - 1))
      | 4 -> Boolean.mk_cond (bool (d - 1)) (bool (d - 1)) (bool (d - 1))
      | _ ->
          Term.list_mk_comb Automata.Words.bv_eq_tm [ word (d - 1); word (d - 1) ]
  in
  if Random.State.bool rng then bool 4 else word 3

let prop_normaliser_vs_ref =
  QCheck.Test.make ~count:60 ~name:"normaliser agrees with its reference"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| 0xc0e7; seed |] in
      match seed mod 3 with
      | 0 -> agrees_with_ref ground_new ground_ref (gen_ground rng)
      | kind -> (
          let words = Random.State.bool rng in
          let c = Random_circ.generate ~words ~seed ~max_gates:16 () in
          let level =
            if words then Hash.Embed.Rt_level else Hash.Embed.Bit_level
          in
          let e = Hash.Embed.embed level c in
          let i = e.Hash.Embed.i_var and s = e.Hash.Embed.s_var in
          let norm tm = agrees_with_ref circuit_new circuit_ref tm in
          if kind = 1 then
            (* the embedding, and its body applied to fresh variables *)
            norm e.Hash.Embed.fd
            && norm (Term.list_mk_comb e.Hash.Embed.fd [ i; s ])
          else
            match Cut.maximal c with
            | exception Cut.Invalid_cut _ -> true
            | cut ->
                let sp =
                  Conv.with_step ignore (fun () -> Hash.Split.split e cut)
                in
                let g = sp.Hash.Split.g_term and f = sp.Hash.Split.f_term in
                norm
                  (Term.mk_abs i
                     (Term.mk_abs s
                        (Term.mk_comb (Term.mk_comb g i) (Term.mk_comb f s))))))

(* ------------------------------------------------------------------ *)
(* The rewrite index against the linear scan                           *)
(* ------------------------------------------------------------------ *)

(* [Conv.rewrs_conv] tries only the bucket of the term's head;
   [Rewrs_ref.rewrs_conv] tries every rewrite in list order.  On every
   subterm of a random term both must prove the same theorem with the
   same number of rules, or fail with the same message.  Besides the two
   evaluation lists, a list of assumed equations in which the order
   decides the result: the variable-headed [f x = x] matches every
   boolean term [t u] with [u] boolean ([~ u], [t /\ u], ...), so it
   must stay behind [~T = F] and [~F = T] and ahead of the [/\]
   rewrites, and the two [BV_NOT] rewrites (which [f x] cannot match)
   must keep their order. *)
let wild_rewrites =
  let b = Ty.bool in
  let f = Term.mk_var "f" (Ty.fn b b)
  and x = Term.mk_var "x" b
  and y = Term.mk_var "y" b
  and w = Term.mk_var "w" Ty.bv in
  let eq l r = Kernel.assume (Term.mk_eq l r) in
  let bv_not t = Term.mk_comb Automata.Words.bv_not_tm t in
  Test_logic.registered "Boolean.not_clauses"
  @ [ eq (Term.mk_comb f x) x; eq (Boolean.mk_conj x y) x ]
  @ Test_logic.registered "Boolean.and_clauses"
  @ [
      eq (Boolean.mk_conj x y) (Boolean.mk_conj y x);
      eq (bv_not w) w;
      eq (bv_not w) (bv_not (bv_not w));
    ]

let rewrite_lists =
  List.map
    (fun ths -> (Conv.rewrs_conv ths, Rewrs_ref.rewrs_conv ths))
    [ ground_rewrites; Boolean.eval_rewrites; wild_rewrites ]

let rewrite_outcome conv tm =
  let r0 = Kernel.rule_count () in
  match conv tm with
  | th ->
      Ok (Kernel.hyp th, Kernel.lhs th, Kernel.rhs th, Kernel.rule_count () - r0)
  | exception Failure msg -> Error msg

let same_outcome a b =
  match (a, b) with
  | Ok (hs, l, r, n), Ok (hs', l', r', n') ->
      List.equal ( == ) hs hs' && l == l' && r == r' && n = n'
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let rec distinct_subterms seen acc tm =
  if Hashtbl.mem seen tm.Term.id then acc
  else begin
    Hashtbl.add seen tm.Term.id ();
    let acc = tm :: acc in
    match tm.Term.node with
    | Term.Comb (f, x) -> distinct_subterms seen (distinct_subterms seen acc f) x
    | Term.Abs (_, body) -> distinct_subterms seen acc body
    | Term.Var _ | Term.Const _ -> acc
  end

let prop_rewrite_index_vs_ref =
  QCheck.Test.make ~count:100 ~name:"rewrite index agrees with the linear scan"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| 0x1d; seed |] in
      let tm = gen_ground rng in
      (* a head that is a variable or an abstraction: only the rewrites
         without a constant head may match *)
      let tm =
        if not (Ty.equal (Term.type_of tm) Ty.bool) then tm
        else
          match Random.State.int rng 3 with
          | 0 -> Term.mk_comb (Term.mk_var "h" (Ty.fn Ty.bool Ty.bool)) tm
          | 1 ->
              let z = Term.mk_var "z" Ty.bool in
              Term.mk_comb (Term.mk_abs z z) tm
          | _ -> tm
      in
      List.for_all
        (fun sub ->
          List.for_all
            (fun (indexed, linear) ->
              same_outcome (rewrite_outcome indexed sub)
                (rewrite_outcome linear sub))
            rewrite_lists)
        (distinct_subterms (Hashtbl.create 64) [] tm))

(* ------------------------------------------------------------------ *)
(* Split terms against their reference                                 *)
(* ------------------------------------------------------------------ *)

(* [Split_ref.build_terms] is the quadratic builder, whose f and g bind
   fresh variables.  On the maximal cut of a random circuit the split's
   f and g are alpha-equivalent to the reference's and its x type is
   physically the reference's; f binds the embedding's [s], and g binds
   its [i] and then ["s"] at the x type.  On a cut perturbed into a false
   one, a builder that rejects it rejects it with the reference's
   message, and one that accepts it leaves the rejection to the split
   proof. *)
let prop_split_terms_vs_ref =
  QCheck.Test.make ~count:80 ~name:"split terms agree with their reference"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| 0x5b17; seed |] in
      let words = seed mod 2 = 1 in
      let c = Random_circ.generate ~words ~seed ~max_gates:24 () in
      let level = if words then Hash.Embed.Rt_level else Hash.Embed.Bit_level in
      match Cut.maximal c with
      | exception Cut.Invalid_cut _ -> true
      | cut -> (
          let e = Hash.Embed.embed level c in
          let f_gates = cut.Cut.f_gates in
          let pick l = List.nth l (Random.State.int rng (List.length l)) in
          let n_sig = Circuit.n_signals c in
          let kind = Random.State.int rng 6 in
          let gates =
            match kind with
            | 0 -> f_gates
            | 1 ->
                let drop = pick f_gates in
                List.filter (fun s -> s <> drop) f_gates
            | 2 -> f_gates @ [ Random.State.int rng n_sig ]
            | 3 -> pick f_gates :: f_gates
            | 4 -> []
            | _ ->
                List.filter
                  (fun s ->
                    (match c.Circuit.drivers.(s) with
                    | Circuit.Gate _ -> true
                    | _ -> false)
                    && Random.State.bool rng)
                  (List.init n_sig Fun.id)
          in
          let reference =
            match Split_ref.build_terms e gates with
            | r -> Ok r
            | exception Hash.Errors.Cut_mismatch m -> Error m
          in
          let got =
            Conv.with_step ignore (fun () ->
                match Hash.Split.split_gates e gates with
                | sp ->
                    Ok
                      ( sp.Hash.Split.f_term,
                        sp.Hash.Split.g_term,
                        sp.Hash.Split.x_ty )
                | exception Hash.Errors.Cut_mismatch m -> Error m)
          in
          let from_proof m =
            List.exists
              (fun p -> String.starts_with ~prefix:p m)
              [ "split proof failed"; "the split does not reproduce" ]
          in
          match (reference, got) with
          | Ok (f, g, x), Ok (f', g', x') ->
              let binder tm = fst (Term.dest_abs tm) in
              Term.aconv f f' && Term.aconv g g' && x == x'
              && binder f' == e.Hash.Embed.s_var
              && binder g' == e.Hash.Embed.i_var
              && binder (snd (Term.dest_abs g')) == Term.mk_var "s" x'
          | Error m, Error m' -> String.equal m m'
          | Ok _, Error m -> kind <> 0 && from_proof m
          | Error _, Ok _ -> false))

(* [Pairs.proj] reads FST and SND from its per-domain table; the
   reference builds every constant with [Kernel.mk_const].  Components of
   two types make the tuple's subtypes distinct, and the table is
   released now and then on the way. *)
let test_proj_vs_uncached () =
  let mk name p =
    let a, b = Ty.dest_prod (Term.type_of p) in
    Term.mk_comb (Kernel.mk_const name [ ("a", a); ("b", b) ]) p
  in
  let rec proj_ref tup i n =
    if n = 1 then tup
    else
      let l = (n + 1) / 2 in
      if i < l then proj_ref (mk "FST" tup) i l
      else proj_ref (mk "SND" tup) (i - l) (n - l)
  in
  let mismatches = ref 0 in
  for n = 1 to 300 do
    let comps =
      List.init n (fun k ->
          Term.mk_var (Printf.sprintf "c%d" k)
            (if k mod 3 = 0 then Ty.bv else Ty.bool))
    in
    let tup = Term.mk_var "t" (Term.type_of (Pairs.list_mk_pair comps)) in
    for i = 0 to n - 1 do
      if Pairs.proj tup i n != proj_ref tup i n then incr mismatches
    done;
    if n mod 64 = 0 then Memo.release_domain ()
  done;
  Alcotest.(check int) "projections that differ from the reference" 0
    !mismatches

let suite =
  suite
  @ [
      Alcotest.test_case "a normal term costs one rule" `Quick
        test_normal_term_one_rule;
      Alcotest.test_case "rules per step pinned" `Quick
        test_rules_per_step_pinned;
      Alcotest.test_case "rules counted are inferences replayed" `Quick
        test_rules_are_inferences;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0xc0e7 |])
        prop_normaliser_vs_ref;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0x1d |])
        prop_rewrite_index_vs_ref;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 0x5b17 |])
        prop_split_terms_vs_ref;
      Alcotest.test_case "projections equal the uncached ones" `Quick
        test_proj_vs_uncached;
    ]
