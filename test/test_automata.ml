(* Tests for the Automata theory: the axiomatic basis, the derived
   retiming theorem, and the word (bit-vector) operators. *)

open Hol
open Logic
open Automata

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Axiomatic basis audit                                               *)
(* ------------------------------------------------------------------ *)

let expected_axioms =
  [
    "COND_T"; "COND_F"; "FST_PAIR"; "SND_PAIR"; "PAIR_ETA"; "ETA_AX";
    "NUM_INDUCTION"; "STATE_0"; "STATE_SUC"; "BVI_NIL"; "BVI_CONS";
    "BVA_NIL"; "BVA_CONS"; "BV_EQ_NIL"; "BV_EQ_CONS"; "BV_NOT_NIL";
    "BV_NOT_CONS"; "BV_AND_NIL"; "BV_AND_CONS"; "BV_OR_NIL"; "BV_OR_CONS";
    "BV_XOR_NIL"; "BV_XOR_CONS";
  ]

let test_axiom_audit () =
  let names = List.map fst (Theory.theory_axioms ()) in
  List.iter
    (fun n -> check (n ^ " registered") true (List.mem n names))
    expected_axioms;
  (* and nothing beyond the documented basis *)
  List.iter
    (fun n -> check (n ^ " expected") true (List.mem n expected_axioms))
    names

(* ------------------------------------------------------------------ *)
(* The retiming theorem                                                *)
(* ------------------------------------------------------------------ *)

let test_retiming_thm_shape () =
  let th = Retiming_thm.retiming_thm in
  check "no hypotheses" true (Kernel.hyp th = []);
  let lhs, rhs = Term.dest_eq (Kernel.concl th) in
  let fd1, q1 = Theory.dest_automaton lhs in
  let fd2, q2 = Theory.dest_automaton rhs in
  check "lhs state type is :b" true
    (let _, s, _ = Theory.automaton_ty fd1 in
     Ty.equal s Ty.beta);
  check "rhs state type is :d" true
    (let _, s, _ = Theory.automaton_ty fd2 in
     Ty.equal s Ty.delta);
  check "initial states related by f" true
    (Term.is_comb q2 && Term.aconv (Term.rand q2) q1);
  (* free variables are exactly f, g, q *)
  let frees = Term.frees (Kernel.concl th) in
  Alcotest.(check int) "three free variables" 3 (List.length frees)

(* The exact sequent: terms are interned, so the conclusion and the one
   hypothesis must be physically the terms built here from typed
   variables; the printed theorem is pinned as well. *)
let test_comb_equiv_pinned () =
  let th = Retiming_thm.comb_equiv_thm in
  let fdty = Ty.fn Ty.alpha (Ty.fn Ty.beta (Ty.prod Ty.gamma Ty.beta)) in
  let fd1 = Term.mk_var "fd1" fdty and fd2 = Term.mk_var "fd2" fdty in
  let q = Term.mk_var "q" Ty.beta in
  let i = Term.mk_var "i" Ty.alpha and s = Term.mk_var "s" Ty.beta in
  let hyp =
    Boolean.mk_forall i
      (Boolean.mk_forall s
         (Term.mk_eq
            (Term.list_mk_comb fd1 [ i; s ])
            (Term.list_mk_comb fd2 [ i; s ])))
  in
  check "conclusion" true
    (Kernel.concl th
    == Term.mk_eq (Theory.mk_automaton fd1 q) (Theory.mk_automaton fd2 q));
  check "hypothesis" true
    (match Kernel.hyp th with [ h ] -> h == hyp | _ -> false);
  Alcotest.(check string) "printed"
    "(!i. (!s. (((fd1 i) s) = ((fd2 i) s)))) |- (((automaton fd1) q) = \
     ((automaton fd2) q))"
    (Kernel.string_of_thm th)

(* A sanity model-check of the theorem's statement: instantiate it on a
   tiny concrete machine and compare both sides by simulation through the
   netlist semantics (the HASH pipeline tests this end-to-end; here we
   check the bare theorem instance has no hypotheses). *)
let test_retiming_instance () =
  let f = Term.mk_var "f" (Ty.fn Ty.beta Ty.delta) in
  let th =
    Kernel.inst_type [ ("d", Ty.beta) ] Retiming_thm.retiming_thm
  in
  ignore f;
  check "instantiable" true (Kernel.hyp th = [])

(* ------------------------------------------------------------------ *)
(* ext_rule and induct                                                 *)
(* ------------------------------------------------------------------ *)

let test_ext_rule () =
  let f = Term.mk_var "f" (Ty.fn Ty.bool Ty.bool) in
  let x = Term.mk_var "x" Ty.bool in
  let th = Kernel.refl (Term.mk_comb f x) in
  let th' = Theory.ext_rule x th in
  check "f = f" true
    (Term.aconv (Kernel.concl th') (Term.mk_eq f f));
  Alcotest.check_raises "x free in function"
    (Failure "Theory.ext_rule: variable free in function") (fun () ->
      let fx = Term.mk_comb f x in
      let lam = Term.mk_abs (Term.mk_var "y" Ty.bool) fx in
      ignore (Theory.ext_rule x (Kernel.refl (Term.mk_comb lam x))))

(* ------------------------------------------------------------------ *)
(* Words                                                               *)
(* ------------------------------------------------------------------ *)

let bits_of_int w v = List.init w (fun k -> (v lsr k) land 1 = 1)

let int_of_bits bits =
  List.fold_left (fun acc b -> (acc * 2) + if b then 1 else 0) 0
    (List.rev bits)

let eval_to_bv tm =
  let th = Words.word_eval_conv tm in
  assert (Kernel.hyp th = []);
  Words.dest_bv (snd (Term.dest_eq (Kernel.concl th)))

let test_bv_literals () =
  let bv = Words.mk_bv [ true; false; true ] in
  Alcotest.(check (list bool)) "roundtrip" [ true; false; true ]
    (Words.dest_bv bv);
  check "is_bv" true (Words.is_bv bv);
  check "not bv" false (Words.is_bv (Term.mk_var "x" Ty.bv))

let prop_bv_inc =
  QCheck.Test.make ~count:100 ~name:"BV_INC is increment mod 2^w"
    QCheck.(pair (int_range 1 16) (int_range 0 65535))
    (fun (w, v0) ->
      let v = v0 mod (1 lsl w) in
      let tm =
        Term.mk_comb Words.bv_inc_tm (Words.mk_bv (bits_of_int w v))
      in
      int_of_bits (eval_to_bv tm) = (v + 1) mod (1 lsl w))

let prop_bv_add =
  QCheck.Test.make ~count:100 ~name:"BV_ADD is addition mod 2^w"
    QCheck.(triple (int_range 1 12) (int_range 0 65535) (int_range 0 65535))
    (fun (w, a0, b0) ->
      let a = a0 mod (1 lsl w) and b = b0 mod (1 lsl w) in
      let tm =
        Term.list_mk_comb Words.bv_add_tm
          [ Words.mk_bv (bits_of_int w a); Words.mk_bv (bits_of_int w b) ]
      in
      int_of_bits (eval_to_bv tm) = (a + b) mod (1 lsl w))

let prop_bv_eq =
  QCheck.Test.make ~count:100 ~name:"BV_EQ is equality"
    QCheck.(triple (int_range 1 12) (int_range 0 65535) (int_range 0 65535))
    (fun (w, a0, b0) ->
      let a = a0 mod (1 lsl w) and b = b0 mod (1 lsl w) in
      let tm =
        Term.list_mk_comb Words.bv_eq_tm
          [ Words.mk_bv (bits_of_int w a); Words.mk_bv (bits_of_int w b) ]
      in
      let th = Words.word_eval_conv tm in
      snd (Term.dest_eq (Kernel.concl th)) = Boolean.bool_const (a = b))

let prop_bv_pointwise =
  QCheck.Test.make ~count:100 ~name:"BV_AND/OR/XOR/NOT pointwise"
    QCheck.(triple (int_range 1 10) (int_range 0 1023) (int_range 0 1023))
    (fun (w, a0, b0) ->
      let a = a0 mod (1 lsl w) and b = b0 mod (1 lsl w) in
      let bva = Words.mk_bv (bits_of_int w a) in
      let bvb = Words.mk_bv (bits_of_int w b) in
      let t2 op = Term.list_mk_comb op [ bva; bvb ] in
      int_of_bits (eval_to_bv (t2 Words.bv_and_tm)) = a land b
      && int_of_bits (eval_to_bv (t2 Words.bv_or_tm)) = a lor b
      && int_of_bits (eval_to_bv (t2 Words.bv_xor_tm)) = a lxor b
      && int_of_bits (eval_to_bv (Term.mk_comb Words.bv_not_tm bva))
         = lnot a land ((1 lsl w) - 1))

let suite =
  [
    Alcotest.test_case "axiomatic basis audit" `Quick test_axiom_audit;
    Alcotest.test_case "RETIMING_THM shape" `Quick test_retiming_thm_shape;
    Alcotest.test_case "COMB_EQUIV statement pinned" `Quick
      test_comb_equiv_pinned;
    Alcotest.test_case "RETIMING_THM instance" `Quick test_retiming_instance;
    Alcotest.test_case "ext_rule" `Quick test_ext_rule;
    Alcotest.test_case "bv literals" `Quick test_bv_literals;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bv_inc;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bv_add;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bv_eq;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bv_pointwise;
  ]
