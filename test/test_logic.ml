(* Tests for the LCF kernel, the boolean bootstrap, pairs and conversions. *)

open Hol
open Logic

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let thm_str th = Kernel.string_of_thm th

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_ty_basics () =
  let ty = Ty.fn Ty.bool (Ty.prod Ty.alpha Ty.num) in
  let a, b = Ty.dest_fn ty in
  check "dom" true (Ty.equal a Ty.bool);
  let x, y = Ty.dest_prod b in
  check "prod l" true (Ty.equal x Ty.alpha);
  check "prod r" true (Ty.equal y Ty.num);
  Alcotest.check_raises "dest_fn fail" (Failure "Ty.dest_fn: not a function type")
    (fun () -> ignore (Ty.dest_fn Ty.bool))

let test_ty_subst_match () =
  let pat = Ty.fn Ty.alpha (Ty.fn Ty.beta Ty.alpha) in
  let con = Ty.fn Ty.bool (Ty.fn Ty.num Ty.bool) in
  let theta = Ty.match_ pat con [] in
  check "match roundtrip" true (Ty.equal (Ty.subst theta pat) con);
  Alcotest.check_raises "clash"
    (Failure "Ty.match_: clashing binding")
    (fun () ->
      ignore
        (Ty.match_
           (Ty.fn Ty.alpha Ty.alpha)
           (Ty.fn Ty.bool Ty.num)
           []))

let test_tyvars () =
  let ty = Ty.fn Ty.alpha (Ty.prod Ty.beta Ty.alpha) in
  Alcotest.(check (list string)) "tyvars" [ "a"; "b" ] (Ty.tyvars ty)

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let xb = Term.mk_var "x" Ty.bool
let yb = Term.mk_var "y" Ty.bool

let test_term_typing () =
  let f = Term.mk_var "f" (Ty.fn Ty.bool Ty.bool) in
  let fx = Term.mk_comb f xb in
  check "type_of app" true (Ty.equal (Term.type_of fx) Ty.bool);
  Alcotest.check_raises "ill-typed app"
    (Failure "Term.mk_comb: types do not agree") (fun () ->
      ignore (Term.mk_comb xb yb));
  let lam = Term.mk_abs xb fx in
  check "type_of abs" true
    (Ty.equal (Term.type_of lam) (Ty.fn Ty.bool Ty.bool))

let test_aconv () =
  let lam1 = Term.mk_abs xb xb in
  let lam2 = Term.mk_abs yb yb in
  check "alpha-equal" true (Term.aconv lam1 lam2);
  let c1 = Term.mk_abs xb yb in
  let c2 = Term.mk_abs yb yb in
  check "not alpha-equal (free vs bound)" false (Term.aconv c1 c2)

let test_vsubst_capture () =
  (* (\y. x) [x := y]  must rename the binder *)
  let tm = Term.mk_abs yb xb in
  let tm' = Term.vsubst [ (xb, yb) ] tm in
  let v, body = Term.dest_abs tm' in
  check "binder renamed" false (v = yb);
  check "body is y" true (body = yb);
  (* and the result is alpha-equal to \z. y *)
  check "alpha to \\z. y" true
    (Term.aconv tm' (Term.mk_abs (Term.mk_var "z" Ty.bool) yb))

let test_vsubst_simultaneous () =
  (* [x := y, y := x] swaps *)
  let tm = Boolean.mk_conj xb yb in
  let tm' = Term.vsubst [ (xb, yb); (yb, xb) ] tm in
  check "swap" true (Term.aconv tm' (Boolean.mk_conj yb xb))

let test_inst_rename () =
  (* \x:a. x:bool — instantiating a := bool must not confuse binders *)
  let xa = Term.mk_var "x" Ty.alpha in
  let tm = Term.mk_abs xa (Term.mk_abs xb xa) in
  let tm' = Term.inst [ ("a", Ty.bool) ] tm in
  (* result must be alpha-equal to \u. \v. u *)
  let u = Term.mk_var "u" Ty.bool and v = Term.mk_var "v" Ty.bool in
  check "inst renames to avoid confusion" true
    (Term.aconv tm' (Term.mk_abs u (Term.mk_abs v u)))

(* The matcher is private to Conv; rewr_conv, its one caller, shows what
   it matched: rewriting with [|- pat = pat] proves [|- tm = tm]. *)
let test_term_match () =
  let matched pat tm = Kernel.concl (Conv.rewr_conv (Kernel.refl pat) tm) in
  (* match (p /\ q) against (x \/ y) /\ ~x *)
  let p = Term.mk_var "p" Ty.bool and q = Term.mk_var "q" Ty.bool in
  let pat = Boolean.mk_conj p q in
  let tm = Boolean.mk_conj (Boolean.mk_disj xb yb) (Boolean.mk_neg xb) in
  check "instantiates correctly" true
    (Term.aconv (matched pat tm) (Term.mk_eq tm tm));
  (* a variable of type :a matches a bool term *)
  check "instantiates types" true
    (Term.aconv (matched (Term.mk_var "z" Ty.alpha) xb) (Term.mk_eq xb xb));
  (* bound variables cannot escape *)
  let lam_pat = Term.mk_abs xb p in
  let lam_tm = Term.mk_abs yb yb in
  Alcotest.check_raises "escape"
    (Failure "Conv.term_match: bound variable would escape") (fun () ->
      ignore (matched lam_pat lam_tm))

(* ------------------------------------------------------------------ *)
(* Kernel rules                                                        *)
(* ------------------------------------------------------------------ *)

let test_refl_trans () =
  let th1 = Kernel.refl xb in
  check_str "refl" "|- (x = x)" (thm_str th1);
  let th2 = Kernel.trans th1 th1 in
  check_str "trans" "|- (x = x)" (thm_str th2);
  Alcotest.check_raises "trans misaligned"
    (Failure "Kernel.trans: middle terms differ") (fun () ->
      ignore (Kernel.trans th1 (Kernel.refl yb)))

let test_assume_eq_mp () =
  let th = Kernel.assume xb in
  check "hyp" true (Kernel.hyp th = [ xb ]);
  Alcotest.check_raises "assume non-bool"
    (Failure "Kernel.assume: not a proposition") (fun () ->
      ignore (Kernel.assume (Term.mk_var "n" Ty.num)));
  let eq = Kernel.assume (Term.mk_eq xb yb) in
  let th' = Kernel.eq_mp eq th in
  check "eq_mp concl" true (Term.aconv (Kernel.concl th') yb);
  check "eq_mp hyps" true (List.length (Kernel.hyp th') = 2)

let test_abs_freeness () =
  let th = Kernel.assume (Term.mk_eq xb xb) in
  Alcotest.check_raises "abs with free hyp"
    (Failure "Kernel.abs: variable free in hypotheses") (fun () ->
      ignore (Kernel.abs xb th))

let test_beta () =
  let lam = Term.mk_abs xb (Boolean.mk_conj xb yb) in
  let th = Kernel.beta (Term.mk_comb lam xb) in
  check "beta" true
    (Term.aconv (snd (Term.dest_eq (Kernel.concl th)))
       (Boolean.mk_conj xb yb));
  Alcotest.check_raises "beta general redex rejected"
    (Failure "Kernel.beta: not a trivial beta-redex") (fun () ->
      ignore (Kernel.beta (Term.mk_comb lam yb)))

let test_deduct () =
  let thx = Kernel.assume xb and thy = Kernel.assume yb in
  let th = Kernel.deduct_antisym_rule thx thy in
  check "deduct concl" true
    (Term.aconv (Kernel.concl th) (Term.mk_eq xb yb));
  check "deduct hyps" true (List.length (Kernel.hyp th) = 2)

let test_definitions_audit () =
  check "T is defined" true (List.mem_assoc "T" (Kernel.definitions ()));
  check "/\\ is defined" true
    (List.mem_assoc "/\\" (Kernel.definitions ()))

(* ------------------------------------------------------------------ *)
(* Boolean derived rules                                               *)
(* ------------------------------------------------------------------ *)

(* The theorems Boolean registers as [name] or [name.<i>], in order.  Its
   derived rules are private: what they prove is read back here. *)
let registered name =
  List.filter_map
    (fun (n, th) ->
      if n = name || String.starts_with ~prefix:(name ^ ".") n then Some th
      else None)
    (Kernel.registered_theorems ())

let truth () = List.hd (registered "Boolean.truth")

let clause name i = thm_str (List.nth (registered name) i)

let test_truth () =
  check_str "TRUTH" "|- T" (thm_str (truth ()));
  (* EQT_INTRO *)
  check_str "(F = F) = T" "|- ((F = F) = T)" (clause "Boolean.eq_bool_clauses" 1)

let test_conj_rules () =
  let th = Boolean.conj (truth ()) (truth ()) in
  check_str "conj" "|- (T /\\ T)" (thm_str th);
  (* T /\ t = t needs CONJUNCT2, t /\ T = t needs CONJUNCT1 *)
  check_str "conjunct2" "|- ((T /\\ t) = t)" (clause "Boolean.and_clauses" 0);
  check_str "conjunct1" "|- ((t /\\ T) = t)" (clause "Boolean.and_clauses" 1)

let test_disch_mp () =
  let pq = Boolean.mk_conj xb yb in
  let th = Boolean.disch pq (Kernel.assume yb) in
  check "disch removes only its own hypothesis" true
    (List.length (Kernel.hyp th) = 1);
  let th = Boolean.disch yb th in
  check "disch closes" true (Kernel.hyp th = []);
  (* th : |- y ==> (x /\ y) ==> y *)
  let th' = Boolean.mp (Boolean.mp th (Kernel.assume yb)) (Kernel.assume pq) in
  check "mp" true (Term.aconv (Kernel.concl th') yb)

let test_gen_spec () =
  let th = Boolean.gen xb (Kernel.refl xb) in
  let sp = Boolean.spec (Boolean.mk_neg yb) th in
  check "spec instantiates" true
    (Term.aconv (Kernel.concl sp)
       (Term.mk_eq (Boolean.mk_neg yb) (Boolean.mk_neg yb)))

(* F /\ t = F and t /\ F = F need CONTR for their F-hypothesis halves *)
let test_contr () =
  check_str "F /\\ t" "|- ((F /\\ t) = F)" (clause "Boolean.and_clauses" 2);
  check_str "t /\\ F" "|- ((t /\\ F) = F)" (clause "Boolean.and_clauses" 3)

(* T \/ t = T needs DISJ1, t \/ T = T needs DISJ2 *)
let test_disj () =
  check_str "disj1" "|- (((\\/ T) t) = T)" (clause "Boolean.or_clauses" 0);
  check_str "disj2" "|- (((\\/ t) T) = T)" (clause "Boolean.or_clauses" 1)

(* Ground evaluation agrees with OCaml's booleans on random formulas. *)
let gen_formula =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then map (fun b -> `Const b) bool
        else
          frequency
            [
              (1, map (fun b -> `Const b) bool);
              (2, map2 (fun a b -> `And (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> `Or (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> `Xor (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map (fun a -> `Not a) (self (n - 1)));
              ( 1,
                map3
                  (fun a b c -> `Cond (a, b, c))
                  (self (n / 3)) (self (n / 3)) (self (n / 3)) );
            ]))

let rec f_eval = function
  | `Const b -> b
  | `And (a, b) -> f_eval a && f_eval b
  | `Or (a, b) -> f_eval a || f_eval b
  | `Xor (a, b) -> f_eval a <> f_eval b
  | `Not a -> not (f_eval a)
  | `Cond (a, b, c) -> if f_eval a then f_eval b else f_eval c

let rec f_term = function
  | `Const b -> Boolean.bool_const b
  | `And (a, b) -> Boolean.mk_conj (f_term a) (f_term b)
  | `Or (a, b) -> Boolean.mk_disj (f_term a) (f_term b)
  | `Xor (a, b) -> Boolean.mk_xor (f_term a) (f_term b)
  | `Not a -> Boolean.mk_neg (f_term a)
  | `Cond (a, b, c) -> Boolean.mk_cond (f_term a) (f_term b) (f_term c)

let prop_bool_eval =
  QCheck.Test.make ~count:200 ~name:"bool_eval_conv agrees with semantics"
    (QCheck.make gen_formula) (fun f ->
      let th = Boolean.bool_eval_conv (f_term f) in
      let _, rhs = Term.dest_eq (Kernel.concl th) in
      Kernel.hyp th = [] && rhs = Boolean.bool_const (f_eval f))

(* ------------------------------------------------------------------ *)
(* Pairs                                                               *)
(* ------------------------------------------------------------------ *)

let test_pairs () =
  let p = Pairs.mk_pair xb (Boolean.mk_neg yb) in
  let thf = Pairs.proj_conv (Pairs.mk_fst p) in
  check "fst" true (Term.aconv (snd (Term.dest_eq (Kernel.concl thf))) xb);
  let ths = Pairs.proj_conv (Pairs.mk_snd p) in
  check "snd" true
    (Term.aconv (snd (Term.dest_eq (Kernel.concl ths)))
       (Boolean.mk_neg yb))

let test_balanced_tuples () =
  let xs = List.init 5 (fun i -> Term.mk_var (Printf.sprintf "a%d" i) Ty.bool) in
  let tup = Pairs.list_mk_pair xs in
  List.iteri
    (fun i x ->
      let proj = Pairs.proj tup i 5 in
      let th = Conv.memo_top_depth_conv Pairs.proj_beta_conv proj in
      Alcotest.(check bool)
        (Printf.sprintf "proj %d" i)
        true
        (Term.aconv (snd (Term.dest_eq (Kernel.concl th))) x))
    xs

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let test_conv_combinators () =
  let tm = Boolean.mk_conj Boolean.t_tm Boolean.f_tm in
  let th =
    Conv.memo_top_depth_conv
      (Conv.rewrs_conv (registered "Boolean.and_clauses"))
      tm
  in
  check "rewrite" true
    (snd (Term.dest_eq (Kernel.concl th)) = Boolean.f_tm);
  let th2 = Conv.try_conv (fun _ -> failwith "no conversion") tm in
  check "try_conv falls back to refl" true
    (Term.aconv (fst (Term.dest_eq (Kernel.concl th2))) tm)

let suite =
  [
    Alcotest.test_case "ty basics" `Quick test_ty_basics;
    Alcotest.test_case "ty subst/match" `Quick test_ty_subst_match;
    Alcotest.test_case "tyvars" `Quick test_tyvars;
    Alcotest.test_case "term typing" `Quick test_term_typing;
    Alcotest.test_case "alpha conversion" `Quick test_aconv;
    Alcotest.test_case "vsubst capture" `Quick test_vsubst_capture;
    Alcotest.test_case "vsubst simultaneous" `Quick test_vsubst_simultaneous;
    Alcotest.test_case "inst renaming" `Quick test_inst_rename;
    Alcotest.test_case "term matching" `Quick test_term_match;
    Alcotest.test_case "refl/trans" `Quick test_refl_trans;
    Alcotest.test_case "assume/eq_mp" `Quick test_assume_eq_mp;
    Alcotest.test_case "abs freeness" `Quick test_abs_freeness;
    Alcotest.test_case "beta" `Quick test_beta;
    Alcotest.test_case "deduct_antisym" `Quick test_deduct;
    Alcotest.test_case "definitions audit" `Quick test_definitions_audit;
    Alcotest.test_case "TRUTH" `Quick test_truth;
    Alcotest.test_case "conj rules" `Quick test_conj_rules;
    Alcotest.test_case "disch/mp" `Quick test_disch_mp;
    Alcotest.test_case "gen/spec" `Quick test_gen_spec;
    Alcotest.test_case "contr" `Quick test_contr;
    Alcotest.test_case "disj" `Quick test_disj;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_bool_eval;
    Alcotest.test_case "pairs" `Quick test_pairs;
    Alcotest.test_case "balanced tuples" `Quick test_balanced_tuples;
    Alcotest.test_case "conv combinators" `Quick test_conv_combinators;
  ]

(* ------------------------------------------------------------------ *)
(* Printer and miscellaneous                                           *)
(* ------------------------------------------------------------------ *)

let test_printer_budget () =
  (* printing a dag whose tree expansion is astronomically large must
     terminate (the printer truncates with "...") *)
  let rec grow t n =
    if n = 0 then t else grow (Boolean.mk_conj t t) (n - 1)
  in
  let big = grow (Term.mk_var "x" Ty.bool) 60 in
  let s = Term.to_string big in
  check "truncated output is finite" true (String.length s < 1_000_000)

(* The printers against the Format printers they replaced
   (test/pp_ref.ml): past the 20 000-node budget, where the output ends
   in the "..." frontier, and on theorems with no, one and two
   hypotheses, each hypothesis with a budget of its own. *)
let test_printer_reference () =
  let rec grow t n =
    if n = 0 then t else grow (Boolean.mk_conj t t) (n - 1)
  in
  let big = grow (Term.mk_var "x" Ty.bool) 60 in
  let s = Term.to_string big in
  check_str "past the budget" (Pp_ref.to_string big) s;
  let rec frontier i =
    i + 3 <= String.length s && (String.sub s i 3 = "..." || frontier (i + 1))
  in
  check "the frontier is printed" true (frontier 0);
  let p = Term.mk_var "p" Ty.bool and q = Term.mk_var "q" Ty.bool in
  List.iter
    (fun th ->
      check_str "theorem" (Pp_ref.string_of_thm th) (Kernel.string_of_thm th))
    [
      Kernel.refl p;
      Kernel.assume (Boolean.mk_conj p q);
      Kernel.deduct_antisym_rule (Kernel.assume p) (Kernel.assume q);
      Kernel.deduct_antisym_rule (Kernel.assume big) (Kernel.assume p);
    ]

let test_prove_hyp () =
  let p = Term.mk_var "p" Ty.bool in
  let th1 = Kernel.assume p in
  (* th1 : {p} |- p ; discharging with |- T should leave it unchanged *)
  let th2 = Boolean.prove_hyp (truth ()) th1 in
  Alcotest.(check int) "hyp unchanged" 1 (List.length (Kernel.hyp th2));
  let th3 = Boolean.prove_hyp (Kernel.assume p) th1 in
  (* {p} |- p discharged with {p} |- p stays {p} |- p *)
  Alcotest.(check int) "still one hyp" 1 (List.length (Kernel.hyp th3))

let test_rule_count_monotone () =
  let before = Kernel.rule_count () in
  ignore (Kernel.refl (Term.mk_var "z" Ty.bool));
  check "counter advances" true (Kernel.rule_count () > before)

let test_mk_const_at () =
  let c = Kernel.mk_const_at "FST" (Ty.fn (Ty.prod Ty.bool Ty.num) Ty.bool) in
  check "instantiated" true
    (Ty.equal (Term.type_of c) (Ty.fn (Ty.prod Ty.bool Ty.num) Ty.bool));
  check "bad instance rejected" true
    (try
       ignore (Kernel.mk_const_at "FST" (Ty.fn Ty.bool Ty.bool));
       false
     with Failure _ -> true)

let test_new_axiom_requires_bool () =
  Alcotest.check_raises "non-boolean axiom"
    (Failure "Kernel.new_axiom: not a proposition") (fun () ->
      ignore (Kernel.new_axiom "BAD" (Term.mk_var "n" Ty.num)))

let suite = suite @ [
    Alcotest.test_case "printer budget" `Quick test_printer_budget;
    Alcotest.test_case "printers agree with their references" `Quick
      test_printer_reference;
    Alcotest.test_case "prove_hyp" `Quick test_prove_hyp;
    Alcotest.test_case "rule counter" `Quick test_rule_count_monotone;
    Alcotest.test_case "mk_const_at" `Quick test_mk_const_at;
    Alcotest.test_case "axioms are propositions" `Quick
      test_new_axiom_requires_bool;
  ]

(* ------------------------------------------------------------------ *)
(* Equational theorems keep their sides                                *)
(* ------------------------------------------------------------------ *)

(* Random derivations: each op applies one rule to pool entries picked
   by index (modulo the pool size).  A rule that rejects its operands is
   skipped, so every pool entry is a theorem the kernel produced.  The
   term pool mixes equations, binders and a type variable, so [assume],
   [eq_mp] and [inst] can yield equational and non-equational
   conclusions alike. *)
type op =
  | O_refl of int
  | O_assume of int
  | O_beta of int
  | O_trans of int * int
  | O_trans_sym of int
  | O_mk_comb of int * int
  | O_ap_term of int
  | O_abs of int * int
  | O_eq_mp of int * int
  | O_refl_alpha of int
  | O_deduct of int * int
  | O_inst of int * int
  | O_inst_type of int

let side_terms =
  lazy
    (let x = Term.mk_var "x" Ty.bool and y = Term.mk_var "y" Ty.bool in
     let z = Term.mk_var "z" Ty.bool in
     let f = Term.mk_var "f" (Ty.fn Ty.bool Ty.bool) in
     let p = Term.mk_var "p" Ty.alpha and q = Term.mk_var "q" Ty.alpha in
     [|
       x; y; z; Term.mk_eq x y; Term.mk_eq y z; Term.mk_comb f x;
       Term.mk_comb (Term.mk_abs x (Term.mk_comb f x)) y;
       Term.mk_abs y (Term.mk_eq x y); Term.mk_eq p q;
       Term.mk_eq
         (Term.mk_abs x (Term.mk_eq x y))
         (Term.mk_abs y (Term.mk_eq y y));
       Boolean.t_tm; f;
     |])

let side_vars = lazy [| Term.mk_var "x" Ty.bool; Term.mk_var "y" Ty.bool |]

(* every binder renamed: alpha-equivalent, physically distinct when the
   term has a binder *)
let rec alpha_variant tm =
  match tm.Term.node with
  | Term.Comb (f, x) -> Term.mk_comb (alpha_variant f) (alpha_variant x)
  | Term.Abs (v, b) ->
      let b = alpha_variant b in
      let w = Term.mk_var "w" (Term.type_of v) in
      let w = Term.variant (v :: Term.frees b) w in
      Term.mk_abs w (Term.vsubst [ (v, w) ] b)
  | _ -> tm

let run_derivation ops =
  let terms = Lazy.force side_terms and vars = Lazy.force side_vars in
  let tm i = terms.(i mod Array.length terms) in
  let pool = ref [||] in
  let th i = !pool.(i mod Array.length !pool) in
  let add f =
    match f () with
    | t -> pool := Array.append !pool [| t |]
    | exception Failure _ -> ()
  in
  add (fun () -> Kernel.refl (tm 0));
  let tyvar = List.hd (Ty.tyvars Ty.alpha) in
  List.iter
    (fun op ->
      add (fun () ->
          match op with
          | O_refl i -> Kernel.refl (tm i)
          | O_assume i -> Kernel.assume (tm i)
          | O_beta i ->
              let v = vars.(i mod 2) in
              Kernel.beta (Term.mk_comb (Term.mk_abs v (tm i)) v)
          | O_trans (i, j) -> Kernel.trans (th i) (th j)
          | O_trans_sym i -> Kernel.trans (th i) (Drule.sym (th i))
          | O_mk_comb (i, j) -> Kernel.mk_comb_rule (th i) (th j)
          | O_ap_term i -> Drule.ap_term (tm 11) (th i)
          | O_abs (v, i) -> Kernel.abs vars.(v mod 2) (th i)
          | O_eq_mp (i, j) -> Kernel.eq_mp (th i) (th j)
          | O_refl_alpha i -> Kernel.refl (alpha_variant (Kernel.concl (th i)))
          | O_deduct (i, j) -> Kernel.deduct_antisym_rule (th i) (th j)
          | O_inst (i, j) ->
              Kernel.inst [ (vars.(j mod 2), tm (j mod 5)) ] (th i)
          | O_inst_type i -> Kernel.inst_type [ (tyvar, Ty.bool) ] (th i)))
    ops;
  !pool

let gen_ops =
  QCheck.Gen.(
    let ix = int_bound 63 in
    list_size (int_range 1 24)
      (oneof
         [
           map (fun i -> O_refl i) ix; map (fun i -> O_assume i) ix;
           map (fun i -> O_beta i) ix; map2 (fun i j -> O_trans (i, j)) ix ix;
           map (fun i -> O_trans_sym i) ix;
           map2 (fun i j -> O_mk_comb (i, j)) ix ix;
           map (fun i -> O_ap_term i) ix; map2 (fun v i -> O_abs (v, i)) ix ix;
           map2 (fun i j -> O_eq_mp (i, j)) ix ix;
           map (fun i -> O_refl_alpha i) ix;
           map2 (fun i j -> O_deduct (i, j)) ix ix;
           map2 (fun i j -> O_inst (i, j)) ix ix;
           map (fun i -> O_inst_type i) ix;
         ]))

let arb_derivation =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map Kernel.string_of_thm (Array.to_list (run_derivation ops))))
    gen_ops

let prop_sides_agree =
  QCheck.Test.make ~count:300 ~name:"equation sides agree with concl"
    arb_derivation (fun ops ->
      Array.for_all
        (fun th ->
          let c = Kernel.concl th in
          if Term.is_eq c then
            let l, r = Term.dest_eq c in
            c == Term.mk_eq (Kernel.lhs th) (Kernel.rhs th)
            && Kernel.lhs th == l && Kernel.rhs th == r
          else
            let fails f = match f th with _ -> false | exception Failure _ -> true in
            fails Kernel.lhs && fails Kernel.rhs)
        (run_derivation ops))

let prop_eq_mp_exact =
  QCheck.Test.make ~count:300
    ~name:"eq_mp accepts exactly when aconv a (concl th2)" arb_derivation
    (fun ops ->
      let pool = run_derivation ops in
      Array.for_all
        (fun th1 ->
          (not (Term.is_eq (Kernel.concl th1)))
          || Array.for_all
               (fun th2 ->
                 let expected =
                   Term.aconv (Kernel.lhs th1) (Kernel.concl th2)
                 in
                 match Kernel.eq_mp th1 th2 with
                 | th -> expected && Kernel.concl th == Kernel.rhs th1
                 | exception Failure _ -> not expected)
               pool)
        pool)

(* The positive and negative cases of the side-wise comparison, pinned
   by hand: an alpha-variant (not physically equal) of an equational
   conclusion is accepted, a different right side is not. *)
let test_eq_mp_alpha_sides () =
  let x = Term.mk_var "x" Ty.bool and y = Term.mk_var "y" Ty.bool in
  let z = Term.mk_var "z" Ty.bool in
  let abs_xy = Term.mk_abs x (Term.mk_eq x y) in
  let th2 = Kernel.refl abs_xy in
  let c' = alpha_variant (Kernel.concl th2) in
  check "variant is not physically equal" true (c' != Kernel.concl th2);
  let th = Kernel.eq_mp (Kernel.refl c') th2 in
  check "accepted, concluding the variant" true (Kernel.concl th == c');
  check "sides of the result" true
    (Term.aconv (Kernel.lhs th) abs_xy && Term.aconv (Kernel.rhs th) abs_xy);
  let other = Term.mk_eq abs_xy (Term.mk_abs x (Term.mk_eq x z)) in
  check "different right side rejected" true
    (match Kernel.eq_mp (Kernel.refl other) th2 with
    | _ -> false
    | exception Failure _ -> true)

let suite =
  suite
  @ [ Alcotest.test_case "eq_mp against an equation's sides" `Quick
        test_eq_mp_alpha_sides ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x51de5 |]))
      [ prop_sides_agree; prop_eq_mp_exact ]
