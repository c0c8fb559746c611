type thm = Kernel.thm

let bool = Ty.bool
let bb = Ty.fn bool bool
let bbb = Ty.fn bool bb

(* ------------------------------------------------------------------ *)
(* T                                                                   *)
(* ------------------------------------------------------------------ *)

let p_var = Term.mk_var "p" bool
let q_var = Term.mk_var "q" bool
let id_bool = Term.mk_abs p_var p_var

let t_def =
  Kernel.new_basic_definition
    (Term.mk_eq (Term.mk_var "T" bool) (Term.mk_eq id_bool id_bool))

let t_tm = Kernel.mk_const "T" []

let truth =
  Kernel.eq_mp (Drule.sym t_def) (Kernel.refl id_bool)

let eqt_elim th = Kernel.eq_mp (Drule.sym th) truth
let eqt_intro th = Kernel.deduct_antisym_rule th truth

(* ------------------------------------------------------------------ *)
(* /\                                                                  *)
(* ------------------------------------------------------------------ *)

let f_var = Term.mk_var "f" bbb

let and_def =
  (* /\ = \p q. (\f. f p q) = (\f. f T T) *)
  let lhs = Term.mk_abs f_var (Term.list_mk_comb f_var [ p_var; q_var ]) in
  let rhs = Term.mk_abs f_var (Term.list_mk_comb f_var [ t_tm; t_tm ]) in
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "/\\" bbb)
       (Term.list_mk_abs [ p_var; q_var ] (Term.mk_eq lhs rhs)))

let and_tm = Kernel.mk_const "/\\" []
let mk_conj p q = Term.list_mk_comb and_tm [ p; q ]

let beta_redex_conv tm = Drule.beta_conv tm

(* [|- op a b = <definition unfolded and beta-reduced>] for a binary
   logical constant applied to two arguments. *)
let expand2 def tm =
  Conv.thenc
    (Conv.rator_conv (Conv.rator_conv (Conv.rewr_conv def)))
    (Conv.thenc
       (Conv.rator_conv beta_redex_conv)
       beta_redex_conv)
    tm

let conj th1 th2 =
  let p = Kernel.concl th1 and q = Kernel.concl th2 in
  let f =
    Term.variant
      (Term.frees p @ Term.frees q
      @ List.concat_map Term.frees (Kernel.hyp th1)
      @ List.concat_map Term.frees (Kernel.hyp th2))
      f_var
  in
  let th =
    Kernel.abs f
      (Kernel.mk_comb_rule
         (Drule.ap_term f (eqt_intro th1))
         (eqt_intro th2))
  in
  let expand = expand2 and_def (mk_conj p q) in
  Kernel.eq_mp (Drule.sym expand) th

let select_fst = Term.list_mk_abs [ p_var; q_var ] p_var
let select_snd = Term.list_mk_abs [ p_var; q_var ] q_var

let conjunct_sel sel th =
  let pq = Kernel.concl th in
  let expand = expand2 and_def pq in
  let th1 = Kernel.eq_mp expand th in
  (* th1 : |- (\f. f p q) = (\f. f T T) *)
  let th2 = Drule.ap_thm th1 sel in
  let reduce =
    Conv.thenc beta_redex_conv
      (Conv.thenc (Conv.rator_conv beta_redex_conv) beta_redex_conv)
  in
  let th3 =
    Kernel.trans
      (Kernel.trans (Drule.sym (reduce (Kernel.lhs th2))) th2)
      (reduce (Kernel.rhs th2))
  in
  eqt_elim th3

let conjunct1 th = conjunct_sel select_fst th
let conjunct2 th = conjunct_sel select_snd th

(* ------------------------------------------------------------------ *)
(* ==>                                                                 *)
(* ------------------------------------------------------------------ *)

let imp_def =
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "==>" bbb)
       (Term.list_mk_abs [ p_var; q_var ]
          (Term.mk_eq (mk_conj p_var q_var) p_var)))

let imp_tm = Kernel.mk_const "==>" []
let mk_imp p q = Term.list_mk_comb imp_tm [ p; q ]

let dest_imp tm =
  match tm.Term.node with
  | Term.Comb
      ( { Term.node = Term.Comb ({ Term.node = Term.Const ("==>", _); _ }, p); _ },
        q ) ->
      (p, q)
  | _ -> failwith "Boolean.dest_imp"

let mp thi th =
  let p, q = dest_imp (Kernel.concl thi) in
  if not (Term.aconv p (Kernel.concl th)) then
    failwith "Boolean.mp: antecedent does not match"
  else
    let expand = expand2 imp_def (mk_imp p q) in
    let th1 = Kernel.eq_mp expand thi in
    (* th1 : |- p /\ q = p *)
    conjunct2 (Kernel.eq_mp (Drule.sym th1) th)

let disch p th =
  let q = Kernel.concl th in
  let th1 = conj (Kernel.assume p) th in
  let th2 = conjunct1 (Kernel.assume (mk_conj p q)) in
  let deq = Kernel.deduct_antisym_rule th1 th2 in
  (* deq : |- (p /\ q) = p  with hyps A - {p} *)
  let expand = expand2 imp_def (mk_imp p q) in
  Kernel.eq_mp (Drule.sym expand) deq

let undisch th =
  let p, _ = dest_imp (Kernel.concl th) in
  mp th (Kernel.assume p)

let prove_hyp th1 th2 =
  if List.exists (Term.aconv (Kernel.concl th1)) (Kernel.hyp th2) then
    Kernel.eq_mp (Kernel.deduct_antisym_rule th1 th2) th1
  else th2

(* ------------------------------------------------------------------ *)
(* !                                                                   *)
(* ------------------------------------------------------------------ *)

let forall_def =
  let pty = Ty.fn Ty.alpha bool in
  let pv = Term.mk_var "P" pty in
  let x = Term.mk_var "x" Ty.alpha in
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "!" (Ty.fn pty bool))
       (Term.mk_abs pv (Term.mk_eq pv (Term.mk_abs x t_tm))))

let mk_forall x p =
  let xty = snd (Term.dest_var x) in
  Term.mk_comb
    (Kernel.mk_const "!" [ ("a", xty) ])
    (Term.mk_abs x p)

let dest_forall tm =
  match tm.Term.node with
  | Term.Comb
      ( { Term.node = Term.Const ("!", _); _ },
        { Term.node = Term.Abs (v, b); _ } ) ->
      (v, b)
  | _ -> failwith "Boolean.dest_forall"

let expand1 def tm =
  Conv.thenc (Conv.rator_conv (Conv.rewr_conv def)) beta_redex_conv tm

let gen x th =
  let p = Kernel.concl th in
  let ath = Kernel.abs x (eqt_intro th) in
  (* ath : |- (\x. p) = (\x. T) *)
  let expand = expand1 forall_def (mk_forall x p) in
  Kernel.eq_mp (Drule.sym expand) ath

let gen_all xs th = List.fold_right gen xs th

let spec t th =
  let x, body = dest_forall (Kernel.concl th) in
  ignore x;
  ignore body;
  let th1 = Conv.conv_rule (expand1 forall_def) th in
  (* th1 : |- (\x. p) = (\x. T) *)
  let th2 = Drule.ap_thm th1 t in
  let th3 =
    Kernel.trans
      (Kernel.trans (Drule.sym (beta_redex_conv (Kernel.lhs th2))) th2)
      (beta_redex_conv (Kernel.rhs th2))
  in
  eqt_elim th3

let spec_all ts th = List.fold_left (fun th t -> spec t th) th ts

(* ------------------------------------------------------------------ *)
(* F and ~                                                             *)
(* ------------------------------------------------------------------ *)

let f_def =
  Kernel.new_basic_definition
    (Term.mk_eq (Term.mk_var "F" bool) (mk_forall p_var p_var))

let f_tm = Kernel.mk_const "F" []
let bool_const b = if b then t_tm else f_tm

let contr p th =
  if not (Term.aconv (Kernel.concl th) f_tm) then
    failwith "Boolean.contr: theorem is not |- F"
  else
    let th1 = Kernel.eq_mp f_def th in
    spec p th1

let not_def =
  Kernel.new_basic_definition
    (Term.mk_eq (Term.mk_var "~" bb)
       (Term.mk_abs p_var (mk_imp p_var f_tm)))

let not_tm = Kernel.mk_const "~" []
let mk_neg p = Term.mk_comb not_tm p

(* ------------------------------------------------------------------ *)
(* \/                                                                  *)
(* ------------------------------------------------------------------ *)

let or_def =
  let r = Term.mk_var "r" bool in
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "\\/" bbb)
       (Term.list_mk_abs [ p_var; q_var ]
          (mk_forall r
             (mk_imp (mk_imp p_var r) (mk_imp (mk_imp q_var r) r)))))

let or_tm = Kernel.mk_const "\\/" []
let mk_disj p q = Term.list_mk_comb or_tm [ p; q ]

let disj1 th q =
  let p = Kernel.concl th in
  let r =
    Term.variant
      (Term.frees p @ Term.frees q
      @ List.concat_map Term.frees (Kernel.hyp th))
      (Term.mk_var "r" bool)
  in
  let pr = mk_imp p r and qr = mk_imp q r in
  let body = disch pr (disch qr (mp (Kernel.assume pr) th)) in
  let thg = gen r body in
  let expand = expand2 or_def (mk_disj p q) in
  Kernel.eq_mp (Drule.sym expand) thg

let disj2 p th =
  let q = Kernel.concl th in
  let r =
    Term.variant
      (Term.frees p @ Term.frees q
      @ List.concat_map Term.frees (Kernel.hyp th))
      (Term.mk_var "r" bool)
  in
  let pr = mk_imp p r and qr = mk_imp q r in
  let body = disch pr (disch qr (mp (Kernel.assume qr) th)) in
  let thg = gen r body in
  let expand = expand2 or_def (mk_disj p q) in
  Kernel.eq_mp (Drule.sym expand) thg

(* ------------------------------------------------------------------ *)
(* XOR                                                                 *)
(* ------------------------------------------------------------------ *)

let xor_def =
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "XOR" bbb)
       (Term.list_mk_abs [ p_var; q_var ]
          (mk_neg (Term.mk_eq p_var q_var))))

let xor_tm = Kernel.mk_const "XOR" []
let mk_xor p q = Term.list_mk_comb xor_tm [ p; q ]

(* ------------------------------------------------------------------ *)
(* COND (audited axioms)                                               *)
(* ------------------------------------------------------------------ *)

let () =
  Kernel.new_constant "COND"
    (Ty.fn bool (Ty.fn Ty.alpha (Ty.fn Ty.alpha Ty.alpha)))

let cond_tm ty = Kernel.mk_const "COND" [ ("a", ty) ]

let mk_cond b x y =
  Term.list_mk_comb (cond_tm (Term.type_of x)) [ b; x; y ]

let x_a = Term.mk_var "x" Ty.alpha
let y_a = Term.mk_var "y" Ty.alpha

let cond_t_ax =
  Kernel.new_axiom "COND_T" (Term.mk_eq (mk_cond t_tm x_a y_a) x_a)

let cond_f_ax =
  Kernel.new_axiom "COND_F" (Term.mk_eq (mk_cond f_tm x_a y_a) y_a)

let cond_clauses = [ cond_t_ax; cond_f_ax ]

(* ------------------------------------------------------------------ *)
(* Evaluation clauses                                                  *)
(* ------------------------------------------------------------------ *)

(* |- (T /\ t) = t *)
let and_t_left =
  let t = Term.mk_var "t" bool in
  Kernel.deduct_antisym_rule
    (conj truth (Kernel.assume t))
    (conjunct2 (Kernel.assume (mk_conj t_tm t)))

(* |- (t /\ T) = t *)
let and_t_right =
  let t = Term.mk_var "t" bool in
  Kernel.deduct_antisym_rule
    (conj (Kernel.assume t) truth)
    (conjunct1 (Kernel.assume (mk_conj t t_tm)))

(* |- (F /\ t) = F *)
let and_f_left =
  let t = Term.mk_var "t" bool in
  Kernel.deduct_antisym_rule
    (conj (Kernel.assume f_tm) (contr t (Kernel.assume f_tm)))
    (conjunct1 (Kernel.assume (mk_conj f_tm t)))

(* |- (t /\ F) = F *)
let and_f_right =
  let t = Term.mk_var "t" bool in
  Kernel.deduct_antisym_rule
    (conj (contr t (Kernel.assume f_tm)) (Kernel.assume f_tm))
    (conjunct2 (Kernel.assume (mk_conj t f_tm)))

let and_clauses = [ and_t_left; and_t_right; and_f_left; and_f_right ]

(* |- (T \/ t) = T and |- (t \/ T) = T via EQT_INTRO of the disjunction *)
let or_t_left =
  let t = Term.mk_var "t" bool in
  eqt_intro (disj1 truth t)

let or_t_right =
  let t = Term.mk_var "t" bool in
  eqt_intro (disj2 t truth)

(* |- (F \/ F) = F *)
let or_f_f =
  let ff = mk_disj f_tm f_tm in
  let fwd =
    let th1 = Kernel.eq_mp (expand2 or_def ff) (Kernel.assume ff) in
    let th2 = spec f_tm th1 in
    let ff_imp = disch f_tm (Kernel.assume f_tm) in
    mp (mp th2 ff_imp) ff_imp
  in
  let bwd = disj1 (Kernel.assume f_tm) f_tm in
  Kernel.deduct_antisym_rule bwd fwd

(* |- (F \/ t) = t *)
let or_f_left =
  let t = Term.mk_var "t" bool in
  let ft = mk_disj f_tm t in
  let fwd =
    let th1 = Kernel.eq_mp (expand2 or_def ft) (Kernel.assume ft) in
    let th2 = spec t th1 in
    let f_imp = disch f_tm (contr t (Kernel.assume f_tm)) in
    let t_imp = disch t (Kernel.assume t) in
    mp (mp th2 f_imp) t_imp
  in
  let bwd = disj2 f_tm (Kernel.assume t) in
  Kernel.deduct_antisym_rule bwd fwd

(* |- (t \/ F) = t *)
let or_f_right =
  let t = Term.mk_var "t" bool in
  let tf = mk_disj t f_tm in
  let fwd =
    let th1 = Kernel.eq_mp (expand2 or_def tf) (Kernel.assume tf) in
    let th2 = spec t th1 in
    let f_imp = disch f_tm (contr t (Kernel.assume f_tm)) in
    let t_imp = disch t (Kernel.assume t) in
    mp (mp th2 t_imp) f_imp
  in
  let bwd = disj1 (Kernel.assume t) f_tm in
  Kernel.deduct_antisym_rule bwd fwd

let or_clauses = [ or_t_left; or_t_right; or_f_left; or_f_right; or_f_f ]

(* |- (T = t) = t *)
let eq_t_left =
  let t = Term.mk_var "t" bool in
  let tt = Term.mk_eq t_tm t in
  Kernel.deduct_antisym_rule
    (Drule.sym (eqt_intro (Kernel.assume t)))
    (Kernel.eq_mp (Kernel.assume tt) truth)

(* |- (F = F) = T *)
let eq_f_f = eqt_intro (Kernel.refl f_tm)

(* |- (T = F) = F *)
let eq_t_f =
  let tf = Term.mk_eq t_tm f_tm in
  Kernel.deduct_antisym_rule
    (contr tf (Kernel.assume f_tm))
    (Kernel.eq_mp (Kernel.assume tf) truth)

(* |- (F = T) = F *)
let eq_f_t =
  let ft = Term.mk_eq f_tm t_tm in
  Kernel.deduct_antisym_rule
    (contr ft (Kernel.assume f_tm))
    (Kernel.eq_mp (Drule.sym (Kernel.assume ft)) truth)

let eq_bool_clauses = [ eq_t_left; eq_f_f; eq_t_f; eq_f_t ]

(* |- ~T = F and |- ~F = T *)
let not_expand tm = expand1 not_def tm

let not_t =
  let nt = mk_neg t_tm in
  let fwd = mp (Kernel.eq_mp (not_expand nt) (Kernel.assume nt)) truth in
  let bwd =
    Kernel.eq_mp (Drule.sym (not_expand nt))
      (disch t_tm (Kernel.assume f_tm))
  in
  Kernel.deduct_antisym_rule bwd fwd

let not_f =
  let nf = mk_neg f_tm in
  eqt_intro
    (Kernel.eq_mp (Drule.sym (not_expand nf))
       (disch f_tm (Kernel.assume f_tm)))

let not_clauses = [ not_t; not_f ]

(* Ground XOR clauses by unfolding the definition then evaluating the
   resulting boolean equality and negation. *)
let xor_clause a b =
  let tm = mk_xor (bool_const a) (bool_const b) in
  Conv.thenc (expand2 xor_def)
    (Conv.thenc
       (Conv.rand_conv (Conv.rewrs_conv eq_bool_clauses))
       (Conv.try_conv (Conv.rewrs_conv not_clauses)))
    tm

let xor_clauses =
  [ xor_clause true true; xor_clause true false;
    xor_clause false true; xor_clause false false ]

(* ------------------------------------------------------------------ *)
(* Ground evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let eval_rewrites =
  and_clauses @ or_clauses @ not_clauses @ xor_clauses @ eq_bool_clauses
  @ cond_clauses

(* Partial application: one memo table, shared within each step. *)
let bool_eval_conv = Conv.memo_top_depth_conv (Conv.rewrs_conv eval_rewrites)

(* Publish the derived theorems proof recording may meet as inputs
   (everything above was proved at module init, before any trace can
   start), under stable names an independent checker re-derives and
   verifies.  The COND clauses are axioms and resolve as such. *)
let () =
  let reg prefix ths =
    List.iteri
      (fun i th ->
        Kernel.register_theorem (Printf.sprintf "%s.%d" prefix i) th)
      ths
  in
  Kernel.register_theorem "Boolean.truth" truth;
  reg "Boolean.and_clauses" and_clauses;
  reg "Boolean.or_clauses" or_clauses;
  reg "Boolean.eq_bool_clauses" eq_bool_clauses;
  reg "Boolean.not_clauses" not_clauses;
  reg "Boolean.xor_clauses" xor_clauses
