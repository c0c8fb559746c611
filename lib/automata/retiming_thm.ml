open Hol
open Logic

(* Type abbreviations: input :a, original state :b, output :c, new
   (retimed) state :d. *)

let ia = Ty.alpha
let sb = Ty.beta
let oc = Ty.gamma
let xd = Ty.delta

let f_var = Term.mk_var "f" (Ty.fn sb xd)
let g_var = Term.mk_var "g" (Ty.fn ia (Ty.fn xd (Ty.prod oc sb)))
let q_var = Term.mk_var "q" sb
let i_var = Term.mk_var "i" ia
let s_var = Term.mk_var "s" sb
let inp_var = Term.mk_var "inp" (Ty.fn Ty.num ia)
let t_var = Term.mk_var "t" Ty.num

(* fd1 = \i s. g i (f s) *)
let fd1 =
  Term.list_mk_abs [ i_var; s_var ]
    (Term.list_mk_comb g_var [ i_var; Term.mk_comb f_var s_var ])

(* fd2 = \i x. (FST (g i x), f (SND (g i x)))
   The bound state variable is named "s" (at type :d) so that the
   instantiated right-hand side is binder-for-binder identical to the
   embedding of the retimed netlist — letting the pair-memoised
   alpha-comparison apply during the join step. *)
let fd2 =
  let sx_var = Term.mk_var "s" xd in
  let gix = Term.list_mk_comb g_var [ i_var; sx_var ] in
  Term.list_mk_abs [ i_var; sx_var ]
    (Pairs.mk_pair (Pairs.mk_fst gix)
       (Term.mk_comb f_var (Pairs.mk_snd gix)))

let fq = Term.mk_comb f_var q_var

(* Instantiate STATE_0 / STATE_SUC at a given step function, initial
   state and input stream (and, for STATE_SUC, time). *)
let state_ax_inst ax fd q inp tms =
  let _, s, _ = Theory.automaton_ty fd in
  let th = Kernel.inst_type [ ("b", s) ] ax in
  let fdv = Term.mk_var "fd" (Term.type_of fd) in
  let qv = Term.mk_var "q" s in
  Kernel.inst ((fdv, fd) :: (qv, q) :: (inp_var, inp) :: tms) th

let state1 t = Term.list_mk_comb
    (Theory.state_tm ia sb oc) [ fd1; q_var; inp_var; t ]

let state2 t = Term.list_mk_comb
    (Theory.state_tm ia xd oc) [ fd2; fq; inp_var; t ]

(* Reduce the two outer beta redexes of [(\i x. B) a b]. *)
let beta2_conv =
  Conv.thenc (Conv.rator_conv Drule.beta_conv) Drule.beta_conv

let retiming_thm =
  (* ---- Invariant: !t. state2 t = f (state1 t), by induction ---- *)
  let base =
    let th_a = state_ax_inst Theory.state_0 fd2 fq inp_var [] in
    (* th_a : state fd2 (f q) inp 0 = f q *)
    let th_b =
      Drule.ap_term f_var (state_ax_inst Theory.state_0 fd1 q_var inp_var [])
    in
    (* th_b : f (state fd1 q inp 0) = f q *)
    Kernel.trans th_a (Drule.sym th_b)
  in
  let ih_tm =
    Term.mk_eq (state2 t_var) (Term.mk_comb f_var (state1 t_var))
  in
  let step =
    let ih = Kernel.assume ih_tm in
    (* LHS chain *)
    let s2_suc =
      state_ax_inst Theory.state_suc fd2 fq inp_var [ (t_var, t_var) ]
    in
    (* s2_suc : state2 (SUC t) = SND (fd2 (inp t) (state2 t)) *)
    let c1 =
      Drule.ap_term
        (Kernel.mk_const "SND" [ ("a", oc); ("b", xd) ])
        (Drule.ap_term (Term.mk_comb fd2 (Term.mk_comb inp_var t_var)) ih)
    in
    let c2 =
      Conv.thenc (Conv.rand_conv beta2_conv) Pairs.proj_conv
        (Kernel.rhs c1)
    in
    let lhs_chain = Kernel.trans s2_suc (Kernel.trans c1 c2) in
    (* RHS chain *)
    let s1_suc =
      state_ax_inst Theory.state_suc fd1 q_var inp_var [ (t_var, t_var) ]
    in
    let r1 = Drule.ap_term f_var s1_suc in
    (* r1 : f (state1 (SUC t)) = f (SND (fd1 (inp t) (state1 t))) *)
    let r2 =
      Conv.rand_conv (Conv.rand_conv beta2_conv) (Kernel.rhs r1)
    in
    let rhs_chain = Kernel.trans r1 r2 in
    let concl = Kernel.trans lhs_chain (Drule.sym rhs_chain) in
    Boolean.gen t_var (Boolean.disch ih_tm concl)
  in
  let pred = Term.mk_abs t_var ih_tm in
  let inv = Theory.induct pred base step in
  (* ---- Output equality at every time ---- *)
  let inv_t = Boolean.spec t_var inv in
  let auto1 =
    Term.list_mk_comb (Theory.mk_automaton fd1 q_var) [ inp_var; t_var ]
  in
  let auto2 =
    Term.list_mk_comb (Theory.mk_automaton fd2 fq) [ inp_var; t_var ]
  in
  let o1 =
    Conv.thenc Theory.automaton_expand
      (Conv.rand_conv beta2_conv)
      auto1
  in
  (* o1 : automaton fd1 q inp t = FST (g (inp t) (f (state1 t))) *)
  let o2 =
    let e1 = Theory.automaton_expand auto2 in
    let e2 =
      Drule.ap_term
        (Kernel.mk_const "FST" [ ("a", oc); ("b", xd) ])
        (Drule.ap_term (Term.mk_comb fd2 (Term.mk_comb inp_var t_var)) inv_t)
    in
    let e3 =
      Conv.thenc (Conv.rand_conv beta2_conv) Pairs.proj_conv
        (Kernel.rhs e2)
    in
    Kernel.trans e1 (Kernel.trans e2 e3)
  in
  (* o2 : automaton fd2 (f q) inp t = FST (g (inp t) (f (state1 t))) *)
  let out_eq = Kernel.trans o1 (Drule.sym o2) in
  Theory.ext_rule inp_var (Theory.ext_rule t_var out_eq)

(* ------------------------------------------------------------------ *)
(* Combinational-equivalence theorem                                   *)
(* ------------------------------------------------------------------ *)

let comb_equiv_thm =
  let fdty = Ty.fn ia (Ty.fn sb (Ty.prod oc sb)) in
  let fd1v = Term.mk_var "fd1" fdty in
  let fd2v = Term.mk_var "fd2" fdty in
  let hyp_tm =
    Boolean.mk_forall i_var
      (Boolean.mk_forall s_var
         (Term.mk_eq
            (Term.list_mk_comb fd1v [ i_var; s_var ])
            (Term.list_mk_comb fd2v [ i_var; s_var ])))
  in
  let h = Kernel.assume hyp_tm in
  let st fd t = Term.list_mk_comb
      (Theory.state_tm ia sb oc) [ fd; q_var; inp_var; t ] in
  let base =
    Kernel.trans
      (state_ax_inst Theory.state_0 fd1v q_var inp_var [])
      (Drule.sym (state_ax_inst Theory.state_0 fd2v q_var inp_var []))
  in
  let ih_tm = Term.mk_eq (st fd1v t_var) (st fd2v t_var) in
  let step =
    let ih = Kernel.assume ih_tm in
    let it = Term.mk_comb inp_var t_var in
    let s1_suc =
      state_ax_inst Theory.state_suc fd1v q_var inp_var [ (t_var, t_var) ]
    in
    let s2_suc =
      state_ax_inst Theory.state_suc fd2v q_var inp_var [ (t_var, t_var) ]
    in
    let sndc = Kernel.mk_const "SND" [ ("a", oc); ("b", sb) ] in
    let c1 =
      Drule.ap_term sndc (Drule.ap_term (Term.mk_comb fd1v it) ih)
    in
    (* c1 : SND (fd1 (inp t) (st1 t)) = SND (fd1 (inp t) (st2 t)) *)
    let happ = Boolean.spec (st fd2v t_var) (Boolean.spec it h) in
    let c2 = Drule.ap_term sndc happ in
    (* c2 : SND (fd1 (inp t) (st2 t)) = SND (fd2 (inp t) (st2 t)) *)
    let chain =
      Kernel.trans s1_suc
        (Kernel.trans c1 (Kernel.trans c2 (Drule.sym s2_suc)))
    in
    Boolean.gen t_var (Boolean.disch ih_tm chain)
  in
  let pred = Term.mk_abs t_var ih_tm in
  let inv = Theory.induct pred base step in
  let inv_t = Boolean.spec t_var inv in
  let it = Term.mk_comb inp_var t_var in
  let auto fd = Term.list_mk_comb
      (Theory.mk_automaton fd q_var) [ inp_var; t_var ] in
  let fstc = Kernel.mk_const "FST" [ ("a", oc); ("b", sb) ] in
  let o1 =
    let e1 = Theory.automaton_expand (auto fd1v) in
    let e2 = Drule.ap_term fstc (Drule.ap_term (Term.mk_comb fd1v it) inv_t) in
    let happ = Boolean.spec (st fd2v t_var) (Boolean.spec it h) in
    let e3 = Drule.ap_term fstc happ in
    Kernel.trans e1 (Kernel.trans e2 e3)
  in
  (* o1 : automaton fd1 q inp t = FST (fd2 (inp t) (st2 t)) *)
  let o2 = Theory.automaton_expand (auto fd2v) in
  let out_eq = Kernel.trans o1 (Drule.sym o2) in
  Theory.ext_rule inp_var (Theory.ext_rule t_var out_eq)

(* Both theorems are derived once at module init; publish them so proof
   recording can reference them by name and the certificate checker —
   which links this module and re-derives them — can verify the
   sequents. *)
let () =
  Kernel.register_theorem "Retiming_thm.retiming_thm" retiming_thm;
  Kernel.register_theorem "Retiming_thm.comb_equiv_thm" comb_equiv_thm
