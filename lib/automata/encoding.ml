open Hol
open Logic

(* Types: input :a, original state :b, output :c, encoded state :d. *)
let ia = Ty.alpha
let sb = Ty.beta
let oc = Ty.gamma
let xd = Ty.delta

let fd_var = Term.mk_var "fd" (Ty.fn ia (Ty.fn sb (Ty.prod oc sb)))
let enc_var = Term.mk_var "enc" (Ty.fn sb xd)
let dec_var = Term.mk_var "dec" (Ty.fn xd sb)
let q_var = Term.mk_var "q" sb
let i_var = Term.mk_var "i" ia
let s_var = Term.mk_var "s" sb
let inp_var = Term.mk_var "inp" (Ty.fn Ty.num ia)
let t_var = Term.mk_var "t" Ty.num

(* fd2 = \i s:d. (FST (fd i (dec s)), enc (SND (fd i (dec s))))
   (binder named "s" for the same reason as in Retiming_thm) *)
let fd2 =
  let sx = Term.mk_var "s" xd in
  let body =
    Term.list_mk_comb fd_var [ i_var; Term.mk_comb dec_var sx ]
  in
  Term.list_mk_abs [ i_var; sx ]
    (Pairs.mk_pair (Pairs.mk_fst body)
       (Term.mk_comb enc_var (Pairs.mk_snd body)))

let encq = Term.mk_comb enc_var q_var

let state_ax_inst ax fd q inp tms =
  let _, s, _ = Theory.automaton_ty fd in
  let th = Kernel.inst_type [ ("b", s) ] ax in
  let fdv = Term.mk_var "fd" (Term.type_of fd) in
  let qv = Term.mk_var "q" s in
  Kernel.inst ((fdv, fd) :: (qv, q) :: (inp_var, inp) :: tms) th

let state1 t =
  Term.list_mk_comb (Theory.state_tm ia sb oc) [ fd_var; q_var; inp_var; t ]

let state2 t =
  Term.list_mk_comb (Theory.state_tm ia xd oc) [ fd2; encq; inp_var; t ]

let beta2_conv =
  Conv.thenc (Conv.rator_conv Drule.beta_conv) Drule.beta_conv

let encode_thm =
  (* hypothesis: !s. dec (enc s) = s *)
  let hyp_tm =
    Boolean.mk_forall s_var
      (Term.mk_eq
         (Term.mk_comb dec_var (Term.mk_comb enc_var s_var))
         s_var)
  in
  let h = Kernel.assume hyp_tm in
  (* ---- invariant: !t. state2 t = enc (state1 t) ---- *)
  let base =
    let th_a = state_ax_inst Theory.state_0 fd2 encq inp_var [] in
    let th_b =
      Drule.ap_term enc_var
        (state_ax_inst Theory.state_0 fd_var q_var inp_var [])
    in
    Kernel.trans th_a (Drule.sym th_b)
  in
  let ih_tm =
    Term.mk_eq (state2 t_var) (Term.mk_comb enc_var (state1 t_var))
  in
  let it = Term.mk_comb inp_var t_var in
  (* SND (fd2 (inp t) (enc st1)) reduced:
     = enc (SND (fd (inp t) (dec (enc st1))))
     = enc (SND (fd (inp t) st1))                    [by H]            *)
  let reduce_fd2 tm =
    (* tm = PROJ (fd2 (inp t) (enc st1)); beta-reduce the fd2 application
       and collapse [dec (enc st1)] with the hypothesis *)
    let th1 = Conv.rand_conv beta2_conv tm in
    let hst = Boolean.spec (state1 t_var) h in
    let th2 =
      Conv.once_depth_conv (Conv.rewr_conv hst) (Kernel.rhs th1)
    in
    Kernel.trans th1 th2
  in
  let step =
    let ih = Kernel.assume ih_tm in
    let s2_suc =
      state_ax_inst Theory.state_suc fd2 encq inp_var [ (t_var, t_var) ]
    in
    let c1 =
      Drule.ap_term
        (Kernel.mk_const "SND" [ ("a", oc); ("b", xd) ])
        (Drule.ap_term (Term.mk_comb fd2 it) ih)
    in
    let c2a = reduce_fd2 (Kernel.rhs c1) in
    let c2b = Pairs.proj_conv (Kernel.rhs c2a) in
    let lhs_chain =
      Kernel.trans s2_suc (Kernel.trans c1 (Kernel.trans c2a c2b))
    in
    (* rhs: enc (state1 (SUC t)) = enc (SND (fd (inp t) (state1 t))) *)
    let s1_suc =
      state_ax_inst Theory.state_suc fd_var q_var inp_var [ (t_var, t_var) ]
    in
    let rhs_chain = Drule.ap_term enc_var s1_suc in
    let concl = Kernel.trans lhs_chain (Drule.sym rhs_chain) in
    Boolean.gen t_var (Boolean.disch ih_tm concl)
  in
  let pred = Term.mk_abs t_var ih_tm in
  let inv = Theory.induct pred base step in
  (* ---- outputs ---- *)
  let inv_t = Boolean.spec t_var inv in
  let auto1 =
    Term.list_mk_comb (Theory.mk_automaton fd_var q_var) [ inp_var; t_var ]
  in
  let auto2 =
    Term.list_mk_comb (Theory.mk_automaton fd2 encq) [ inp_var; t_var ]
  in
  let o1 = Theory.automaton_expand auto1 in
  (* o1 : automaton fd q inp t = FST (fd (inp t) (state1 t)) *)
  let o2 =
    let e1 = Theory.automaton_expand auto2 in
    let e2 =
      Drule.ap_term
        (Kernel.mk_const "FST" [ ("a", oc); ("b", xd) ])
        (Drule.ap_term (Term.mk_comb fd2 it) inv_t)
    in
    let e3a = reduce_fd2 (Kernel.rhs e2) in
    let e3b = Pairs.proj_conv (Kernel.rhs e3a) in
    Kernel.trans e1 (Kernel.trans e2 (Kernel.trans e3a e3b))
  in
  (* o2 : automaton fd2 (enc q) inp t = FST (fd (inp t) (state1 t)) *)
  let out_eq = Kernel.trans o1 (Drule.sym o2) in
  Theory.ext_rule inp_var (Theory.ext_rule t_var out_eq)
