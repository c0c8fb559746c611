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

(* RETIMING_THM at [f := enc], [g := \i x. fd i (dec x)], beta-normal:
   |- automaton (\i s. fd i (dec (enc s))) q
      = automaton (\i s. (FST (fd i (dec s)), enc (SND (fd i (dec s)))))
                  (enc q)
   Its right side is already ENCODE_THM's. *)
let retimed =
  let x = Term.mk_var "x" xd in
  let g =
    Term.list_mk_abs [ i_var; x ]
      (Term.list_mk_comb fd_var [ i_var; Term.mk_comb dec_var x ])
  in
  let f_var = Term.mk_var "f" (Ty.fn sb xd) in
  let g_var = Term.mk_var "g" (Term.type_of g) in
  Conv.conv_rule Theory.beta_norm_conv
    (Kernel.inst [ (f_var, enc_var); (g_var, g) ] Retiming_thm.retiming_thm)

let encode_thm =
  (* hypothesis: !s. dec (enc s) = s *)
  let hyp_tm =
    Boolean.mk_forall s_var
      (Term.mk_eq
         (Term.mk_comb dec_var (Term.mk_comb enc_var s_var))
         s_var)
  in
  let h = Boolean.spec s_var (Kernel.assume hyp_tm) in
  (* fd_eq : (\i s. fd i (dec (enc s))) = fd *)
  let fd_eq =
    let fd1, _ = Theory.dest_automaton (Kernel.lhs retimed) in
    let app = Theory.beta_norm_conv (Term.list_mk_comb fd1 [ i_var; s_var ]) in
    let th = Kernel.trans app (Drule.ap_term (Term.mk_comb fd_var i_var) h) in
    Theory.ext_rule i_var (Theory.ext_rule s_var th)
  in
  let auto_eq =
    Drule.ap_thm (Drule.ap_term (Theory.automaton_tm ia sb oc) fd_eq) q_var
  in
  Kernel.trans (Drule.sym auto_eq) retimed
