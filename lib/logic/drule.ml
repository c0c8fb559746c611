open Hol

type thm = Kernel.thm

let sym th =
  let l = Kernel.lhs th in
  let eq_fn = Term.eq_const (Term.type_of l) in
  let lth = Kernel.refl l in
  Kernel.eq_mp
    (Kernel.mk_comb_rule (Kernel.mk_comb_rule (Kernel.refl eq_fn) th) lth)
    lth

let ap_term f th = Kernel.mk_comb_rule (Kernel.refl f) th
let ap_thm th x = Kernel.mk_comb_rule th (Kernel.refl x)
let alpha_link t1 t2 = Kernel.trans (Kernel.refl t1) (Kernel.refl t2)

let beta_conv tm =
  match tm.Term.node with
  | Term.Comb ({ Term.node = Term.Abs (v, _); _ }, arg) when arg == v ->
      Kernel.beta tm
  | Term.Comb (({ Term.node = Term.Abs (v, _); _ } as f), arg) ->
      let th = Kernel.beta (Term.mk_comb f v) in
      Kernel.inst [ (v, arg) ] th
  | _ -> failwith "Drule.beta_conv: not a beta-redex"
