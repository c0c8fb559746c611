open Hol
open Logic

type thm = Kernel.thm

(* ------------------------------------------------------------------ *)
(* num and induction                                                   *)
(* ------------------------------------------------------------------ *)

let () = Kernel.new_type "num" 0

let () =
  Kernel.new_constant "0" Ty.num;
  Kernel.new_constant "SUC" (Ty.fn Ty.num Ty.num)

let zero_tm = Kernel.mk_const "0" []
let suc_tm = Kernel.mk_const "SUC" []
let mk_suc t = Term.mk_comb suc_tm t

let num_induction =
  let pv = Term.mk_var "P" (Ty.fn Ty.num Ty.bool) in
  let n = Term.mk_var "n" Ty.num in
  let p0 = Term.mk_comb pv zero_tm in
  let pn = Term.mk_comb pv n in
  let psn = Term.mk_comb pv (mk_suc n) in
  Kernel.new_axiom "NUM_INDUCTION"
    (Boolean.mk_forall pv
       (Boolean.mk_imp
          (Boolean.mk_conj p0
             (Boolean.mk_forall n (Boolean.mk_imp pn psn)))
          (Boolean.mk_forall n pn)))

let eta_ax =
  let t = Term.mk_var "t" (Ty.fn Ty.alpha Ty.beta) in
  let x = Term.mk_var "x" Ty.alpha in
  Kernel.new_axiom "ETA_AX"
    (Term.mk_eq (Term.mk_abs x (Term.mk_comb t x)) t)

let beta_norm_conv =
  Conv.memo_top_depth_conv (fun tm ->
      match tm.Term.node with
      | Term.Comb ({ Term.node = Term.Abs (_, _); _ }, _) ->
          Drule.beta_conv tm
      | _ -> failwith "beta_norm_conv: no redex")

let induct pred base step =
  let th1 = Boolean.spec pred num_induction in
  (* th1 : |- P 0 /\ (!n. P n ==> P (SUC n)) ==> !n. P n  with beta redexes *)
  let th2 = Conv.conv_rule beta_norm_conv th1 in
  Boolean.mp th2 (Boolean.conj base step)

let ext_rule x th =
  let fx = Kernel.lhs th and gx = Kernel.rhs th in
  let f = Term.rator fx and g = Term.rator gx in
  if Term.free_in x f || Term.free_in x g then
    failwith "Theory.ext_rule: variable free in function"
  else
    let ath = Kernel.abs x th in
    (* ath : |- (\x. f x) = (\x. g x) *)
    let eta_f = Conv.rewr_conv eta_ax (Kernel.lhs ath) in
    let eta_g = Conv.rewr_conv eta_ax (Kernel.rhs ath) in
    Kernel.trans (Kernel.trans (Drule.sym eta_f) ath) eta_g

(* ------------------------------------------------------------------ *)
(* state and automaton                                                 *)
(* ------------------------------------------------------------------ *)

(* state : (i -> s -> o#s) -> s -> (num -> i) -> num -> s
   with i = :a, s = :b, o = :c *)

let fd_ty = Ty.fn Ty.alpha (Ty.fn Ty.beta (Ty.prod Ty.gamma Ty.beta))

let () =
  Kernel.new_constant "state"
    (Ty.fn fd_ty (Ty.fn Ty.beta (Ty.fn (Ty.fn Ty.num Ty.alpha) (Ty.fn Ty.num Ty.beta))))

let inst3 i s o = [ ("a", i); ("b", s); ("c", o) ]
let state_tm i s o = Kernel.mk_const "state" (inst3 i s o)

let fd_var = Term.mk_var "fd" fd_ty
let q_var = Term.mk_var "q" Ty.beta
let inp_var = Term.mk_var "inp" (Ty.fn Ty.num Ty.alpha)
let t_var = Term.mk_var "t" Ty.num

let state_app fd q inp t =
  let i, rest = Ty.dest_fn (Term.type_of fd) in
  let s, os = Ty.dest_fn rest in
  let o = fst (Ty.dest_prod os) in
  Term.list_mk_comb (state_tm i s o) [ fd; q; inp; t ]

let state_0 =
  Kernel.new_axiom "STATE_0"
    (Term.mk_eq (state_app fd_var q_var inp_var zero_tm) q_var)

let state_suc =
  let st = state_app fd_var q_var inp_var t_var in
  Kernel.new_axiom "STATE_SUC"
    (Term.mk_eq
       (state_app fd_var q_var inp_var (mk_suc t_var))
       (Pairs.mk_snd
          (Term.list_mk_comb fd_var [ Term.mk_comb inp_var t_var; st ])))

let automaton_def =
  let st = state_app fd_var q_var inp_var t_var in
  let body =
    Pairs.mk_fst
      (Term.list_mk_comb fd_var [ Term.mk_comb inp_var t_var; st ])
  in
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "automaton"
          (Ty.fn fd_ty
             (Ty.fn Ty.beta (Ty.fn (Ty.fn Ty.num Ty.alpha) (Ty.fn Ty.num Ty.gamma)))))
       (Term.list_mk_abs [ fd_var; q_var; inp_var; t_var ] body))

let automaton_tm i s o = Kernel.mk_const "automaton" (inst3 i s o)

let automaton_ty fd =
  let i, rest = Ty.dest_fn (Term.type_of fd) in
  let s, os = Ty.dest_fn rest in
  let o = fst (Ty.dest_prod os) in
  (i, s, o)

let mk_automaton fd q =
  let i, s, o = automaton_ty fd in
  Term.list_mk_comb (automaton_tm i s o) [ fd; q ]

let dest_automaton tm =
  match tm.Term.node with
  | Term.Comb
      ( {
          Term.node = Term.Comb ({ Term.node = Term.Const ("automaton", _); _ }, fd);
          _;
        },
        q ) ->
      (fd, q)
  | _ -> failwith "Theory.dest_automaton"

let automaton_expand tm =
  match (fst (Term.strip_comb tm)).Term.node, snd (Term.strip_comb tm) with
  | Term.Const ("automaton", _), [ _; _; _; _ ] ->
      let path4 c = Conv.rator_conv (Conv.rator_conv (Conv.rator_conv c)) in
      Conv.thenc
        (path4 (Conv.rator_conv (Conv.rewr_conv automaton_def)))
        (Conv.thenc
           (path4 Drule.beta_conv)
           (Conv.thenc
              (Conv.rator_conv (Conv.rator_conv Drule.beta_conv))
              (Conv.thenc (Conv.rator_conv Drule.beta_conv) Drule.beta_conv)))
        tm
  | _ -> failwith "Theory.automaton_expand: not a saturated automaton"

let theory_axioms () = Kernel.axioms ()
