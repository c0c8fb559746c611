open Hol
open Logic

(* Beta-reduce and simplify with the clause theorems, bottom-up and
   memoised. *)
let simp_conv =
  Conv.memo_top_depth_conv
    (Conv.orelsec (Conv.rewrs_conv Boolean.eval_rewrites) Pairs.proj_beta_conv)

let resynthesize ?budget level c =
  Conv.with_step (Synthesis.budget_poll budget) @@ fun () ->
  let t0 = Clock.now () in
  let simplified = Simplify.constant_prop c in
  let e1 = Embed.embed level c in
  let e2 = Embed.embed level simplified in
  let t1 = Clock.now () in
  (* |- !i s. fd1 i s = fd2 i s *)
  let i = e1.Embed.i_var and s = e1.Embed.s_var in
  let app fd = Term.mk_comb (Term.mk_comb fd i) s in
  Synthesis.budget_check budget ();
  let pointwise =
    Embed.equal_by_norm simp_conv (app e1.Embed.fd) (app e2.Embed.fd)
      ~mismatch:
        (Errors.Join_mismatch
           "netlist simplifier and logical rewrite system disagree")
  in
  Synthesis.budget_check budget ();
  let hyp_thm = Boolean.gen i (Boolean.gen s pointwise) in
  (* instantiate COMB_EQUIV_THM and discharge its hypothesis *)
  let inst_thm =
    Kernel.inst
      [
        (Term.mk_var "fd1"
           (Ty.fn e1.Embed.i_ty
              (Ty.fn e1.Embed.s_ty (Ty.prod e1.Embed.o_ty e1.Embed.s_ty))),
         e1.Embed.fd);
        (Term.mk_var "fd2"
           (Ty.fn e1.Embed.i_ty
              (Ty.fn e1.Embed.s_ty (Ty.prod e1.Embed.o_ty e1.Embed.s_ty))),
         e2.Embed.fd);
        (Term.mk_var "q" e1.Embed.s_ty, e1.Embed.q);
      ]
      (Kernel.inst_type
         [ ("a", e1.Embed.i_ty); ("b", e1.Embed.s_ty); ("c", e1.Embed.o_ty) ]
         Automata.Retiming_thm.comb_equiv_thm)
  in
  let theorem = Boolean.prove_hyp hyp_thm inst_thm in
  if Kernel.hyp theorem <> [] then
    Errors.join_mismatch "hypothesis of COMB_EQUIV was not discharged";
  let t2 = Clock.now () in
  {
    Synthesis.before = c;
    after = simplified;
    theorem;
    timings =
      {
        Synthesis.t_embed = t1 -. t0;
        t_split = 0.;
        t_apply = t2 -. t1;
        t_join = 0.;
        t_init = 0.;
      };
  }
