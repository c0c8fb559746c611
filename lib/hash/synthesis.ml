open Logic

type timings = {
  t_embed : float;
  t_split : float;
  t_apply : float;
  t_join : float;
  t_init : float;
}

type step = {
  before : Circuit.t;
  after : Circuit.t;
  theorem : Kernel.thm;
  timings : timings;
}

let eval_conv = Automata.Words.word_eval_conv

(* Budget enforcement: phase boundaries call [check] directly; inside the
   long normalisation runs the installed Conv poll hook checks the clock
   every 256 memo misses (reading the clock per node would dominate). *)
let budget_check budget () =
  match budget with None -> () | Some b -> Engines.Common.check b

let budget_poll budget =
  match budget with
  | None -> fun () -> ()
  | Some b ->
      let n = ref 0 in
      fun () ->
        incr n;
        if !n land 255 = 0 then Engines.Common.check b

let retime_common ?budget level c cut_opt gates =
  let check = budget_check budget in
  Conv.with_step (budget_poll budget) @@ fun () ->
  let t0 = Clock.now () in
  let e = Embed.embed level c in
  let t1 = Clock.now () in
  check ();
  (* the cut record is untrusted control data from the heuristic: audit
     it against the (just validated) netlist before the kernel sees it,
     so a forged record fails with [Invalid_cut] instead of crashing
     inside the split *)
  (match cut_opt with
  | Some cut -> Forward.validate_cut c cut
  | None -> ());
  (* step 1: split *)
  let sp =
    match cut_opt with
    | Some cut -> Split.split e cut
    | None -> Split.split_gates e gates
  in
  let t2 = Clock.now () in
  check ();
  (* step 2: instantiate the universal retiming theorem *)
  let tyin =
    [ ("a", e.Embed.i_ty); ("b", e.Embed.s_ty); ("c", e.Embed.o_ty);
      ("d", sp.Split.x_ty) ]
  in
  let thm0 = Kernel.inst_type tyin Automata.Retiming_thm.retiming_thm in
  let fv = Term.mk_var "f" (Ty.fn e.Embed.s_ty sp.Split.x_ty) in
  let gv =
    Term.mk_var "g"
      (Ty.fn e.Embed.i_ty
         (Ty.fn sp.Split.x_ty (Ty.prod e.Embed.o_ty e.Embed.s_ty)))
  in
  let qv = Term.mk_var "q" e.Embed.s_ty in
  let th_univ =
    Kernel.inst
      [ (fv, sp.Split.f_term); (gv, sp.Split.g_term); (qv, e.Embed.q) ]
      thm0
  in
  (* lift the split theorem to the automaton level and chain *)
  let auto_const =
    Automata.Theory.automaton_tm e.Embed.i_ty e.Embed.s_ty e.Embed.o_ty
  in
  let th_a =
    Drule.ap_thm (Drule.ap_term auto_const sp.Split.split_thm) e.Embed.q
  in
  let th_ab = Kernel.trans th_a th_univ in
  let t3 = Clock.now () in
  check ();
  (* step 3: join — the right-hand side equals the embedding of the
     conventionally retimed netlist *)
  let cut =
    match cut_opt with Some cut -> cut | None -> Cut.of_gates c gates
  in
  let retimed = Forward.retime c cut in
  let e' = Embed.embed level retimed in
  let fd2' =
    (* \i x. (FST (g i x), f (SND (g i x))) — read it off the theorem *)
    let rhs_auto = Kernel.rhs th_ab in
    let auto_fd2, _fq = Term.dest_comb rhs_auto in
    snd (Term.dest_comb auto_fd2)
  in
  let thn1 = Embed.circuit_norm_conv fd2' in
  let thn2 = Embed.circuit_norm_conv e'.Embed.fd in
  if not (Term.aconv (Kernel.rhs thn1) (Kernel.rhs thn2)) then
    Errors.join_mismatch
      "derived combinational part differs from the retimed netlist";
  let th_fd2 = Kernel.trans thn1 (Drule.sym thn2) in
  let t4 = Clock.now () in
  check ();
  (* step 4: evaluate the new initial state f(q) *)
  let rhs_auto = Kernel.rhs th_ab in
  let fq = snd (Term.dest_comb rhs_auto) in
  let th_init = eval_conv fq in
  if not (Term.aconv (Kernel.rhs th_init) e'.Embed.q) then
    Errors.join_mismatch
      "deductively evaluated initial state differs from the netlist's";
  let auto_const' =
    Automata.Theory.automaton_tm e.Embed.i_ty sp.Split.x_ty e.Embed.o_ty
  in
  let th_c =
    Kernel.mk_comb_rule (Drule.ap_term auto_const' th_fd2) th_init
  in
  let theorem = Kernel.trans th_ab th_c in
  let t5 = Clock.now () in
  {
    before = c;
    after = retimed;
    theorem;
    timings =
      {
        t_embed = t1 -. t0;
        t_split = t2 -. t1;
        t_apply = t3 -. t2;
        t_join = t4 -. t3;
        t_init = t5 -. t4;
      };
  }

let retime ?budget level c cut = retime_common ?budget level c (Some cut) []
let retime_gates ?budget level c gates = retime_common ?budget level c None gates

let compose s1 s2 =
  if not (Term.aconv (Kernel.rhs s1.theorem) (Kernel.lhs s2.theorem)) then
    Errors.kernel_invariant "Synthesis.compose: steps do not chain"
  else
    let theorem = Kernel.trans s1.theorem s2.theorem in
    {
      before = s1.before;
      after = s2.after;
      theorem;
      timings =
        {
          t_embed = 0.;
          t_split = 0.;
          t_apply = 0.;
          t_join = 0.;
          t_init = 0.;
        };
    }

let check s =
  Kernel.hyp s.theorem = []
  &&
  let lhs = Kernel.lhs s.theorem and rhs = Kernel.rhs s.theorem in
  let matches c tm =
    List.exists
      (fun lvl ->
        try Term.aconv tm (Embed.mk_automaton_of (Embed.embed lvl c))
        with Failure _ | Errors.Invalid_netlist _ -> false)
      [ Embed.Bit_level; Embed.Rt_level ]
  in
  matches s.before lhs && matches s.after rhs
