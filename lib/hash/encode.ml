open Hol
open Logic

let is_permutation p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun j -> j >= 0 && j < n && not seen.(j) && (seen.(j) <- true; true))
    p

(* The permuted netlist: old register [r] becomes position [p.(r)]. *)
let permute_netlist (c : Circuit.t) p =
  let open Circuit in
  let n = Array.length c.registers in
  let inv = Array.make n 0 in
  Array.iteri (fun r j -> inv.(j) <- r) p;
  let b = create (c.name ^ "_perm") in
  let input_sig = Array.map (fun w -> input b w) c.input_widths in
  let new_regs =
    Array.init n (fun j ->
        let old = c.registers.(inv.(j)) in
        reg b ~init:old.init (width_of_value old.init))
  in
  let map = Array.make (n_signals c) (-1) in
  Array.iteri
    (fun s d ->
      match d with
      | Input i -> map.(s) <- input_sig.(i)
      | Reg_out r -> map.(s) <- new_regs.(p.(r))
      | Gate _ -> ())
    c.drivers;
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) ->
          map.(s) <- gate b op (List.map (fun a -> map.(a)) args)
      | Input _ | Reg_out _ -> ())
    (topo_order c);
  Array.iteri
    (fun j nr ->
      connect_reg b nr ~data:map.(c.registers.(inv.(j)).data))
    new_regs;
  Array.iter (fun (nm, s) -> output b nm map.(s)) c.outputs;
  finish b

(* Partial application: one memo table, shared within each step. *)
let proj_eta_conv =
  Conv.memo_top_depth_conv
    (Conv.orelsec Pairs.proj_beta_conv (Conv.rewr_conv Pairs.pair_eta))

let permute_registers level c p =
  if not (is_permutation p) then
    Errors.invalid_cut "Encode.permute_registers: not a permutation";
  if Array.length p <> Array.length c.Circuit.registers then
    Errors.invalid_cut "Encode.permute_registers: wrong permutation size";
  Conv.with_step ignore @@ fun () ->
  let t0 = Clock.now () in
  let n = Array.length p in
  let inv = Array.make n 0 in
  Array.iteri (fun r j -> inv.(j) <- r) p;
  let permuted = permute_netlist c p in
  let e1 = Embed.embed level c in
  let e2 = Embed.embed level permuted in
  let t1 = Clock.now () in
  (* enc : old state -> new state; dec : its inverse *)
  let s1 = e1.Embed.s_var in
  let enc_tm =
    Term.mk_abs s1
      (Pairs.list_mk_pair
         (List.init n (fun j -> Pairs.proj s1 inv.(j) n)))
  in
  let x2 = Term.mk_var "x" e2.Embed.s_ty in
  let dec_tm =
    Term.mk_abs x2
      (Pairs.list_mk_pair (List.init n (fun r -> Pairs.proj x2 p.(r) n)))
  in
  (* side condition: !s. dec (enc s) = s *)
  let h_inst =
    let tm = Term.mk_comb dec_tm (Term.mk_comb enc_tm s1) in
    let th = proj_eta_conv tm in
    if not (Term.aconv (Kernel.rhs th) s1) then
      Errors.join_mismatch "dec o enc does not normalise to the identity";
    Boolean.gen s1 th
  in
  (* instantiate ENCODE_THM and discharge the hypothesis *)
  let fdty =
    Ty.fn e1.Embed.i_ty
      (Ty.fn e1.Embed.s_ty (Ty.prod e1.Embed.o_ty e1.Embed.s_ty))
  in
  let inst_thm =
    Kernel.inst
      [
        (Term.mk_var "fd" fdty, e1.Embed.fd);
        (Term.mk_var "enc" (Ty.fn e1.Embed.s_ty e2.Embed.s_ty), enc_tm);
        (Term.mk_var "dec" (Ty.fn e2.Embed.s_ty e1.Embed.s_ty), dec_tm);
        (Term.mk_var "q" e1.Embed.s_ty, e1.Embed.q);
      ]
      (Kernel.inst_type
         [ ("a", e1.Embed.i_ty); ("b", e1.Embed.s_ty);
           ("c", e1.Embed.o_ty); ("d", e2.Embed.s_ty) ]
         Automata.Encoding.encode_thm)
  in
  let th_open = Boolean.prove_hyp h_inst inst_thm in
  if Kernel.hyp th_open <> [] then
    Errors.join_mismatch "hypothesis of ENCODE_THM was not discharged";
  let t2 = Clock.now () in
  (* join: the right-hand side is the embedding of the permuted netlist *)
  let rhs_auto = Kernel.rhs th_open in
  let auto_fd2, encq = Term.dest_comb rhs_auto in
  let fd2' = snd (Term.dest_comb auto_fd2) in
  let th_fd2 =
    Embed.equal_by_norm Embed.circuit_norm_conv fd2' e2.Embed.fd
      ~mismatch:
        (Errors.Join_mismatch
           "encoded combinational part differs from the permuted netlist")
  in
  let th_init = proj_eta_conv encq in
  if not (Term.aconv (Kernel.rhs th_init) e2.Embed.q) then
    Errors.join_mismatch
      "encoded initial state differs from the permuted netlist's";
  let auto_const =
    Automata.Theory.automaton_tm e1.Embed.i_ty e2.Embed.s_ty e1.Embed.o_ty
  in
  let th_join =
    Kernel.mk_comb_rule (Drule.ap_term auto_const th_fd2) th_init
  in
  let theorem = Kernel.trans th_open th_join in
  let t3 = Clock.now () in
  {
    Synthesis.before = c;
    after = permuted;
    theorem;
    timings =
      {
        Synthesis.t_embed = t1 -. t0;
        t_split = 0.;
        t_apply = t2 -. t1;
        t_join = t3 -. t2;
        t_init = 0.;
      };
  }
