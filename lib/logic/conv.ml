open Hol

type thm = Kernel.thm
type conv = Term.t -> thm

let all_conv = Kernel.refl

let thenc c1 c2 tm =
  let th1 = c1 tm in
  let th2 = c2 (Kernel.rhs th1) in
  Kernel.trans th1 th2

let orelsec c1 c2 tm = try c1 tm with Failure _ -> c2 tm
let try_conv c = orelsec c all_conv

let rec first_conv cs tm =
  match cs with
  | [] -> failwith "Conv.first_conv: no conversion applied"
  | c :: rest -> ( try c tm with Failure _ -> first_conv rest tm)

let rand_conv c tm =
  let f, x = Term.dest_comb tm in
  Drule.ap_term f (c x)

let rator_conv c tm =
  let f, x = Term.dest_comb tm in
  Drule.ap_thm (c f) x

(* First-order matching: [term_match pat tm] finds [(theta, tytheta)]
   such that [vsubst theta (inst tytheta pat)] is alpha-equivalent to
   [tm].  Pattern variables may not be applied to bound variables.
   Fails if no match exists. *)
let term_match pat tm =
  let open Term in
  let rec go env pat tm ((insts, tyin) as acc) =
    match (pat.node, tm.node) with
    | Var (_, vty), _ when not (List.exists (fun (p, _) -> p == pat) env) -> (
        (* The matched term may not mention term-side bound variables:
           they would escape their binders. *)
        List.iter
          (fun (_, bv) ->
            if free_in bv tm then
              failwith "Conv.term_match: bound variable would escape")
          env;
        match List.find_opt (fun (p, _) -> p == pat) insts with
        | Some (_, prev) ->
            if aconv prev tm then acc
            else failwith "Conv.term_match: inconsistent instantiation"
        | None ->
            let tyin' = Ty.match_ vty tm.ty tyin in
            ((pat, tm) :: insts, tyin'))
    | Var _, _ -> (
        match List.find_opt (fun (p, _) -> p == pat) env with
        | Some (_, bv) when bv == tm -> acc
        | _ -> failwith "Conv.term_match: bound variable mismatch")
    | Const (n1, ty1), Const (n2, ty2) when n1 = n2 ->
        (insts, Ty.match_ ty1 ty2 tyin)
    | Comb (f1, x1), Comb (f2, x2) -> go env x1 x2 (go env f1 f2 acc)
    | Abs (v1, b1), Abs (v2, b2) ->
        let tyin' = Ty.match_ v1.ty v2.ty tyin in
        go ((v1, v2) :: env) b1 b2 (insts, tyin')
    | _ -> failwith "Conv.term_match: structural mismatch"
  in
  let insts, tyin = go [] pat tm ([], []) in
  let theta = List.map (fun (v, t) -> (inst tyin v, t)) insts in
  (theta, tyin)

let rewr_conv th tm =
  let theta, tyin = term_match (Kernel.lhs th) tm in
  let th' = Kernel.inst theta (Kernel.inst_type tyin th) in
  (* Align possible alpha-differences between the instantiated lhs and the
     original term. *)
  let l' = Kernel.lhs th' in
  if l' == tm then th' else Kernel.trans (Drule.alpha_link tm l') th'

(* The head constant of [tm] and the number of arguments it is applied
   to; [None] when the head is a variable or an abstraction. *)
let head_key tm =
  let rec go tm n =
    match tm.Term.node with
    | Term.Comb (f, _) -> go f (n + 1)
    | Term.Const (c, _) -> Some (c, n)
    | Term.Var _ | Term.Abs _ -> None
  in
  go tm 0

(* A left-hand side [c a1 .. an] with constant head [c] matches only a
   term [c t1 .. tn] (the matcher is first-order), so the rewrites are
   indexed by that key.  A bucket keeps the list order and takes in the
   rewrites whose left-hand side has no constant head, so the first
   rewrite that matches, and with it the proof, is the one the linear
   scan finds. *)
let rewrs_conv ths =
  let keyed = List.map (fun th -> (head_key (Kernel.lhs th), th)) ths in
  let bucket key =
    first_conv
      (List.filter_map
         (fun (k, th) ->
           if k = None || k = key then Some (rewr_conv th) else None)
         keyed)
  in
  let index = Hashtbl.create 16 in
  List.iter
    (fun (k, _) ->
      match k with
      | Some key when not (Hashtbl.mem index key) ->
          Hashtbl.add index key (bucket k)
      | _ -> ())
    keyed;
  let wild = bucket None in
  fun tm ->
    match head_key tm with
    | Some key -> (
        match Hashtbl.find_opt index key with
        | Some c -> c tm
        | None -> wild tm)
    | None -> wild tm

(* Hook polled once per memo miss inside the normaliser below; the
   synthesis layer installs a budget check here so long normalisation runs
   can time out without threading a deadline through every conversion.
   Domain-local: each worker installs and polls its own hook. *)
let poll_key = Domain.DLS.new_key (fun () -> ref (fun () -> ()))
let poll () = !(Domain.DLS.get poll_key) ()

let with_step hook f =
  let cell = Domain.DLS.get poll_key in
  let saved = !cell in
  cell := hook;
  Fun.protect
    ~finally:(fun () ->
      cell := saved;
      Memo.release_domain ();
      Term.release_order_memo ())
    f

let memo_top_depth_conv c =
  (* The memo is allocated once per *partial application* and shared by
     every call inside one HASH step (split, join and f(q) normalise
     overlapping terms): rewrite sets are context-independent, so a
     cached [|- t = t'] stays valid.  [with_step] releases it when the
     step returns; a caller outside any step keeps it until it outgrows
     its cap.  Releases happen only between top-level calls — evicting
     entries mid-recursion could re-expand shared dag spines
     exponentially.

     One table per domain (keyed per partial application): cached
     theorems mention terms, and terms must not cross domains, so a
     worker always starts from an empty table.  All application sites
     are module-level bindings, so the number of DLS keys is bounded. *)
  let memo_key =
    Domain.DLS.new_key (fun () : thm option Memo.t -> Memo.create ())
  in
  fun tm0 ->
    let memo = Domain.DLS.get memo_key in
    Memo.new_call memo;
    (* [norm tm] is [None] when [tm] is already normal, else
       [Some |- tm = tm'].  An unchanged subterm costs no rule: a node
       pays only for the children that changed. *)
    let then_ th1 th2 =
      match (th1, th2) with
      | None, th | th, None -> th
      | Some th1, Some th2 -> Some (Kernel.trans th1 th2)
    in
    let rec norm tm =
      match Memo.find memo tm.Term.id with
      | Some r -> r
      | None ->
          poll ();
          let r = step tm in
          Memo.add memo tm.Term.id r;
          r
    and step tm =
      (* Reduce at the top as long as possible, then normalise children and
         retry the top (child normalisation can expose new redexes). *)
      let th1 = repeat_top tm in
      let tm1 = match th1 with None -> tm | Some th -> Kernel.rhs th in
      let th2 =
        match tm1.Term.node with
        | Term.Comb (f, x) -> (
            let thf = norm f in
            match (thf, norm x) with
            | None, None -> None
            | Some thf, None -> Some (Drule.ap_thm thf x)
            | None, Some thx -> Some (Drule.ap_term f thx)
            | Some thf, Some thx -> Some (Kernel.mk_comb_rule thf thx))
        | Term.Abs (v, body) -> Option.map (Kernel.abs v) (norm body)
        | _ -> None
      in
      match th2 with
      | None -> th1
      | Some th2 ->
          let th12 = then_ th1 (Some th2) in
          let tm2 = Kernel.rhs th2 in
          if tm2 == tm1 then th12 else then_ th12 (try_top tm2)
    and repeat_top tm =
      match (try Some (c tm) with Failure _ -> None) with
      | None -> None
      | Some th ->
          let tm' = Kernel.rhs th in
          if Term.aconv tm' tm then None
          else then_ (Some th) (repeat_top tm')
    and try_top tm =
      match (try Some (c tm) with Failure _ -> None) with
      | None -> None
      | Some th -> then_ (Some th) (norm (Kernel.rhs th))
    in
    match norm tm0 with Some th -> th | None -> Kernel.refl tm0

let conv_rule c th = Kernel.eq_mp (c (Kernel.concl th)) th
