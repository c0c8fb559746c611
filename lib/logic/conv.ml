open Hol

type thm = Kernel.thm
type conv = Term.t -> thm

let all_conv = Kernel.refl
let no_conv _ = failwith "Conv.no_conv"

let thenc c1 c2 tm =
  let th1 = c1 tm in
  let th2 = c2 (Kernel.rhs th1) in
  Kernel.trans th1 th2

let orelsec c1 c2 tm = try c1 tm with Failure _ -> c2 tm
let try_conv c = orelsec c all_conv

let rec repeatc c tm =
  (orelsec (thenc c (fun t -> repeatc c t)) all_conv) tm

let changed_conv c tm =
  let th = c tm in
  if Term.aconv (Kernel.lhs th) (Kernel.rhs th) then
    failwith "Conv.changed_conv: no change"
  else th

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

let abs_conv c tm =
  let v, body = Term.dest_abs tm in
  Kernel.abs v (c body)

let comb_conv c tm =
  let f, x = Term.dest_comb tm in
  Kernel.mk_comb_rule (c f) (c x)

let sub_conv c tm =
  match tm.Term.node with
  | Term.Comb (_, _) -> comb_conv c tm
  | Term.Abs (_, _) -> abs_conv c tm
  | _ -> all_conv tm

let rec top_depth_conv c tm =
  thenc (repeatc c)
    (try_conv
       (thenc (changed_conv (sub_conv (fun t -> top_depth_conv c t)))
          (try_conv (thenc c (fun t -> top_depth_conv c t)))))
    tm

let rec once_depth_conv c tm =
  (try_conv (orelsec c (sub_conv (fun t -> once_depth_conv c t)))) tm

let rewr_conv th tm =
  let theta, tyin = Term.term_match [] (Kernel.lhs th) tm in
  let th' = Kernel.inst theta (Kernel.inst_type tyin th) in
  (* Align possible alpha-differences between the instantiated lhs and the
     original term. *)
  let l' = Kernel.lhs th' in
  if l' == tm then th' else Kernel.trans (Drule.alpha_link tm l') th'

let rewrs_conv ths = first_conv (List.map rewr_conv ths)
let rewrite_conv ths = top_depth_conv (rewrs_conv ths)

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
  let memo_key = Domain.DLS.new_key (fun () : thm Memo.t -> Memo.create ~bits:12 ()) in
  fun tm0 ->
    let memo = Domain.DLS.get memo_key in
    Memo.new_call memo;
    let rec norm tm =
      match Memo.find memo tm.Term.id with
      | Some th -> th
      | None ->
          poll ();
          let th = step tm in
          Memo.add memo tm.Term.id th;
          th
    and step tm =
      (* Reduce at the top as long as possible, then normalise children and
         retry the top (child normalisation can expose new redexes). *)
      let th1 = repeat_top tm in
      let tm1 = Kernel.rhs th1 in
      let th2 =
        match tm1.Term.node with
        | Term.Comb (f, x) ->
            let thf = norm f and thx = norm x in
            Kernel.trans th1 (Kernel.mk_comb_rule thf thx)
        | Term.Abs (v, body) ->
            let thb = norm body in
            Kernel.trans th1 (Kernel.abs v thb)
        | _ -> th1
      in
      let tm2 = Kernel.rhs th2 in
      if tm2 == tm1 || Term.aconv tm2 tm1 then th2
      else
        let th3 = try_top tm2 in
        Kernel.trans th2 th3
    and repeat_top tm =
      match (try Some (c tm) with Failure _ -> None) with
      | None -> Kernel.refl tm
      | Some th ->
          let tm' = Kernel.rhs th in
          if Term.aconv tm' tm then Kernel.refl tm
          else Kernel.trans th (repeat_top tm')
    and try_top tm =
      match (try Some (c tm) with Failure _ -> None) with
      | None -> Kernel.refl tm
      | Some th ->
          let th' = norm (Kernel.rhs th) in
          Kernel.trans th th'
    in
    norm tm0

let conv_rule c th = Kernel.eq_mp (c (Kernel.concl th)) th
