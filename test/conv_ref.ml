(* The normaliser [Conv.memo_top_depth_conv] as it stood before it told
   an unchanged subterm apart from a rewritten one, kept verbatim as the
   reference of the differential test in test_logic.ml: every node it
   visits costs at least [refl] + [mk_comb_rule] + [trans], changed or
   not.  Only the budget poll is a no-op here ([Conv]'s hook is not
   exported); the memo table and the kernel rules are the production
   ones. *)

open Hol
open Logic

type thm = Kernel.thm
type conv = Term.t -> thm

let poll () = ()

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
  let memo_key = Domain.DLS.new_key (fun () : thm Memo.t -> Memo.create ()) in
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
