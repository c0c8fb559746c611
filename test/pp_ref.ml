(* The Format-based printers as they stood before the single-Buffer
   rewrite of [Term.to_string] and [Kernel.string_of_thm], kept verbatim
   (module paths aside) as the reference of the differential tests in
   test_term_props.ml: the production printers must emit the same
   bytes. *)

open Hol
open Term

(* ------------------------------------------------------------------ *)
(* Terms                                                               *)
(* ------------------------------------------------------------------ *)

let pp_budget_key = Domain.DLS.new_key (fun () -> ref 20_000)

let rec pp_go budget ppf tm =
  decr budget;
  if !budget < 0 then Format.pp_print_string ppf "..."
  else
    match tm.node with
    | Var (n, _) | Const (n, _) -> Format.pp_print_string ppf n
    | Comb ({ node = Comb ({ node = Const ("=", _); _ }, l); _ }, r) ->
        Format.fprintf ppf "(%a = %a)" (pp_go budget) l (pp_go budget) r
    | Comb ({ node = Comb ({ node = Const ("/\\", _); _ }, l); _ }, r) ->
        Format.fprintf ppf "(%a /\\ %a)" (pp_go budget) l (pp_go budget) r
    | Comb ({ node = Comb ({ node = Const ("==>", _); _ }, l); _ }, r) ->
        Format.fprintf ppf "(%a ==> %a)" (pp_go budget) l (pp_go budget) r
    | Comb ({ node = Const ("!", _); _ }, { node = Abs (v, b); _ }) ->
        Format.fprintf ppf "(!%a. %a)" (pp_go budget) v (pp_go budget) b
    | Comb ({ node = Comb ({ node = Const (",", _); _ }, l); _ }, r) ->
        Format.fprintf ppf "(%a, %a)" (pp_go budget) l (pp_go budget) r
    | Comb (f, x) -> Format.fprintf ppf "(%a %a)" (pp_go budget) f (pp_go budget) x
    | Abs (v, b) -> Format.fprintf ppf "(\\%a. %a)" (pp_go budget) v (pp_go budget) b

let pp ppf tm =
  let budget = Domain.DLS.get pp_budget_key in
  budget := 20_000;
  pp_go budget ppf tm

let to_string tm = Format.asprintf "%a" pp tm

(* ------------------------------------------------------------------ *)
(* Theorems                                                            *)
(* ------------------------------------------------------------------ *)

let pp_thm ppf th =
  match Kernel.hyp th with
  | [] -> Format.fprintf ppf "|- %a" pp (Kernel.concl th)
  | hs ->
      Format.fprintf ppf "%a |- %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp)
        hs pp (Kernel.concl th)

let string_of_thm th = Format.asprintf "%a" pp_thm th
