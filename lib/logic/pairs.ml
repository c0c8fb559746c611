open Hol

type thm = Kernel.thm

let () = Kernel.new_type "prod" 2

let () =
  Kernel.new_constant ","
    (Ty.fn Ty.alpha (Ty.fn Ty.beta (Ty.prod Ty.alpha Ty.beta)));
  Kernel.new_constant "FST" (Ty.fn (Ty.prod Ty.alpha Ty.beta) Ty.alpha);
  Kernel.new_constant "SND" (Ty.fn (Ty.prod Ty.alpha Ty.beta) Ty.beta)

let comma a b = Kernel.mk_const "," [ ("a", a); ("b", b) ]

let mk_pair x y =
  Term.list_mk_comb (comma (Term.type_of x) (Term.type_of y)) [ x; y ]

(* Balanced tuples: projection chains are logarithmic in the component
   count, which keeps the normalisation of large circuit terms cheap. *)
let rec list_mk_pair = function
  | [] -> failwith "Pairs.list_mk_pair: empty"
  | [ x ] -> x
  | xs ->
      let n = List.length xs in
      let l = (n + 1) / 2 in
      let left = List.filteri (fun i _ -> i < l) xs in
      let right = List.filteri (fun i _ -> i >= l) xs in
      mk_pair (list_mk_pair left) (list_mk_pair right)

(* Two per-domain caches keyed by the interned id of a product type:
   [consts] holds the FST and SND constants at that type, [axioms] the
   FST_PAIR (key [2 id]) or SND_PAIR (key [2 id + 1]) axiom instantiated
   at it, with its [x] and [y] variables.  Both are emptied with the
   domain's memo tables ([Memo.release_domain]: when a HASH step returns
   and when a proof recording starts), and each is emptied when it
   outgrows [cache_cap], so neither keeps terms of past steps. *)
type cache = {
  consts : (int, Term.t * Term.t) Hashtbl.t;
  axioms : (int, thm * Term.t * Term.t) Hashtbl.t;
}

let cache_cap = 4096

let cache_key =
  Domain.DLS.new_key (fun () ->
      let c = { consts = Hashtbl.create 64; axioms = Hashtbl.create 64 } in
      Memo.on_release (fun () ->
          Hashtbl.reset c.consts;
          Hashtbl.reset c.axioms);
      c)

let cached tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      if Hashtbl.length tbl >= cache_cap then Hashtbl.reset tbl;
      Hashtbl.add tbl key v;
      v

let proj_consts pty =
  cached (Domain.DLS.get cache_key).consts pty.Ty.id (fun () ->
      let a, b = Ty.dest_prod pty in
      let tyin = [ ("a", a); ("b", b) ] in
      (Kernel.mk_const "FST" tyin, Kernel.mk_const "SND" tyin))

let mk_fst p = Term.mk_comb (fst (proj_consts (Term.type_of p))) p
let mk_snd p = Term.mk_comb (snd (proj_consts (Term.type_of p))) p

let rec proj tup i n =
  if n = 1 then tup
  else
    let l = (n + 1) / 2 in
    if i < l then proj (mk_fst tup) i l
    else proj (mk_snd tup) (i - l) (n - l)

(* ------------------------------------------------------------------ *)
(* LET                                                                 *)
(* ------------------------------------------------------------------ *)

let let_def =
  let fv = Term.mk_var "f" (Ty.fn Ty.alpha Ty.beta) in
  let xv = Term.mk_var "x" Ty.alpha in
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "LET" (Ty.fn (Ty.fn Ty.alpha Ty.beta) (Ty.fn Ty.alpha Ty.beta)))
       (Term.list_mk_abs [ fv; xv ] (Term.mk_comb fv xv)))

(* ------------------------------------------------------------------ *)
(* Pairing axioms                                                      *)
(* ------------------------------------------------------------------ *)

let x_var = Term.mk_var "x" Ty.alpha
let y_var = Term.mk_var "y" Ty.beta
let p_var = Term.mk_var "p" (Ty.prod Ty.alpha Ty.beta)

let fst_pair =
  Kernel.new_axiom "FST_PAIR"
    (Term.mk_eq (mk_fst (mk_pair x_var y_var)) x_var)

let snd_pair =
  Kernel.new_axiom "SND_PAIR"
    (Term.mk_eq (mk_snd (mk_pair x_var y_var)) y_var)

let pair_eta =
  Kernel.new_axiom "PAIR_ETA"
    (Term.mk_eq (mk_pair (mk_fst p_var) (mk_snd p_var)) p_var)

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let let_conv tm =
  match tm.Term.node with
  | Term.Comb
      ({ Term.node = Term.Comb ({ Term.node = Term.Const ("LET", _); _ }, f); _ }, _)
    ->
      let th1 =
        Conv.rator_conv (Conv.rator_conv (Conv.rewr_conv let_def)) tm
      in
      (* th1 : LET f e = (\f x. f x) f e *)
      let th2 = Conv.rator_conv Drule.beta_conv (Kernel.rhs th1) in
      let th3 = Drule.beta_conv (Kernel.rhs th2) in
      (* rhs th3 = f e; if f is an abstraction, reduce once more *)
      let th = Kernel.trans (Kernel.trans th1 th2) th3 in
      if Term.is_abs f then Kernel.trans th (Drule.beta_conv (Kernel.rhs th))
      else th
  | _ -> failwith "Pairs.let_conv: not a LET"

(* Direct instantiation of the pairing axioms — avoids the generic
   matcher on the hottest reduction of the circuit normaliser.  The
   axiom is type-instantiated once per pair type and step (see [cache]
   above); each call is then one [inst]. *)
let inst_pair_axiom ax k pair x y =
  let pty = Term.type_of pair in
  let th, xv, yv =
    cached (Domain.DLS.get cache_key).axioms ((2 * pty.Ty.id) + k)
      (fun () ->
        let a = Term.type_of x and b = Term.type_of y in
        ( Kernel.inst_type [ ("a", a); ("b", b) ] ax,
          Term.mk_var "x" a,
          Term.mk_var "y" b ))
  in
  Kernel.inst [ (xv, x); (yv, y) ] th

let proj_conv tm =
  match tm.Term.node with
  | Term.Comb
      ( { Term.node = Term.Const (("FST" | "SND") as c, _); _ },
        ({
           Term.node =
             Term.Comb ({ Term.node = Term.Comb ({ Term.node = Term.Const (",", _); _ }, x); _ }, y);
           _;
         } as pair) ) ->
      if c = "FST" then inst_pair_axiom fst_pair 0 pair x y
      else inst_pair_axiom snd_pair 1 pair x y
  | _ -> failwith "Pairs.proj_conv: not a projection of a pair"

let let_proj_conv tm =
  match tm.Term.node with
  | Term.Comb
      ({ Term.node = Term.Comb ({ Term.node = Term.Const ("LET", _); _ }, _); _ }, _)
    ->
      let_conv tm
  | Term.Comb ({ Term.node = Term.Const (("FST" | "SND"), _); _ }, _) ->
      proj_conv tm
  | Term.Comb ({ Term.node = Term.Abs (_, _); _ }, _) -> Drule.beta_conv tm
  | _ -> failwith "Pairs.let_proj_conv: no redex"
