(* Property tests for the hash-consed term kernel.

   A naive reference implementation of the term operations (plain tree
   terms, environment-based alpha-equivalence, capture-avoiding
   substitution by renaming) is checked against the kernel's versions on
   random simply-typed terms.  The generator draws variable names from a
   small pool so shadowing and capture under [Abs] happen often. *)

open Hol

let bb = Ty.fn Ty.bool Ty.bool

(* ------------------------------------------------------------------ *)
(* Naive reference terms                                               *)
(* ------------------------------------------------------------------ *)

type rterm =
  | RVar of string * Ty.t
  | RConst of string * Ty.t
  | RComb of rterm * rterm
  | RAbs of string * Ty.t * rterm

let rec reflect tm =
  match tm.Term.node with
  | Term.Var (n, ty) -> RVar (n, ty)
  | Term.Const (n, ty) -> RConst (n, ty)
  | Term.Comb (f, x) -> RComb (reflect f, reflect x)
  | Term.Abs (v, b) ->
      let n, ty = Term.dest_var v in
      RAbs (n, ty, reflect b)

let rec rebuild = function
  | RVar (n, ty) -> Term.mk_var n ty
  | RConst (n, ty) -> Term.mk_const_raw n ty
  | RComb (f, x) -> Term.mk_comb (rebuild f) (rebuild x)
  | RAbs (n, ty, b) -> Term.mk_abs (Term.mk_var n ty) (rebuild b)

let rec rtype_of = function
  | RVar (_, ty) | RConst (_, ty) -> ty
  | RComb (f, _) -> snd (Ty.dest_fn (rtype_of f))
  | RAbs (_, ty, b) -> Ty.fn ty (rtype_of b)

let same_var (n1, ty1) (n2, ty2) = String.equal n1 n2 && Ty.equal ty1 ty2

(* free variables as a (name, type) list, no duplicates *)
let rfrees t =
  let rec go bound acc = function
    | RVar (n, ty) ->
        if List.exists (same_var (n, ty)) bound
           || List.exists (same_var (n, ty)) acc
        then acc
        else (n, ty) :: acc
    | RConst _ -> acc
    | RComb (f, x) -> go bound (go bound acc f) x
    | RAbs (n, ty, b) -> go ((n, ty) :: bound) acc b
  in
  go [] [] t

let rfree_in v t = List.exists (same_var v) (rfrees t)

(* alpha-equivalence with an explicit bound-variable correspondence *)
let raconv t1 t2 =
  let rec go env t1 t2 =
    match (t1, t2) with
    | RVar (n1, ty1), RVar (n2, ty2) ->
        let rec look = function
          | [] -> same_var (n1, ty1) (n2, ty2)
          | (b1, b2) :: rest ->
              let l1 = same_var (n1, ty1) b1 in
              let l2 = same_var (n2, ty2) b2 in
              if l1 || l2 then l1 && l2 else look rest
        in
        look env
    | RConst (n1, ty1), RConst (n2, ty2) -> same_var (n1, ty1) (n2, ty2)
    | RComb (f1, x1), RComb (f2, x2) -> go env f1 f2 && go env x1 x2
    | RAbs (n1, ty1, b1), RAbs (n2, ty2, b2) ->
        Ty.equal ty1 ty2 && go (((n1, ty1), (n2, ty2)) :: env) b1 b2
    | _ -> false
  in
  go [] t1 t2

(* capture-avoiding simultaneous substitution, renaming with primes *)
let rec rsubst theta t =
  match t with
  | RVar (n, ty) -> (
      match List.find_opt (fun (v, _) -> same_var v (n, ty)) theta with
      | Some (_, img) -> img
      | None -> t)
  | RConst _ -> t
  | RComb (f, x) -> RComb (rsubst theta f, rsubst theta x)
  | RAbs (n, ty, b) ->
      let theta' =
        List.filter
          (fun (v, _) -> (not (same_var v (n, ty))) && rfree_in v b)
          theta
      in
      if theta' = [] then t
      else
        let image_frees =
          List.concat_map (fun (_, img) -> List.map fst (rfrees img)) theta'
        in
        if List.mem n image_frees then begin
          let avoid =
            image_frees @ List.map fst (rfrees b)
          in
          let n' = ref (n ^ "'") in
          while List.mem !n' avoid do
            n' := !n' ^ "'"
          done;
          RAbs
            ( !n',
              ty,
              rsubst (((n, ty), RVar (!n', ty)) :: theta') b )
        end
        else RAbs (n, ty, rsubst theta' b)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Simply-typed terms over bool and bool -> bool.  The tiny name pool
   ({x, y, z} for booleans, {f, g} for functions) maximises shadowing;
   redexes [(\x. b) a] arise whenever the function side generates an
   abstraction. *)
let gen_term ty0 =
  let open QCheck.Gen in
  let name_b = oneofl [ "x"; "y"; "z" ] in
  let var_b = name_b >|= fun n -> Term.mk_var n Ty.bool in
  let var_f = oneofl [ "f"; "g" ] >|= fun n -> Term.mk_var n bb in
  let const_b = oneofl [ "T"; "F" ] >|= fun n -> Term.mk_const_raw n Ty.bool in
  let rec go depth ty =
    let leaf = if Ty.equal ty Ty.bool then oneof [ var_b; const_b ] else var_f in
    if depth = 0 then leaf
    else if Ty.equal ty Ty.bool then
      frequency
        [
          (2, leaf);
          ( 3,
            go (depth - 1) bb >>= fun f ->
            go (depth - 1) Ty.bool >|= fun x -> Term.mk_comb f x );
        ]
    else
      frequency
        [
          (1, leaf);
          ( 3,
            name_b >>= fun n ->
            go (depth - 1) Ty.bool >|= fun b ->
            Term.mk_abs (Term.mk_var n Ty.bool) b );
        ]
  in
  int_range 0 5 >>= fun depth -> go depth ty0

let arb_bool_term =
  QCheck.make ~print:Term.to_string (gen_term Ty.bool)

let arb_fun_term = QCheck.make ~print:Term.to_string (gen_term bb)

let arb_term_pair =
  QCheck.make
    ~print:(fun (a, b) -> Term.to_string a ^ "  /  " ^ Term.to_string b)
    QCheck.Gen.(pair (gen_term Ty.bool) (gen_term Ty.bool))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_type_of =
  QCheck.Test.make ~count:300 ~name:"type_of = naive type reconstruction"
    arb_bool_term (fun t ->
      Ty.equal (Term.type_of t) (rtype_of (reflect t)))

let prop_frees =
  QCheck.Test.make ~count:300 ~name:"frees/free_in = naive free variables"
    arb_bool_term (fun t ->
      let kernel =
        List.sort compare (List.map Term.dest_var (Term.frees t))
      in
      let naive = List.sort compare (rfrees (reflect t)) in
      List.length kernel = List.length naive
      && List.for_all2 same_var kernel naive
      && List.for_all
           (fun (n, ty) ->
             Term.free_in (Term.mk_var n ty) t = rfree_in (n, ty) (reflect t))
           [ ("x", Ty.bool); ("y", Ty.bool); ("z", Ty.bool); ("f", bb) ])

let prop_aconv_agrees =
  QCheck.Test.make ~count:500 ~name:"aconv = naive alpha-equivalence"
    arb_term_pair (fun (t1, t2) ->
      Term.aconv t1 t2 = raconv (reflect t1) (reflect t2))

let prop_aconv_rename =
  (* renaming a binder to a fresh variable preserves alpha-equivalence,
     and both the kernel and the reference agree it does *)
  QCheck.Test.make ~count:300 ~name:"binder rename is alpha-invariant"
    arb_fun_term (fun t ->
      if not (Term.is_abs t) then QCheck.assume_fail ()
      else
        let v, body = Term.dest_abs t in
        let w = Term.variant (t :: Term.frees body) (Term.mk_var "w" Ty.bool) in
        let t' = Term.mk_abs w (Term.vsubst [ (v, w) ] body) in
        Term.aconv t t' && raconv (reflect t) (reflect t'))

let prop_vsubst =
  QCheck.Test.make ~count:500
    ~name:"vsubst = naive capture-avoiding substitution"
    (QCheck.make
       ~print:(fun (t, s) ->
         Term.to_string t ^ "  [x := " ^ Term.to_string s ^ "]")
       QCheck.Gen.(pair (gen_term Ty.bool) (gen_term Ty.bool)))
    (fun (t, s) ->
      let x = Term.mk_var "x" Ty.bool in
      let kernel = Term.vsubst [ (x, s) ] t in
      let naive = rsubst [ (("x", Ty.bool), reflect s) ] (reflect t) in
      raconv (reflect kernel) naive)

let prop_vsubst_swap =
  QCheck.Test.make ~count:300 ~name:"simultaneous swap substitution"
    arb_bool_term (fun t ->
      let x = Term.mk_var "x" Ty.bool and y = Term.mk_var "y" Ty.bool in
      let kernel = Term.vsubst [ (x, y); (y, x) ] t in
      let naive =
        rsubst
          [ (("x", Ty.bool), RVar ("y", Ty.bool));
            (("y", Ty.bool), RVar ("x", Ty.bool)) ]
          (reflect t)
      in
      raconv (reflect kernel) naive)

let prop_vsubst_capture =
  (* directed capture: substituting y into \y. <body containing x> must
     rename the binder, never capture *)
  QCheck.Test.make ~count:300 ~name:"capture under Abs is avoided"
    arb_bool_term (fun body ->
      let x = Term.mk_var "x" Ty.bool and y = Term.mk_var "y" Ty.bool in
      let t = Term.mk_abs y body in
      let kernel = Term.vsubst [ (x, y) ] t in
      let naive = rsubst [ (("x", Ty.bool), RVar ("y", Ty.bool)) ] (reflect t) in
      raconv (reflect kernel) naive
      (* and y stays bound: it is free in the result only if it was
         already free in \y. body (impossible) *)
      && not
           (Term.free_in x kernel
           && not (rfree_in ("x", Ty.bool) (reflect t))))

let prop_hash_consing =
  (* structural equality is physical equality: rebuilding a term through
     the smart constructors returns the same interned node *)
  QCheck.Test.make ~count:300 ~name:"rebuild is physically equal"
    arb_bool_term (fun t -> rebuild (reflect t) == t)

let prop_phys_iff_structural =
  QCheck.Test.make ~count:500 ~name:"physical equality = structural equality"
    arb_term_pair (fun (t1, t2) -> t1 == t2 = (reflect t1 = reflect t2))

let prop_alphaorder =
  QCheck.Test.make ~count:500 ~name:"alphaorder consistent with aconv"
    arb_term_pair (fun (t1, t2) ->
      let o12 = Term.alphaorder t1 t2 and o21 = Term.alphaorder t2 t1 in
      (o12 = 0) = Term.aconv t1 t2 && compare o12 0 = compare 0 o21)

let suite =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7e39 |]) in
  [
    q prop_type_of;
    q prop_frees;
    q prop_aconv_agrees;
    q prop_aconv_rename;
    q prop_vsubst;
    q prop_vsubst_swap;
    q prop_vsubst_capture;
    q prop_hash_consing;
    q prop_phys_iff_structural;
    q prop_alphaorder;
  ]
