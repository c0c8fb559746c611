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

(* Simply-typed terms over bool and bool -> bool, with boolean variables
   named from [names].  The tiny name pool of [gen_term] ({x, y, z} for
   booleans, {f, g} for functions) maximises shadowing;
   redexes [(\x. b) a] arise whenever the function side generates an
   abstraction. *)
let gen_term_over names ty0 =
  let open QCheck.Gen in
  let name_b = oneofl names in
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

let gen_term = gen_term_over [ "x"; "y"; "z" ]

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
      match t.Term.node with
      | Term.Comb _ | Term.Var _ | Term.Const _ -> QCheck.assume_fail ()
      | Term.Abs (v, body) ->
          let w =
            Term.variant (t :: Term.frees body) (Term.mk_var "w" Ty.bool)
          in
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

(* The pool of [prop_vsubst_wide]: six boolean variables whose compact
   indices lie in six different 63-bit words of a free-variable set.
   Four hundred variables are registered in a row, here at module
   initialisation, so before any property runs, and the pool takes the
   ones at offsets 0, 62, 63, 126, 250 and 399. *)
let wide_pool =
  let names = List.init 400 (Printf.sprintf "wide%d") in
  List.iter (fun n -> ignore (Term.mk_var n Ty.bool)) names;
  List.filteri (fun i _ -> List.mem i [ 0; 62; 63; 126; 250; 399 ]) names

let prop_vsubst_wide =
  (* one to three simultaneous bindings over the wide pool: a binding's
     variable may not occur, and an image may mention a variable that a
     binder of the term shadows, so capture is forced now and then *)
  let gen =
    let open QCheck.Gen in
    gen_term_over wide_pool Ty.bool >>= fun t ->
    int_range 1 3 >>= fun k ->
    shuffle_l wide_pool >>= fun names ->
    list_repeat k (gen_term_over wide_pool Ty.bool) >|= fun imgs ->
    (t, List.combine (List.filteri (fun i _ -> i < k) names) imgs)
  in
  QCheck.Test.make ~count:500
    ~name:"vsubst = naive substitution, variables across bitset words"
    (QCheck.make
       ~print:(fun (t, theta) ->
         Term.to_string t ^ "  ["
         ^ String.concat "; "
             (List.map (fun (n, s) -> n ^ " := " ^ Term.to_string s) theta)
         ^ "]")
       gen)
    (fun (t, theta) ->
      let kernel =
        Term.vsubst
          (List.map (fun (n, s) -> (Term.mk_var n Ty.bool, s)) theta)
          t
      in
      let naive =
        rsubst
          (List.map (fun (n, s) -> ((n, Ty.bool), reflect s)) theta)
          (reflect t)
      in
      raconv (reflect kernel) naive)

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

(* ------------------------------------------------------------------ *)
(* The printers against their references                              *)
(* ------------------------------------------------------------------ *)

(* [gen_term]'s terms mixed with every form the printer special-cases:
   [=] (at bool and at a product), [/\], [==>], [!] over an abstraction
   and over a variable, [,], and the infix operators partially
   applied. *)
let gen_printable =
  let open QCheck.Gen in
  let pb = Ty.prod Ty.bool Ty.bool in
  let bin ty = Ty.fn ty (Ty.fn ty Ty.bool) in
  let infix =
    oneofl [ "="; "/\\"; "==>" ] >|= fun op ->
    Term.mk_const_raw op (bin Ty.bool)
  in
  let forall = Term.mk_const_raw "!" (Ty.fn bb Ty.bool) in
  let comma = Term.mk_const_raw "," (Ty.fn Ty.bool (Ty.fn Ty.bool pb)) in
  let rec go depth ty =
    let sub = go (max 0 (depth - 1)) in
    if Ty.equal ty pb then
      sub Ty.bool >>= fun l ->
      sub Ty.bool >|= fun r -> Term.list_mk_comb comma [ l; r ]
    else if depth = 0 then gen_term ty
    else if Ty.equal ty Ty.bool then
      frequency
        [
          (1, gen_term Ty.bool);
          ( 3,
            infix >>= fun op ->
            sub Ty.bool >>= fun l ->
            sub Ty.bool >|= fun r -> Term.list_mk_comb op [ l; r ] );
          (1, sub pb >>= fun l -> sub pb >|= fun r -> Term.mk_eq l r);
          (2, sub bb >|= fun f -> Term.mk_comb forall f);
          (1, sub bb >>= fun f -> sub Ty.bool >|= fun x -> Term.mk_comb f x);
        ]
    else
      frequency
        [
          (1, gen_term bb);
          ( 2,
            oneofl [ "x"; "y" ] >>= fun n ->
            sub Ty.bool >|= fun b -> Term.mk_abs (Term.mk_var n Ty.bool) b );
          (1, infix >>= fun op -> sub Ty.bool >|= fun l -> Term.mk_comb op l);
        ]
  in
  int_range 0 6 >>= fun depth -> go depth Ty.bool

let prop_printer_differential =
  QCheck.Test.make ~count:500 ~name:"term printer = reference printer"
    (QCheck.make ~print:Pp_ref.to_string gen_printable) (fun t ->
      String.equal (Term.to_string t) (Pp_ref.to_string t))

(* ------------------------------------------------------------------ *)
(* The alpha-order memo key                                            *)
(* ------------------------------------------------------------------ *)

(* Ids near the packing boundary 2^31 and near the largest int (2^62 - 1),
   and small ones: the pairs a packed key would fold together.  The memo
   stores a pair under its int key when that is >= 0, else under the
   pair itself; no two pairs of ids may share where they are stored. *)
let gen_ids =
  let open QCheck.Gen in
  list_size (int_range 2 24)
    (oneof
       [
         int_range 0 15;
         (int_range (-16) 15 >|= fun d -> (1 lsl 31) + d);
         (int_range 0 31 >|= fun d -> max_int - d);
       ])

let prop_memo_key_injective =
  QCheck.Test.make ~count:300 ~name:"alpha-order memo key is injective"
    (QCheck.make ~print:QCheck.Print.(list int) gen_ids) (fun ids ->
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let k = Term.order_memo_key a b in
              let where = if k >= 0 then (k, 0, 0) else (-1, a, b) in
              match Hashtbl.find_opt seen where with
              | Some p when p <> (a, b) ->
                  QCheck.Test.fail_reportf "(%d, %d) and (%d, %d) share key %d"
                    a b (fst p) (snd p) k
              | _ ->
                  Hashtbl.replace seen where (a, b);
                  true)
            ids)
        ids)

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
    q prop_vsubst_wide;
    q prop_hash_consing;
    q prop_phys_iff_structural;
    q prop_alphaorder;
    q prop_printer_differential;
    q prop_memo_key_injective;
  ]
