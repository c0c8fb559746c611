open Hol
open Logic

type thm = Kernel.thm

let () = Kernel.new_type "list" 1

let () =
  Kernel.new_constant "NIL" (Ty.list Ty.alpha);
  Kernel.new_constant "CONS"
    (Ty.fn Ty.alpha (Ty.fn (Ty.list Ty.alpha) (Ty.list Ty.alpha)))

let nil_tm ty = Kernel.mk_const "NIL" [ ("a", ty) ]

let mk_cons h t =
  Term.list_mk_comb
    (Kernel.mk_const "CONS" [ ("a", Term.type_of h) ])
    [ h; t ]

let mk_bv bits =
  List.fold_right
    (fun b acc -> mk_cons (Boolean.bool_const b) acc)
    bits (nil_tm Ty.bool)

let rec dest_bv tm =
  match tm.Term.node with
  | Term.Const ("NIL", _) -> []
  | Term.Comb
      ( {
          Term.node =
            Term.Comb
              ( { Term.node = Term.Const ("CONS", _); _ },
                { Term.node = Term.Const ("T", _); _ } );
          _;
        },
        t ) ->
      true :: dest_bv t
  | Term.Comb
      ( {
          Term.node =
            Term.Comb
              ( { Term.node = Term.Const ("CONS", _); _ },
                { Term.node = Term.Const ("F", _); _ } );
          _;
        },
        t ) ->
      false :: dest_bv t
  | _ -> failwith "Words.dest_bv: not a literal word"

(* ------------------------------------------------------------------ *)
(* Recursion equations (audited axioms)                                *)
(* ------------------------------------------------------------------ *)

let bv = Ty.bv
let bvar n = Term.mk_var n Ty.bool
let lvar n = Term.mk_var n bv
let c_var = bvar "c"
let b_var = bvar "b"
let b2_var = bvar "b'"
let x_var = lvar "x"
let y_var = lvar "y"
let nilb = nil_tm Ty.bool

(* Carry-passing increment worker:
   BVI c NIL = NIL
   BVI c (CONS b x) = CONS (XOR c b) (BVI (c /\ b) x) *)
let () =
  Kernel.new_constant "BVI" (Ty.fn Ty.bool (Ty.fn bv bv))

let bvi c x =
  Term.list_mk_comb (Kernel.mk_const "BVI" []) [ c; x ]

let bvi_nil =
  Kernel.new_axiom "BVI_NIL" (Term.mk_eq (bvi c_var nilb) nilb)

let bvi_cons =
  Kernel.new_axiom "BVI_CONS"
    (Term.mk_eq
       (bvi c_var (mk_cons b_var x_var))
       (mk_cons (Boolean.mk_xor c_var b_var)
          (bvi (Boolean.mk_conj c_var b_var) x_var)))

let bv_inc_def =
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "BV_INC" (Ty.fn bv bv))
       (Term.mk_comb (Kernel.mk_const "BVI" []) Boolean.t_tm))

let bv_inc_tm = Kernel.mk_const "BV_INC" []

(* Carry-passing adder worker:
   BVA c NIL NIL = NIL
   BVA c (CONS a x) (CONS b y) =
     CONS (XOR (XOR a b) c) (BVA ((a /\ b) \/ (c /\ XOR a b)) x y) *)
let () =
  Kernel.new_constant "BVA" (Ty.fn Ty.bool (Ty.fn bv (Ty.fn bv bv)))

let bva c x y =
  Term.list_mk_comb (Kernel.mk_const "BVA" []) [ c; x; y ]

let bva_nil =
  Kernel.new_axiom "BVA_NIL" (Term.mk_eq (bva c_var nilb nilb) nilb)

let bva_cons =
  let a = b_var and b = b2_var in
  let axb = Boolean.mk_xor a b in
  Kernel.new_axiom "BVA_CONS"
    (Term.mk_eq
       (bva c_var (mk_cons a x_var) (mk_cons b y_var))
       (mk_cons
          (Boolean.mk_xor axb c_var)
          (bva
             (Boolean.mk_disj (Boolean.mk_conj a b)
                (Boolean.mk_conj c_var axb))
             x_var y_var)))

let bv_add_def =
  Kernel.new_basic_definition
    (Term.mk_eq
       (Term.mk_var "BV_ADD" (Ty.fn bv (Ty.fn bv bv)))
       (Term.mk_comb (Kernel.mk_const "BVA" []) Boolean.f_tm))

let bv_add_tm = Kernel.mk_const "BV_ADD" []

(* BV_EQ NIL NIL = T
   BV_EQ (CONS a x) (CONS b y) = (a = b) /\ BV_EQ x y *)
let () = Kernel.new_constant "BV_EQ" (Ty.fn bv (Ty.fn bv Ty.bool))

let bv_eq_tm = Kernel.mk_const "BV_EQ" []

let bveq x y = Term.list_mk_comb bv_eq_tm [ x; y ]

let bv_eq_nil =
  Kernel.new_axiom "BV_EQ_NIL" (Term.mk_eq (bveq nilb nilb) Boolean.t_tm)

let bv_eq_cons =
  Kernel.new_axiom "BV_EQ_CONS"
    (Term.mk_eq
       (bveq (mk_cons b_var x_var) (mk_cons b2_var y_var))
       (Boolean.mk_conj (Term.mk_eq b_var b2_var) (bveq x_var y_var)))

(* Pointwise operators *)
let pointwise1 name mk_gate =
  Kernel.new_constant name (Ty.fn bv bv);
  let op = Kernel.mk_const name [] in
  let ax_nil =
    Kernel.new_axiom (name ^ "_NIL")
      (Term.mk_eq (Term.mk_comb op nilb) nilb)
  in
  let ax_cons =
    Kernel.new_axiom (name ^ "_CONS")
      (Term.mk_eq
         (Term.mk_comb op (mk_cons b_var x_var))
         (mk_cons (mk_gate b_var) (Term.mk_comb op x_var)))
  in
  (op, [ ax_nil; ax_cons ])

let pointwise2 name mk_gate =
  Kernel.new_constant name (Ty.fn bv (Ty.fn bv bv));
  let op = Kernel.mk_const name [] in
  let app x y = Term.list_mk_comb op [ x; y ] in
  let ax_nil =
    Kernel.new_axiom (name ^ "_NIL") (Term.mk_eq (app nilb nilb) nilb)
  in
  let ax_cons =
    Kernel.new_axiom (name ^ "_CONS")
      (Term.mk_eq
         (app (mk_cons b_var x_var) (mk_cons b2_var y_var))
         (mk_cons (mk_gate b_var b2_var) (app x_var y_var)))
  in
  (op, [ ax_nil; ax_cons ])

let bv_not_tm, bv_not_axs = pointwise1 "BV_NOT" Boolean.mk_neg
let bv_and_tm, bv_and_axs = pointwise2 "BV_AND" Boolean.mk_conj
let bv_or_tm, bv_or_axs = pointwise2 "BV_OR" Boolean.mk_disj
let bv_xor_tm, bv_xor_axs = pointwise2 "BV_XOR" Boolean.mk_xor

let word_rewrites =
  [ bv_inc_def; bvi_nil; bvi_cons; bv_add_def; bva_nil; bva_cons;
    bv_eq_nil; bv_eq_cons ]
  @ bv_not_axs @ bv_and_axs @ bv_or_axs @ bv_xor_axs

(* ------------------------------------------------------------------ *)
(* Ground evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let eval_rewrites = word_rewrites @ Boolean.eval_rewrites

(* Partial application: one memo table, shared within each step. *)
let word_eval_conv =
  Conv.memo_top_depth_conv
    (Conv.orelsec (Conv.rewrs_conv eval_rewrites) Pairs.let_proj_conv)
