(* A theorem.  An equation [l = r] keeps its two sides and no
   conclusion term: the equational rules read their premises' sides
   and build their result's sides, so the [=] spine of a conclusion is
   never interned on the rule path.  [concl] builds it on each call, in
   the calling domain.  It is deliberately not cached: theory theorems
   are shared by every domain, and a conclusion node cached by one
   domain would carry that domain's term id into another.  A [Prop]
   conclusion is never an equation ([of_concl] splits one that is), so
   the shape of the value tells whether [lhs]/[rhs] apply. *)
type thm =
  | Eq of {
      hyps : Term.t list;
      lhs : Term.t;
      rhs : Term.t;
      ep : int; (* epoch of the hook set when proved; 0 = none *)
      ix : int; (* step index that hook returned; -1 = none *)
    }
  | Prop of { hyps : Term.t list; concl : Term.t; ep : int; ix : int }

let of_concl hyps c ep ix =
  if Term.is_eq c then
    let l, r = Term.dest_eq c in
    Eq { hyps; lhs = l; rhs = r; ep; ix }
  else Prop { hyps; concl = c; ep; ix }

let hyp = function Eq e -> e.hyps | Prop p -> p.hyps

let concl = function
  | Eq e -> Term.mk_eq e.lhs e.rhs
  | Prop p -> p.concl

let lhs = function
  | Eq e -> e.lhs
  | Prop _ -> failwith "Kernel.lhs: not an equation"

let rhs = function
  | Eq e -> e.rhs
  | Prop _ -> failwith "Kernel.rhs: not an equation"


(* The step index a hook with epoch [ep] returned for [th], else -1.
   No rule reads it: the rules only pass it back to the hook. *)
let[@inline] step_index ep = function
  | Eq e -> if e.ep = ep then e.ix else -1
  | Prop p -> if p.ep = ep then p.ix else -1

let string_of_thm th =
  let buf = Buffer.create 1024 and hs = hyp th in
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_string buf ", ";
      Term.add_to_buffer buf h)
    hs;
  if hs <> [] then Buffer.add_char buf ' ';
  Buffer.add_string buf "|- ";
  Term.add_to_buffer buf (concl th);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Hypothesis sets: lists sorted by alpha-order, without duplicates.   *)
(* ------------------------------------------------------------------ *)

let rec term_union l1 l2 =
  match (l1, l2) with
  | [], l | l, [] -> l
  | h1 :: t1, h2 :: t2 ->
      let c = Term.alphaorder h1 h2 in
      if c = 0 then h1 :: term_union t1 t2
      else if c < 0 then h1 :: term_union t1 l2
      else h2 :: term_union l1 t2

let term_remove t l = List.filter (fun t' -> not (Term.aconv t t')) l

let term_image f l =
  List.sort_uniq Term.alphaorder (List.map f l)

(* ------------------------------------------------------------------ *)
(* Signature                                                           *)
(* ------------------------------------------------------------------ *)

let the_type_constants : (string, int) Hashtbl.t = Hashtbl.create 16
let the_term_constants : (string, Ty.t) Hashtbl.t = Hashtbl.create 64

let () =
  Hashtbl.replace the_type_constants "bool" 0;
  Hashtbl.replace the_type_constants "fun" 2;
  Hashtbl.replace the_term_constants "="
    (Ty.fn Ty.alpha (Ty.fn Ty.alpha Ty.bool))

let new_type name arity =
  match Hashtbl.find_opt the_type_constants name with
  | Some a when a = arity -> ()
  | Some _ -> failwith ("Kernel.new_type: arity clash for " ^ name)
  | None -> Hashtbl.replace the_type_constants name arity

let new_constant name ty =
  if Hashtbl.mem the_term_constants name then
    failwith ("Kernel.new_constant: already declared: " ^ name)
  else Hashtbl.replace the_term_constants name ty

let get_const_type name = Hashtbl.find the_term_constants name
let is_constant name = Hashtbl.mem the_term_constants name

let types () =
  Hashtbl.fold (fun n a acc -> (n, a) :: acc) the_type_constants []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let constants () =
  Hashtbl.fold (fun n ty acc -> (n, ty) :: acc) the_term_constants []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mk_const name tyin =
  match Hashtbl.find_opt the_term_constants name with
  | None -> failwith ("Kernel.mk_const: undeclared constant: " ^ name)
  | Some gty -> Term.mk_const_raw name (Ty.subst tyin gty)

let mk_const_at name ty =
  match Hashtbl.find_opt the_term_constants name with
  | None -> failwith ("Kernel.mk_const_at: undeclared constant: " ^ name)
  | Some gty ->
      let tyin = Ty.match_ gty ty [] in
      Term.mk_const_raw name (Ty.subst tyin gty)

(* ------------------------------------------------------------------ *)
(* The recording hook                                                  *)
(* ------------------------------------------------------------------ *)

(* A primitive inference, as passed to a recorder, in three shapes: the
   rules on one term, the rules on two premises, and the rest.  [leaf]
   and [pair] take their operands as arguments, the premises' step
   indices read here, so the inferences that make up most of a proof
   reach the recorder without an allocation or a call back into the
   kernel.  One variant for every rule put the cert bench's recording
   overhead about two points higher. *)
type leaf = Refl | Beta | Assume
type pair = Trans | Mk_comb | Eq_mp | Deduct

type step =
  | Abs of Term.t * thm
  | Inst of (Term.t * Term.t) list * thm
  | Inst_type of (string * Ty.t) list * thm
  | Axiom of string
  | Definition of string

type hook = {
  epoch : int;
  leaf : leaf -> Term.t -> int;
  pair : pair -> int -> int -> thm -> thm -> int;
  step : step -> int;
}

(* ------------------------------------------------------------------ *)
(* Per-domain state: the rule counter and the hook                     *)
(* ------------------------------------------------------------------ *)

(* Domain-local, like the intern tables of Term and Ty: each domain
   counts only its own rule applications.  The hook is per-domain too: a
   recorder captures one domain's derivation, which is exactly the unit
   of work the pool schedules. *)

type rstate = { mutable rules : int; mutable hook : hook option }

let r_key = Domain.DLS.new_key (fun () -> { rules = 0; hook = None })
let rule_count () = (Domain.DLS.get r_key).rules

let set_hook h = (Domain.DLS.get r_key).hook <- h

(* One rule application on the calling domain: counted, and its state
   returned for the hook. *)
let count_rule () =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  st

(* ------------------------------------------------------------------ *)
(* Theory extension registries                                         *)
(* ------------------------------------------------------------------ *)

(* Guarded by one mutex so worker domains can read a consistent view
   (certificate headers are built from these on whichever domain ran
   the synthesis).  Lists are kept in reverse insertion order and
   re-reversed by the accessors, so readers always see insertion
   order — the deterministic order certificate headers rely on. *)

let ext_mu = Mutex.create ()
let the_definitions : (string * thm) list ref = ref []
let the_axioms : (string * thm) list ref = ref []
let the_registered : (string * thm) list ref = ref []

let axioms () = Mutex.protect ext_mu (fun () -> List.rev !the_axioms)
let definitions () = Mutex.protect ext_mu (fun () -> List.rev !the_definitions)

let registered_theorems () =
  Mutex.protect ext_mu (fun () -> List.rev !the_registered)

let register_theorem name th =
  Mutex.protect ext_mu (fun () ->
      if List.mem_assoc name !the_registered then
        failwith ("Kernel.register_theorem: already registered: " ^ name)
      else the_registered := (name, th) :: !the_registered)

(* ------------------------------------------------------------------ *)
(* Primitive rules                                                     *)
(* ------------------------------------------------------------------ *)

let pair_ix h rule th1 th2 =
  h.pair rule (step_index h.epoch th1) (step_index h.epoch th2) th1 th2

(* Each rule checks its side conditions and builds its result's terms
   first, then, if a hook is set, passes the inference to it and stamps
   the result with the hook's epoch and the step index it returned.  An
   ill-formed inference therefore fails before the recorder sees it. *)

let refl t =
  let st = count_rule () in
  match st.hook with
  | None -> Eq { hyps = []; lhs = t; rhs = t; ep = 0; ix = -1 }
  | Some h ->
      let ix = h.leaf Refl t in
      Eq { hyps = []; lhs = t; rhs = t; ep = h.epoch; ix }

let trans th1 th2 =
  let st = count_rule () in
  match (th1, th2) with
  | Eq e1, Eq e2 -> (
      if not (Term.aconv e1.rhs e2.lhs) then
        failwith "Kernel.trans: middle terms differ"
      else
        let hyps = term_union e1.hyps e2.hyps in
        match st.hook with
        | None -> Eq { hyps; lhs = e1.lhs; rhs = e2.rhs; ep = 0; ix = -1 }
        | Some h ->
            let ix = pair_ix h Trans th1 th2 in
            Eq { hyps; lhs = e1.lhs; rhs = e2.rhs; ep = h.epoch; ix })
  | _ -> failwith "Kernel.trans: not an equation"

let mk_comb_rule th1 th2 =
  let st = count_rule () in
  match (th1, th2) with
  | Eq { hyps = h1; lhs = f; rhs = g; _ }, Eq { hyps = h2; lhs = x; rhs = y; _ }
    -> (
      (match (Term.type_of f).Ty.node with
      | Ty.Tyapp ("fun", [ a; _ ]) when a == Term.type_of x -> ()
      | _ -> failwith "Kernel.mk_comb_rule: types do not agree");
      let hyps = term_union h1 h2 in
      let lhs = Term.mk_comb f x and rhs = Term.mk_comb g y in
      match st.hook with
      | None -> Eq { hyps; lhs; rhs; ep = 0; ix = -1 }
      | Some h ->
          let ix = pair_ix h Mk_comb th1 th2 in
          Eq { hyps; lhs; rhs; ep = h.epoch; ix })
  | _ -> failwith "Kernel.mk_comb_rule: not an equation"

let abs v th =
  let st = count_rule () in
  match th with
  | Prop _ -> failwith "Kernel.abs: not an equation"
  | Eq { hyps; lhs = l; rhs = r; _ } -> (
      if not (Term.is_var v) then failwith "Kernel.abs: not a variable"
      else if List.exists (Term.free_in v) hyps then
        failwith "Kernel.abs: variable free in hypotheses"
      else
        let lhs = Term.mk_abs v l and rhs = Term.mk_abs v r in
        match st.hook with
        | None -> Eq { hyps; lhs; rhs; ep = 0; ix = -1 }
        | Some h ->
            let ix = h.step (Abs (v, th)) in
            Eq { hyps; lhs; rhs; ep = h.epoch; ix })

let beta tm =
  let st = count_rule () in
  match tm.Term.node with
  | Term.Comb ({ Term.node = Term.Abs (v, body); _ }, arg) when arg == v -> (
      match st.hook with
      | None -> Eq { hyps = []; lhs = tm; rhs = body; ep = 0; ix = -1 }
      | Some h ->
          let ix = h.leaf Beta tm in
          Eq { hyps = []; lhs = tm; rhs = body; ep = h.epoch; ix })
  | _ -> failwith "Kernel.beta: not a trivial beta-redex"

let assume p =
  let st = count_rule () in
  if not (Ty.equal (Term.type_of p) Ty.bool) then
    failwith "Kernel.assume: not a proposition"
  else
    match st.hook with
    | None -> of_concl [ p ] p 0 (-1)
    | Some h ->
        let ix = h.leaf Assume p in
        of_concl [ p ] p h.epoch ix

(* [Term.aconv a (concl th)], reading an equational [th] by its sides
   instead of building its conclusion: an equation is alpha-equivalent
   to [l = r] exactly when its sides are to [l] and [r] (equal sides
   have equal types, so the two [=] constants coincide). *)
let aconv_concl a = function
  | Prop p -> Term.aconv a p.concl
  | Eq e ->
      Term.is_eq a
      &&
      let l, r = Term.dest_eq a in
      Term.aconv l e.lhs && Term.aconv r e.rhs

let eq_mp th1 th2 =
  let st = count_rule () in
  match th1 with
  | Prop _ -> failwith "Kernel.eq_mp: not an equation"
  | Eq { lhs = a; rhs = b; hyps = h1; _ } -> (
      if not (aconv_concl a th2) then
        failwith "Kernel.eq_mp: theorems do not align"
      else
        let hyps = term_union h1 (hyp th2) in
        match st.hook with
        | None -> of_concl hyps b 0 (-1)
        | Some h ->
            let ix = pair_ix h Eq_mp th1 th2 in
            of_concl hyps b h.epoch ix)

let deduct_antisym_rule th1 th2 =
  let st = count_rule () in
  let p = concl th1 and q = concl th2 in
  let hyps = term_union (term_remove q (hyp th1)) (term_remove p (hyp th2)) in
  match st.hook with
  | None -> Eq { hyps; lhs = p; rhs = q; ep = 0; ix = -1 }
  | Some h ->
      let ix = pair_ix h Deduct th1 th2 in
      Eq { hyps; lhs = p; rhs = q; ep = h.epoch; ix }

(* [inst] and [inst_type] substitute into both sides of an equation
   separately; substitution never crosses the [=] node, so the result is
   the one substituting into the whole conclusion would give.  An empty
   substitution returns the premise itself and counts no rule. *)
let subst_rule sub step th =
  let st = count_rule () in
  let hyps = term_image sub (hyp th) in
  let record () = match st.hook with None -> -1 | Some h -> h.step step in
  let ep = match st.hook with None -> 0 | Some h -> h.epoch in
  match th with
  | Eq e ->
      let lhs = sub e.lhs and rhs = sub e.rhs in
      Eq { hyps; lhs; rhs; ep; ix = record () }
  | Prop p ->
      let c = sub p.concl in
      of_concl hyps c ep (record ())

let inst theta th =
  if theta = [] then th
  else subst_rule (Term.vsubst theta) (Inst (theta, th)) th

let inst_type tyin th =
  if tyin = [] then th
  else subst_rule (Term.inst tyin) (Inst_type (tyin, th)) th

(* ------------------------------------------------------------------ *)
(* Extension principles                                                *)
(* ------------------------------------------------------------------ *)

let new_basic_definition eq =
  let l, r = Term.dest_eq eq in
  let name, ty = Term.dest_var l in
  if Term.frees r <> [] then
    failwith "Kernel.new_basic_definition: definiens has free variables"
  else if
    not
      (List.for_all
         (fun v -> List.mem v (Ty.tyvars ty))
         (List.concat_map (fun v -> Ty.tyvars (snd (Term.dest_var v)))
            (Term.frees r))
      && List.for_all
           (fun v -> List.mem v (Ty.tyvars ty))
           (Ty.tyvars (Term.type_of r)))
  then failwith "Kernel.new_basic_definition: type variables escape"
  else begin
    new_constant name ty;
    let st = count_rule () in
    let c = mk_const name [] in
    let th =
      match st.hook with
      | None -> Eq { hyps = []; lhs = c; rhs = r; ep = 0; ix = -1 }
      | Some h ->
          let ix = h.step (Definition name) in
          Eq { hyps = []; lhs = c; rhs = r; ep = h.epoch; ix }
    in
    Mutex.protect ext_mu (fun () ->
        the_definitions := (name, th) :: !the_definitions);
    th
  end

let new_axiom name p =
  if not (Ty.equal (Term.type_of p) Ty.bool) then
    failwith "Kernel.new_axiom: not a proposition"
  else begin
    let st = count_rule () in
    let th =
      match st.hook with
      | None -> of_concl [] p 0 (-1)
      | Some h ->
          let ix = h.step (Axiom name) in
          of_concl [] p h.epoch ix
    in
    Mutex.protect ext_mu (fun () -> the_axioms := (name, th) :: !the_axioms);
    th
  end
