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
      ep : int; (* recording epoch this thm was proved under; 0 = none *)
      ix : int; (* step index in that epoch's trace; -1 = not recorded *)
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

let dest_thm th = (hyp th, concl th)

(* The trace step proving [th] if it was recorded under epoch [ep],
   else -1. *)
let[@inline] ix_in ep = function
  | Eq e -> if e.ep = ep then e.ix else -1
  | Prop p -> if p.ep = ep then p.ix else -1

let pp_thm ppf th =
  match hyp th with
  | [] -> Format.fprintf ppf "|- %a" Term.pp (concl th)
  | hs ->
      Format.fprintf ppf "%a |- %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Term.pp)
        hs Term.pp (concl th)

let string_of_thm th = Format.asprintf "%a" pp_thm th

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
(* Proof traces                                                        *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  (* One event per primitive inference, in derivation order.  Integer
     operands are indices of earlier events in the same trace.  The
     three reference events ([Axiom_ref], [Def_ref], [Import]) are not
     inferences: they pull a theorem of the ambient theory (an axiom, a
     definitional theorem, or a theorem registered with
     [register_theorem]) into the trace by name, so an independent
     checker can resolve it against its own theory and verify the
     sequent instead of trusting ours. *)
  type event =
    | Refl of Term.t
    | Trans of int * int
    | Mk_comb of int * int
    | Abs of Term.t * int
    | Beta of Term.t
    | Assume of Term.t
    | Eq_mp of int * int
    | Deduct of int * int
    | Inst of (Term.t * Term.t) list * int
    | Inst_type of (string * Ty.t) list * int
    | Axiom_ref of string
    | Def_ref of string
    | Import of string

  (* Stored as a struct of arrays — a tag byte and two integer
     operands per step, with a boxed payload slot only for the events
     that carry one (terms, substitutions, names).  The dominant
     events of a synthesis proof (trans / mk_comb / eq_mp / deduct)
     then record with three unboxed stores and no allocation, which is
     what keeps the recording overhead a few percent instead of
     tens. *)
  type payload =
    | P_none
    | P_subst of (Term.t * Term.t) list
    | P_tysubst of (string * Ty.t) list
    | P_name of string

  (* Term payloads (refl/abs/beta/assume — a third of a typical trace)
     live in their own [Term.t array] rather than behind a [payload]
     constructor: the per-event box would be promoted out of the minor
     heap on every collection, and that churn dominates recording cost.
     The remaining payload kinds are rare (substitutions, theory-ref
     names) and stay boxed. *)
  type t = {
    t_epoch : int;
    tags : Bytes.t;
    opa : int array;
    opb : int array;
    tms : Term.t array;
    pay : payload array;
  }

  let length tr = Bytes.length tr.tags

  let event tr k =
    let a = Array.unsafe_get tr.opa k and b = Array.unsafe_get tr.opb k in
    match (Bytes.get tr.tags k, Array.unsafe_get tr.pay k) with
    | 'r', _ -> Refl (Array.unsafe_get tr.tms k)
    | 't', _ -> Trans (a, b)
    | 'c', _ -> Mk_comb (a, b)
    | 'l', _ -> Abs (Array.unsafe_get tr.tms k, a)
    | 'b', _ -> Beta (Array.unsafe_get tr.tms k)
    | 'a', _ -> Assume (Array.unsafe_get tr.tms k)
    | 'm', _ -> Eq_mp (a, b)
    | 'd', _ -> Deduct (a, b)
    | 'i', P_subst s -> Inst (s, a)
    | 'y', P_tysubst s -> Inst_type (s, a)
    | 'A', P_name n -> Axiom_ref n
    | 'D', P_name n -> Def_ref n
    | 'I', P_name n -> Import n
    | _ -> assert false
end

(* ------------------------------------------------------------------ *)
(* Rule counter and per-domain recording state                         *)
(* ------------------------------------------------------------------ *)

(* Per-domain, registered for cross-domain totals (see Term/Ty for the
   same pattern).  Recording is also per-domain: a trace captures one
   domain's derivation, which is exactly the unit of work the pool
   schedules. *)

type rec_state = {
  mutable r_epoch : int;
  mutable r_tags : Bytes.t;
  mutable r_a : int array;
  mutable r_b : int array;
  mutable r_tm : Term.t array;
  mutable r_pay : Trace.payload array;
  mutable r_n : int;
  r_imports : (int * int, thm * int) Hashtbl.t;
      (* resolved theory refs, keyed by [import_key] (imports are closed
         theorems, so their hash-consed sides identify one; the stored
         thm re-checks physical equality on hit) *)
  mutable r_poison : string option; (* first unresolvable input, if any *)
}

type rstate = {
  mutable rules : int;
  mutable recb : rec_state option;
  mutable r_spare : rec_state option;
      (* retired recording buffers, reused by the next [start_recording]
         on this domain: repeated recordings (serve daemon, benchmarks)
         would otherwise re-grow multi-thousand-entry arrays each run,
         and the major-heap churn of that costs more than the recording
         itself *)
}

let r_registry_mu = Mutex.create ()
let r_registry : rstate list ref = ref []

let r_key =
  Domain.DLS.new_key (fun () ->
      let st = { rules = 0; recb = None; r_spare = None } in
      Mutex.protect r_registry_mu (fun () -> r_registry := st :: !r_registry);
      st)

let rule_count () = (Domain.DLS.get r_key).rules

let total_rule_count () =
  Mutex.protect r_registry_mu (fun () ->
      List.fold_left (fun acc st -> acc + st.rules) 0 !r_registry)

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

(* Resolve a theorem proved outside the current trace: it must be an
   axiom, a definitional theorem, or a registered theorem — found by
   physical equality, which hash-consing makes equivalent to "the same
   theorem value the theory module exported". *)
let lookup_extension th =
  Mutex.protect ext_mu (fun () ->
      let find l = List.find_opt (fun (_, t) -> t == th) l in
      match find !the_axioms with
      | Some (n, _) -> Some ('A', n)
      | None -> (
          match find !the_definitions with
          | Some (n, _) -> Some ('D', n)
          | None -> (
              match find !the_registered with
              | Some (n, _) -> Some ('I', n)
              | None -> None)))

(* ------------------------------------------------------------------ *)
(* Recording plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* Filler for unused slots of the term-payload array (never read: the
   tag byte says which slots carry a term). *)
let dummy_tm = lazy (Term.mk_var "?trace" Ty.bool)

let grow rs =
  let cap = if rs.r_n = 0 then 1024 else 2 * rs.r_n in
  let tags = Bytes.make cap ' ' in
  Bytes.blit rs.r_tags 0 tags 0 rs.r_n;
  let a = Array.make cap (-1) in
  Array.blit rs.r_a 0 a 0 rs.r_n;
  let b = Array.make cap (-1) in
  Array.blit rs.r_b 0 b 0 rs.r_n;
  let tm = Array.make cap (Lazy.force dummy_tm) in
  Array.blit rs.r_tm 0 tm 0 rs.r_n;
  let p = Array.make cap Trace.P_none in
  Array.blit rs.r_pay 0 p 0 rs.r_n;
  rs.r_tags <- tags;
  rs.r_a <- a;
  rs.r_b <- b;
  rs.r_tm <- tm;
  rs.r_pay <- p

(* The payload-free push: three unboxed stores and a counter bump.
   Trans/mk_comb/eq_mp/deduct — the bulk of a synthesis trace — go
   through here and never touch the payload arrays (their slots keep
   the filler values, which [Trace.event] never reads for these
   tags). *)
let push rs tag i j =
  if rs.r_n = Bytes.length rs.r_tags then grow rs;
  let k = rs.r_n in
  Bytes.unsafe_set rs.r_tags k tag;
  Array.unsafe_set rs.r_a k i;
  Array.unsafe_set rs.r_b k j;
  rs.r_n <- k + 1;
  k

let push_tm rs tag i tm =
  let k = push rs tag i (-1) in
  Array.unsafe_set rs.r_tm k tm;
  k

let push_pay rs tag i p =
  let k = push rs tag i (-1) in
  Array.unsafe_set rs.r_pay k p;
  k

(* The key of [th] in [r_imports]: the ids of the stored sides of an
   equation, or of the stored conclusion otherwise.  Those nodes live as
   long as [th] does, so the key is stable; a rebuilt conclusion node
   would not be. *)
let import_key = function
  | Eq e -> (e.lhs.Term.id, e.rhs.Term.id)
  | Prop p -> (p.concl.Term.id, -1)

(* The step index standing for input theorem [th], appending a
   reference event if it comes from the ambient theory.  Returns -1 and
   poisons the trace when [th] cannot be accounted for (e.g. it leaked
   out of a memo table populated before recording started): the proof
   itself proceeds untouched, but [stop_recording] reports the failure
   instead of emitting a bogus certificate. *)
let input rs th =
  let i = ix_in rs.r_epoch th in
  if i >= 0 then i
  else if not (rs.r_poison == None) then -1
  else
    let key = import_key th in
    match Hashtbl.find_opt rs.r_imports key with
    | Some (t, i) when t == th -> i
    | _ -> (
        match lookup_extension th with
        | Some (tag, name) ->
            let i = push_pay rs tag (-1) (Trace.P_name name) in
            Hashtbl.replace rs.r_imports key (th, i);
            i
        | None ->
            rs.r_poison <-
              Some
                ("input theorem proved outside the trace and not in the \
                  theory: " ^ string_of_thm th);
            -1)

(* The recorders below append the event for one inference and return
   its step index, or -1 once the trace is poisoned; the rule builds
   its theorem with that index under the current epoch. *)

let rec0_tm_slow rs tag tm =
  if not (rs.r_poison == None) then -1 else push_tm rs tag (-1) tm

let[@inline] rec0_tm rs tag tm =
  let k = rs.r_n in
  if rs.r_poison == None && k < Bytes.length rs.r_tags then begin
    Bytes.unsafe_set rs.r_tags k tag;
    Array.unsafe_set rs.r_a k (-1);
    Array.unsafe_set rs.r_b k (-1);
    Array.unsafe_set rs.r_tm k tm;
    rs.r_n <- k + 1;
    k
  end
  else rec0_tm_slow rs tag tm

let rec0_pay rs tag p =
  if not (rs.r_poison == None) then -1 else push_pay rs tag (-1) p

let rec1_tm rs th tag tm =
  let i = input rs th in
  if i < 0 then -1 else push_tm rs tag i tm

let rec1_pay rs th tag p =
  let i = input rs th in
  if i < 0 then -1 else push_pay rs tag i p

let rec2_slow rs th1 th2 tag =
  let i = input rs th1 in
  let j = input rs th2 in
  if i < 0 || j < 0 then -1 else push rs tag i j

(* Specialised for the common case — both premises recorded in this
   trace and the buffer has room — with a tail call to the general
   path otherwise.  [@inline] is advisory without flambda, so the hot
   primitives below inline this test by hand instead of paying three
   nested calls per inference. *)
let[@inline] rec2 rs th1 th2 tag =
  let ep = rs.r_epoch in
  let k = rs.r_n in
  let i = ix_in ep th1 and j = ix_in ep th2 in
  if i >= 0 && j >= 0 && k < Bytes.length rs.r_tags then begin
    Bytes.unsafe_set rs.r_tags k tag;
    Array.unsafe_set rs.r_a k i;
    Array.unsafe_set rs.r_b k j;
    rs.r_n <- k + 1;
    k
  end
  else rec2_slow rs th1 th2 tag

let epoch_ctr = Atomic.make 0

let start_recording () =
  let st = Domain.DLS.get r_key in
  (match st.recb with
  | Some _ -> failwith "Kernel.start_recording: already recording"
  | None -> ());
  (* Theorems memoised before this point would surface mid-proof as
     inputs with no recorded derivation; drop them now.  Any that slip
     through anyway (foreign epoch) poison the trace rather than
     corrupt it. *)
  Memo.release_domain ();
  let ep = 1 + Atomic.fetch_and_add epoch_ctr 1 in
  let rs =
    match st.r_spare with
    | Some rs ->
        st.r_spare <- None;
        rs.r_epoch <- ep;
        rs.r_n <- 0;
        (* drop payload pointers left over from the previous recording,
           so a reused buffer does not keep its terms alive *)
        Array.fill rs.r_pay 0 (Array.length rs.r_pay) Trace.P_none;
        Array.fill rs.r_tm 0 (Array.length rs.r_tm) (Lazy.force dummy_tm);
        Hashtbl.reset rs.r_imports;
        rs.r_poison <- None;
        rs
    | None ->
        {
          r_epoch = ep;
          r_tags = Bytes.empty;
          r_a = [||];
          r_b = [||];
          r_tm = [||];
          r_pay = [||];
          r_n = 0;
          r_imports = Hashtbl.create 64;
          r_poison = None;
        }
  in
  st.recb <- Some rs

let stop_recording () =
  let st = Domain.DLS.get r_key in
  match st.recb with
  | None -> failwith "Kernel.stop_recording: not recording"
  | Some rs -> (
      st.recb <- None;
      st.r_spare <- Some rs;
      match rs.r_poison with
      | Some msg -> Error msg
      | None ->
          Ok
            {
              Trace.t_epoch = rs.r_epoch;
              tags = Bytes.sub rs.r_tags 0 rs.r_n;
              opa = Array.sub rs.r_a 0 rs.r_n;
              opb = Array.sub rs.r_b 0 rs.r_n;
              tms = Array.sub rs.r_tm 0 rs.r_n;
              pay = Array.sub rs.r_pay 0 rs.r_n;
            })

let step_in (tr : Trace.t) th =
  let i = ix_in tr.Trace.t_epoch th in
  if i >= 0 then Some i else None

(* ------------------------------------------------------------------ *)
(* Primitive rules                                                     *)
(* ------------------------------------------------------------------ *)

let refl t =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match st.recb with
  | None -> Eq { hyps = []; lhs = t; rhs = t; ep = 0; ix = -1 }
  | Some rs ->
      let ix = rec0_tm rs 'r' t in
      Eq { hyps = []; lhs = t; rhs = t; ep = rs.r_epoch; ix }

let trans th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match (th1, th2) with
  | Eq e1, Eq e2 -> (
      if not (Term.aconv e1.rhs e2.lhs) then
        failwith "Kernel.trans: middle terms differ"
      else
        let hyps = term_union e1.hyps e2.hyps in
        match st.recb with
        | None -> Eq { hyps; lhs = e1.lhs; rhs = e2.rhs; ep = 0; ix = -1 }
        | Some rs ->
            let ix = rec2 rs th1 th2 't' in
            Eq { hyps; lhs = e1.lhs; rhs = e2.rhs; ep = rs.r_epoch; ix })
  | _ -> failwith "Kernel.trans: not an equation"

let mk_comb_rule th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match (th1, th2) with
  | Eq { hyps = h1; lhs = f; rhs = g; _ }, Eq { hyps = h2; lhs = x; rhs = y; _ }
    -> (
      (match (Term.type_of f).Ty.node with
      | Ty.Tyapp ("fun", [ a; _ ]) when a == Term.type_of x -> ()
      | _ -> failwith "Kernel.mk_comb_rule: types do not agree");
      let hyps = term_union h1 h2 in
      let lhs = Term.mk_comb f x and rhs = Term.mk_comb g y in
      match st.recb with
      | None -> Eq { hyps; lhs; rhs; ep = 0; ix = -1 }
      | Some rs ->
          let ix = rec2 rs th1 th2 'c' in
          Eq { hyps; lhs; rhs; ep = rs.r_epoch; ix })
  | _ -> failwith "Kernel.mk_comb_rule: not an equation"

let abs v th =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match th with
  | Prop _ -> failwith "Kernel.abs: not an equation"
  | Eq { hyps; lhs = l; rhs = r; _ } -> (
      if not (Term.is_var v) then failwith "Kernel.abs: not a variable"
      else if List.exists (Term.free_in v) hyps then
        failwith "Kernel.abs: variable free in hypotheses"
      else
        let lhs = Term.mk_abs v l and rhs = Term.mk_abs v r in
        match st.recb with
        | None -> Eq { hyps; lhs; rhs; ep = 0; ix = -1 }
        | Some rs ->
            let ix = rec1_tm rs th 'l' v in
            Eq { hyps; lhs; rhs; ep = rs.r_epoch; ix })

let beta tm =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match tm.Term.node with
  | Term.Comb ({ Term.node = Term.Abs (v, body); _ }, arg) when arg == v -> (
      match st.recb with
      | None -> Eq { hyps = []; lhs = tm; rhs = body; ep = 0; ix = -1 }
      | Some rs ->
          let ix = rec0_tm rs 'b' tm in
          Eq { hyps = []; lhs = tm; rhs = body; ep = rs.r_epoch; ix })
  | _ -> failwith "Kernel.beta: not a trivial beta-redex"

let assume p =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if not (Ty.equal (Term.type_of p) Ty.bool) then
    failwith "Kernel.assume: not a proposition"
  else
    match st.recb with
    | None -> of_concl [ p ] p 0 (-1)
    | Some rs ->
        let ix = rec0_tm rs 'a' p in
        of_concl [ p ] p rs.r_epoch ix

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
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  match th1 with
  | Prop _ -> failwith "Kernel.eq_mp: not an equation"
  | Eq { lhs = a; rhs = b; hyps = h1; _ } -> (
      if not (aconv_concl a th2) then
        failwith "Kernel.eq_mp: theorems do not align"
      else
        let hyps = term_union h1 (hyp th2) in
        match st.recb with
        | None -> of_concl hyps b 0 (-1)
        | Some rs ->
            let ix = rec2 rs th1 th2 'm' in
            of_concl hyps b rs.r_epoch ix)

let deduct_antisym_rule th1 th2 =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  let p = concl th1 and q = concl th2 in
  let hyps = term_union (term_remove q (hyp th1)) (term_remove p (hyp th2)) in
  match st.recb with
  | None -> Eq { hyps; lhs = p; rhs = q; ep = 0; ix = -1 }
  | Some rs ->
      let ix = rec2 rs th1 th2 'd' in
      Eq { hyps; lhs = p; rhs = q; ep = rs.r_epoch; ix }

(* [inst] and [inst_type] substitute into both sides of an equation
   separately; substitution never crosses the [=] node, so the result is
   the one substituting into the whole conclusion would give.  The
   substitution runs before the event is recorded, so an ill-typed one
   fails without touching the trace. *)
let subst_rule st sub tag pay th =
  let hyps = term_image sub (hyp th) in
  let record () =
    match st.recb with None -> -1 | Some rs -> rec1_pay rs th tag pay
  in
  let ep = match st.recb with None -> 0 | Some rs -> rs.r_epoch in
  match th with
  | Eq e ->
      let lhs = sub e.lhs and rhs = sub e.rhs in
      Eq { hyps; lhs; rhs; ep; ix = record () }
  | Prop p ->
      let c = sub p.concl in
      of_concl hyps c ep (record ())

let inst theta th =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if theta = [] then th
  else subst_rule st (Term.vsubst theta) 'i' (Trace.P_subst theta) th

let inst_type tyin th =
  let st = Domain.DLS.get r_key in
  st.rules <- st.rules + 1;
  if tyin = [] then th
  else subst_rule st (Term.inst tyin) 'y' (Trace.P_tysubst tyin) th

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
    let st = Domain.DLS.get r_key in
    st.rules <- st.rules + 1;
    let c = mk_const name [] in
    let th =
      match st.recb with
      | None -> Eq { hyps = []; lhs = c; rhs = r; ep = 0; ix = -1 }
      | Some rs ->
          let ix = rec0_pay rs 'D' (Trace.P_name name) in
          Eq { hyps = []; lhs = c; rhs = r; ep = rs.r_epoch; ix }
    in
    Mutex.protect ext_mu (fun () ->
        the_definitions := (name, th) :: !the_definitions);
    th
  end

let new_axiom name p =
  if not (Ty.equal (Term.type_of p) Ty.bool) then
    failwith "Kernel.new_axiom: not a proposition"
  else begin
    let st = Domain.DLS.get r_key in
    st.rules <- st.rules + 1;
    let th =
      match st.recb with
      | None -> of_concl [] p 0 (-1)
      | Some rs ->
          let ix = rec0_pay rs 'A' (Trace.P_name name) in
          of_concl [] p rs.r_epoch ix
    in
    Mutex.protect ext_mu (fun () -> the_axioms := (name, th) :: !the_axioms);
    th
  end
