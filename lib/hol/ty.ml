(* Hash-consed types.  Every [t] in the program is interned in an
   open-addressed table, so structural equality coincides with physical
   equality and [compare] is a single int comparison on ids.  The table is
   strong: the set of distinct types in a run is small (bounded by the
   circuit's tuple shapes), so nothing is ever evicted.

   The table lives in domain-local state (Domain.DLS): each OCaml 5
   domain interns into its own table, so parallel engine runs never
   contend on it.  Worker domains are seeded from a frozen snapshot of
   the spawning domain's table (see [freeze]), which keeps the physical-
   equality invariant valid for every type built during module
   initialisation (Ty.bool, the signature's generic types, ...) even when
   those shared nodes flow into worker domains. *)

type t = { id : int; hash : int; node : node }
and node = Tyvar of string | Tyapp of string * t list

(* Same mixer as the BDD unique table: cheap, good avalanche on ids. *)
let mix h k =
  let h = h + (k * 0x2545f4914f6cdd1) in
  let h = (h lxor (h lsr 29)) * 0x85ebca6b in
  (h lxor (h lsr 16)) land max_int

let hash_node = function
  | Tyvar v -> mix 1 (Hashtbl.hash v)
  | Tyapp (op, args) ->
      List.fold_left (fun h a -> mix h a.id) (mix 2 (Hashtbl.hash op)) args

let node_equal n1 n2 =
  match (n1, n2) with
  | Tyvar a, Tyvar b -> String.equal a b
  | Tyapp (o1, a1), Tyapp (o2, a2) ->
      String.equal o1 o2 && List.length a1 = List.length a2
      && List.for_all2 (fun x y -> x == y) a1 a2
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Domain-local intern table                                           *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable tab : t option array; (* open-addressed, linear probing *)
  mutable tab_mask : int;
  mutable count : int;
  mutable next_id : int;
}

type frozen = {
  f_tab : t option array;
  f_mask : int;
  f_count : int;
  f_next_id : int;
}

let frozen_mu = Mutex.create ()
let the_frozen : frozen option ref = ref None

let fresh_state () =
  { tab = Array.make 1024 None; tab_mask = 1023; count = 0; next_id = 0 }

let state_of_frozen f =
  { tab = Array.copy f.f_tab; tab_mask = f.f_mask; count = f.f_count;
    next_id = f.f_next_id }

let key =
  Domain.DLS.new_key (fun () ->
      match Mutex.protect frozen_mu (fun () -> !the_frozen) with
      | None -> fresh_state ()
      | Some f -> state_of_frozen f)

let state () = Domain.DLS.get key

let freeze () =
  let st = state () in
  let f =
    { f_tab = Array.copy st.tab; f_mask = st.tab_mask; f_count = st.count;
      f_next_id = st.next_id }
  in
  Mutex.protect frozen_mu (fun () -> the_frozen := Some f)

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

let rec insert_raw arr mask ty =
  let rec go i =
    match arr.(i) with
    | None -> arr.(i) <- Some ty
    | Some _ -> go ((i + 1) land mask)
  in
  go (ty.hash land mask)

and grow st =
  let old = st.tab in
  let size = 2 * Array.length old in
  let arr = Array.make size None in
  let mask = size - 1 in
  Array.iter (function None -> () | Some ty -> insert_raw arr mask ty) old;
  st.tab <- arr;
  st.tab_mask <- mask

let intern node =
  let st = state () in
  let h = hash_node node in
  let rec probe i =
    match st.tab.(i) with
    | None ->
        let ty = { id = st.next_id; hash = h; node } in
        st.next_id <- st.next_id + 1;
        st.tab.(i) <- Some ty;
        st.count <- st.count + 1;
        if st.count * 10 > Array.length st.tab * 7 then grow st;
        ty
    | Some ty ->
        if ty.hash = h && node_equal ty.node node then ty
        else probe ((i + 1) land st.tab_mask)
  in
  probe (h land st.tab_mask)

let var v = intern (Tyvar v)
let app op args = intern (Tyapp (op, args))
let node_count () = (state ()).next_id

let bool = app "bool" []
let num = app "num" []
let alpha = var "a"
let beta = var "b"
let gamma = var "c"
let delta = var "d"
let fn a b = app "fun" [ a; b ]
let prod a b = app "prod" [ a; b ]
let list a = app "list" [ a ]
let bv = list bool

let dest_fn ty =
  match ty.node with
  | Tyapp ("fun", [ a; b ]) -> (a, b)
  | _ -> failwith "Ty.dest_fn: not a function type"

let dest_prod ty =
  match ty.node with
  | Tyapp ("prod", [ a; b ]) -> (a, b)
  | _ -> failwith "Ty.dest_prod: not a product type"

let rec tyvars_acc acc ty =
  match ty.node with
  | Tyvar v -> if List.mem v acc then acc else v :: acc
  | Tyapp (_, args) -> List.fold_left tyvars_acc acc args

let tyvars ty = List.rev (tyvars_acc [] ty)

let rec subst theta ty =
  match ty.node with
  | Tyvar v -> ( match List.assoc_opt v theta with Some t -> t | None -> ty)
  | Tyapp (op, args) ->
      let args' = List.map (subst theta) args in
      if List.for_all2 (fun a b -> a == b) args args' then ty else app op args'

let rec match_ pat concrete acc =
  match (pat.node, concrete.node) with
  | Tyvar v, _ -> (
      match List.assoc_opt v acc with
      | Some t ->
          if t == concrete then acc else failwith "Ty.match_: clashing binding"
      | None -> (v, concrete) :: acc)
  | Tyapp (op1, args1), Tyapp (op2, args2)
    when op1 = op2 && List.length args1 = List.length args2 ->
      List.fold_left2 (fun acc p c -> match_ p c acc) acc args1 args2
  | _ -> failwith "Ty.match_: structural mismatch"

let compare a b = Int.compare a.id b.id
let equal a b = a == b
