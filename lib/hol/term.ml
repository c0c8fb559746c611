(* Hash-consed terms.  Every node is interned in a weak hash-set, so
   structurally equal terms are physically equal, [aconv] and the
   substitution machinery get O(1) equality fast paths, [type_of] is a
   field read, and the free-variable set of every node is a precomputed
   exact bitset over compact variable indices.  The table is weak: kernel
   rules allocate equation spines per theorem (millions of nodes on the
   big benchmarks) and a strong table would pin them all; uniqueness only
   needs to hold among live nodes, and ids are never reused, so entries of
   collected nodes simply vanish.

   The table is open-addressed: one [Weak.t] of power-of-two capacity
   and a parallel array of the nodes' hashes, -1 for a slot never used.
   A lookup probes linearly and compares the stored hash before it reads
   the weak slot.  A slot whose node was collected keeps its hash, so
   probe chains stay intact and a new node only takes a never-used slot.
   Once the used slots pass half the capacity the table is rebuilt from
   its live entries into at least four times their number (and at least
   4 096 slots), so it shrinks as readily as it grows.  Entries move only
   through [Weak.get] and [Weak.set]: [Weak.blit] hung an earlier
   open-addressed table.

   All of the mutable machinery (the weak intern table, id counter, the
   compact variable index, the alpha-order memo and the statistics
   counters) is domain-local (Domain.DLS), so parallel engine runs never
   contend on it.  Worker domains are seeded from a frozen snapshot of
   the spawning domain's live nodes (see [freeze]): the snapshot's nodes
   are inserted into the worker's fresh table and the id counter resumes
   above them, so terms built during module initialisation (the retiming
   theorem, the Boolean clause library, ...) keep their physical-equality
   property inside every worker.  Terms built in one domain after the
   freeze must not flow into another domain: ids are only unique within a
   domain (plus the shared seed). *)

type t = {
  id : int; (* unique within a domain; first field so polymorphic compare is O(1) *)
  hash : int;
  ty : Ty.t; (* cached type_of *)
  fv : Bits.t; (* exact free-variable set, by compact var index *)
  node : node;
}

and node =
  | Var of string * Ty.t
  | Const of string * Ty.t
  | Comb of t * t
  | Abs of t * t

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

let mix h k =
  let h = h + (k * 0x2545f4914f6cdd1) in
  let h = (h lxor (h lsr 29)) * 0x85ebca6b in
  (h lxor (h lsr 16)) land max_int

(* Shallow equality: children and types are already interned, so one
   physical comparison per field decides structural equality. *)
let same_node a b =
  match (a, b) with
  | Var (n1, t1), Var (n2, t2) -> t1 == t2 && String.equal n1 n2
  | Const (n1, t1), Const (n2, t2) -> t1 == t2 && String.equal n1 n2
  | Comb (f1, x1), Comb (f2, x2) -> f1 == f2 && x1 == x2
  | Abs (v1, b1), Abs (v2, b2) -> v1 == v2 && b1 == b2
  | _ -> false

type table = {
  cells : t Weak.t;
  hashes : int array; (* -1 = never used *)
  mutable used : int; (* slots with a hash, live or collected *)
}

let table_for live =
  let n = ref 4096 in
  while !n < 4 * live do
    n := 2 * !n
  done;
  { cells = Weak.create !n; hashes = Array.make !n (-1); used = 0 }

let set_slot tab i t =
  tab.hashes.(i) <- t.hash;
  Weak.set tab.cells i (Some t);
  tab.used <- tab.used + 1

(* Insert a node known to be absent. *)
let add tab t =
  let mask = Array.length tab.hashes - 1 in
  let rec go i =
    if tab.hashes.(i) < 0 then set_slot tab i t else go ((i + 1) land mask)
  in
  go (t.hash land mask)

let iter_live f tab =
  Array.iteri
    (fun i h ->
      if h >= 0 then match Weak.get tab.cells i with Some t -> f t | None -> ())
    tab.hashes

(* Slots whose node is not yet cleared.  Unlike [Weak.get], [Weak.check]
   neither allocates nor keeps an unreachable node alive for the current
   major cycle. *)
let count_live tab =
  let n = ref 0 in
  Array.iteri
    (fun i h -> if h >= 0 && Weak.check tab.cells i then incr n)
    tab.hashes;
  !n

type stats = {
  intern_hits : int;
  intern_misses : int;
  live_nodes : int;
  peak_nodes : int;
  var_count : int;
  table_slots : int;
}

(* ------------------------------------------------------------------ *)
(* Domain-local state                                                  *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable tab : table;
  mutable next_id : int;
  mutable intern_hits : int;
  mutable intern_misses : int;
  mutable peak : int;
  (* Every distinct (name, type-id) variable gets a compact index at
     creation; [fv] bitsets live over these indices.  The reverse array
     pins the Var nodes (there are few distinct variables compared to
     term nodes). *)
  var_index_tbl : (string * int, int) Hashtbl.t;
  mutable var_terms : t option array;
  mutable n_vars : int;
  (* Alpha-ordering memo on id pairs (see [orda_memo]): packed into
     one int while both ids fit, else keyed by the pair itself. *)
  orda_cache : (int, int) Hashtbl.t;
  orda_wide : (int * int, int) Hashtbl.t;
  (* ty.id -> the equality constant at that type.  Every primitive rule
     builds equations; this skips two type interns and a weak-table probe
     per [mk_eq].  Also pins the constants against weak-table eviction
     (bounded by the number of distinct types). *)
  eq_consts : (int, t) Hashtbl.t;
  (* Strong references to the nodes seeded from the parent snapshot, so
     the weak table cannot evict the shared constants mid-run. *)
  pinned : t array;
}

type frozen = {
  f_terms : t array;
  f_next_id : int;
  f_var_index : (string * int, int) Hashtbl.t;
  f_var_terms : t option array;
  f_n_vars : int;
}

let frozen_mu = Mutex.create ()
let the_frozen : frozen option ref = ref None

let fresh_state () =
  {
    tab = table_for 0;
    next_id = 0;
    intern_hits = 0;
    intern_misses = 0;
    peak = 0;
    var_index_tbl = Hashtbl.create 1024;
    var_terms = Array.make 1024 None;
    n_vars = 0;
    orda_cache = Hashtbl.create 4096;
    orda_wide = Hashtbl.create 16;
    eq_consts = Hashtbl.create 64;
    pinned = [||];
  }

let state_of_frozen f =
  let tab = table_for (Array.length f.f_terms) in
  Array.iter (add tab) f.f_terms;
  {
    tab;
    next_id = f.f_next_id;
    intern_hits = 0;
    intern_misses = 0;
    peak = 0;
    var_index_tbl = Hashtbl.copy f.f_var_index;
    var_terms = Array.copy f.f_var_terms;
    n_vars = f.f_n_vars;
    orda_cache = Hashtbl.create 4096;
    orda_wide = Hashtbl.create 16;
    eq_consts = Hashtbl.create 64;
    pinned = f.f_terms;
  }

let key =
  Domain.DLS.new_key (fun () ->
      match Mutex.protect frozen_mu (fun () -> !the_frozen) with
      | None -> fresh_state ()
      | Some f -> state_of_frozen f)

let state () = Domain.DLS.get key

let freeze () =
  let st = state () in
  let terms = ref [] in
  iter_live (fun t -> terms := t :: !terms) st.tab;
  let f =
    {
      f_terms = Array.of_list !terms;
      f_next_id = st.next_id;
      f_var_index = Hashtbl.copy st.var_index_tbl;
      f_var_terms = Array.copy st.var_terms;
      f_n_vars = st.n_vars;
    }
  in
  Mutex.protect frozen_mu (fun () -> the_frozen := Some f)

(* Rebuild from the live entries, which also samples the peak. *)
let rebuild st =
  let old = st.tab in
  let n = count_live old in
  if n > st.peak then st.peak <- n;
  st.tab <- table_for n;
  iter_live (add st.tab) old

let intern st ~hash ~ty ~fv node =
  let tab = st.tab in
  let mask = Array.length tab.hashes - 1 in
  let rec probe i =
    let h = tab.hashes.(i) in
    if h < 0 then begin
      let t = { id = st.next_id; hash; ty; fv; node } in
      st.next_id <- st.next_id + 1;
      st.intern_misses <- st.intern_misses + 1;
      set_slot tab i t;
      if 2 * tab.used > mask then rebuild st;
      t
    end
    else if h = hash then
      match Weak.get tab.cells i with
      | Some t when same_node t.node node ->
          st.intern_hits <- st.intern_hits + 1;
          t
      | _ -> probe ((i + 1) land mask)
    else probe ((i + 1) land mask)
  in
  probe (hash land mask)

(* ------------------------------------------------------------------ *)
(* Variable indexing                                                   *)
(* ------------------------------------------------------------------ *)

let var_index_of_key st n ty_id =
  match Hashtbl.find_opt st.var_index_tbl (n, ty_id) with
  | Some i -> i
  | None ->
      let i = st.n_vars in
      st.n_vars <- st.n_vars + 1;
      Hashtbl.add st.var_index_tbl (n, ty_id) i;
      if i >= Array.length st.var_terms then begin
        let arr = Array.make (2 * Array.length st.var_terms) None in
        Array.blit st.var_terms 0 arr 0 (Array.length st.var_terms);
        st.var_terms <- arr
      end;
      i

let var_of_index st i =
  match st.var_terms.(i) with
  | Some v -> v
  | None -> failwith "Term.var_of_index: unregistered index"

(* ------------------------------------------------------------------ *)
(* Constructors / destructors                                          *)
(* ------------------------------------------------------------------ *)

let mk_var_st st n ty =
  let idx = var_index_of_key st n ty.Ty.id in
  let tm =
    intern st
      ~hash:(mix (mix 1 (Hashtbl.hash n)) ty.Ty.id)
      ~ty ~fv:(Bits.singleton idx) (Var (n, ty))
  in
  (match st.var_terms.(idx) with
  | None -> st.var_terms.(idx) <- Some tm
  | Some _ -> ());
  tm

let mk_var n ty = mk_var_st (state ()) n ty

let mk_const_raw_st st n ty =
  intern st
    ~hash:(mix (mix 2 (Hashtbl.hash n)) ty.Ty.id)
    ~ty ~fv:Bits.empty (Const (n, ty))

let mk_const_raw n ty = mk_const_raw_st (state ()) n ty
let type_of tm = tm.ty

let mk_comb_st st f x =
  match f.ty.Ty.node with
  | Ty.Tyapp ("fun", [ a; b ]) when a == x.ty ->
      intern st
        ~hash:(mix (mix 3 f.id) x.id)
        ~ty:b ~fv:(Bits.union f.fv x.fv) (Comb (f, x))
  | _ -> failwith "Term.mk_comb: types do not agree"

let mk_comb f x = mk_comb_st (state ()) f x

let mk_abs_st st v body =
  match v.node with
  | Var _ ->
      intern st
        ~hash:(mix (mix 4 v.id) body.id)
        ~ty:(Ty.fn v.ty body.ty)
        ~fv:(Bits.remove (Bits.choose v.fv) body.fv)
        (Abs (v, body))
  | _ -> failwith "Term.mk_abs: binder must be a variable"

let mk_abs v body = mk_abs_st (state ()) v body
let list_mk_comb f args = List.fold_left mk_comb f args
let list_mk_abs vars body = List.fold_right mk_abs vars body
let eq_const_st st ty =
  match Hashtbl.find_opt st.eq_consts ty.Ty.id with
  | Some c -> c
  | None ->
      let c = mk_const_raw_st st "=" (Ty.fn ty (Ty.fn ty Ty.bool)) in
      Hashtbl.add st.eq_consts ty.Ty.id c;
      c

let eq_const ty = eq_const_st (state ()) ty

let mk_eq l r =
  if l.ty != r.ty then failwith "Term.mk_eq: sides have different types"
  else
    let st = state () in
    mk_comb_st st (mk_comb_st st (eq_const_st st l.ty) l) r

let dest_var tm =
  match tm.node with
  | Var (n, ty) -> (n, ty)
  | _ -> failwith "Term.dest_var"

let dest_comb tm =
  match tm.node with Comb (f, x) -> (f, x) | _ -> failwith "Term.dest_comb"

let dest_abs tm =
  match tm.node with Abs (v, b) -> (v, b) | _ -> failwith "Term.dest_abs"

let dest_eq tm =
  match tm.node with
  | Comb ({ node = Comb ({ node = Const ("=", _); _ }, l); _ }, r) -> (l, r)
  | _ -> failwith "Term.dest_eq"

let is_var tm = match tm.node with Var _ -> true | _ -> false
let is_abs tm = match tm.node with Abs _ -> true | _ -> false

let is_eq tm =
  match tm.node with
  | Comb ({ node = Comb ({ node = Const ("=", _); _ }, _); _ }, _) -> true
  | _ -> false

let rator tm = fst (dest_comb tm)

let strip_comb tm =
  let rec go tm acc =
    match tm.node with Comb (f, x) -> go f (x :: acc) | _ -> (tm, acc)
  in
  go tm []

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)
(* ------------------------------------------------------------------ *)

let frees_st st tm = List.map (var_of_index st) (Bits.elements tm.fv)
let frees tm = frees_st (state ()) tm

let var_index v =
  match v.node with
  | Var _ -> Bits.choose v.fv
  | _ -> failwith "Term.free_in: not a variable"

let free_in v tm = Bits.mem (var_index v) tm.fv

let variant_st st avoid v =
  let names =
    List.filter_map
      (fun tm -> match tm.node with Var (n, _) -> Some n | _ -> None)
      avoid
  in
  match v.node with
  | Var (n, ty) ->
      let rec go n = if List.mem n names then go (n ^ "'") else n in
      mk_var_st st (go n) ty
  | _ -> failwith "Term.variant: not a variable"

let variant avoid v = variant_st (state ()) avoid v

(* ------------------------------------------------------------------ *)
(* Alpha equivalence and ordering                                      *)
(* ------------------------------------------------------------------ *)

(* Two ids below 2^31 pack into one int injectively; any other pair is
   memoised under the pair itself.  A key shared by two pairs would let
   [trans] accept middle terms that differ. *)
let order_memo_key i1 i2 =
  if i1 lor i2 < 0x8000_0000 then (i1 lsl 31) lor i2 else -1

let memo_add tbl key c =
  if Hashtbl.length tbl > 2_000_000 then Hashtbl.reset tbl;
  Hashtbl.add tbl key c

(* Alpha-ordering is memoised on id pairs whenever the binder
   environment is trivial (empty or identically-paired), which is the
   common case when comparing the dag-shaped normal forms of circuit
   terms; without the memo such comparisons would be exponential in the
   dag depth.  An environment pair (v, v) constrains nothing, so it can be
   dropped for memoisation purposes. *)
let rec orda_memo st t1 t2 =
  if t1 == t2 then 0
  else
    let key = order_memo_key t1.id t2.id in
    match
      if key >= 0 then Hashtbl.find_opt st.orda_cache key
      else Hashtbl.find_opt st.orda_wide (t1.id, t2.id)
    with
    | Some c -> c
    | None ->
        let c =
          match (t1.node, t2.node) with
          | Var _, Var _ | Const _, Const _ ->
              (* interned: distinct nodes are unequal, order by id *)
              Int.compare t1.id t2.id
          | Comb (f1, x1), Comb (f2, x2) ->
              let c = orda_memo st f1 f2 in
              if c <> 0 then c else orda_memo st x1 x2
          | Abs (v1, b1), Abs (v2, b2) ->
              if v1 == v2 then orda_memo st b1 b2
              else
                let c = Ty.compare v1.ty v2.ty in
                if c <> 0 then c else orda_plain [ (v1, v2) ] b1 b2
          | Var _, _ -> -1
          | _, Var _ -> 1
          | Const _, _ -> -1
          | _, Const _ -> 1
          | Comb _, _ -> -1
          | _, Comb _ -> 1
        in
        if key >= 0 then memo_add st.orda_cache key c
        else memo_add st.orda_wide (t1.id, t2.id) c;
        c

and orda_plain env t1 t2 =
  if t1 == t2 && List.for_all (fun (a, b) -> a == b) env then 0
  else
    match (t1.node, t2.node) with
    | Var _, Var _ -> ord_var env t1 t2
    | Const _, Const _ -> Int.compare t1.id t2.id
    | Comb (f1, x1), Comb (f2, x2) ->
        let c = orda_plain env f1 f2 in
        if c <> 0 then c else orda_plain env x1 x2
    | Abs (v1, b1), Abs (v2, b2) ->
        let c = Ty.compare v1.ty v2.ty in
        if c <> 0 then c else orda_plain ((v1, v2) :: env) b1 b2
    | Var _, _ -> -1
    | _, Var _ -> 1
    | Const _, _ -> -1
    | _, Const _ -> 1
    | Comb _, _ -> -1
    | _, Comb _ -> 1

and ord_var env v1 v2 =
  (* Walk the binder environment: a bound variable compares equal exactly
     to its partner at the same binding depth. *)
  match env with
  | [] -> Int.compare v1.id v2.id
  | (b1, b2) :: rest ->
      let e1 = v1 == b1 and e2 = v2 == b2 in
      if e1 && e2 then 0
      else if e1 then -1
      else if e2 then 1
      else ord_var rest v1 v2

(* Physically-equal terms compare equal without touching the domain
   state — keeps the hash-consing fast path free of the DLS lookup. *)
let alphaorder t1 t2 =
  if t1 == t2 then 0 else orda_memo (state ()) t1 t2

let aconv t1 t2 = t1 == t2 || alphaorder t1 t2 = 0

let release_order_memo () =
  let st = state () in
  Hashtbl.reset st.orda_cache;
  Hashtbl.reset st.orda_wide

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

let check_subst_types theta =
  List.iter
    (fun (v, t) ->
      match v.node with
      | Var _ ->
          if v.ty != t.ty then failwith "Term.vsubst: ill-typed binding"
      | _ -> failwith "Term.vsubst: domain element is not a variable")
    theta

let domain_set theta =
  List.fold_left (fun acc (dv, _) -> Bits.union acc dv.fv) Bits.empty theta

(* The recursive worker carries a memo table (keyed on node id, valid for
   the current substitution [theta]); entering a binder that forces
   filtering or renaming switches to a fresh table for that subtree.
   [dset] is the exact free-variable set of the substitution's domain:
   subtrees whose own set is disjoint from it are returned unchanged. *)
let rec vsubst_go st dset theta memo tm =
  if Bits.disjoint tm.fv dset then tm
  else
    match Hashtbl.find_opt memo tm.id with
    | Some r -> r
    | None ->
        let r =
          match tm.node with
          | Var _ -> (
              match List.find_opt (fun (v, _) -> v == tm) theta with
              | Some (_, t) -> t
              | None -> tm)
          | Const _ -> tm
          | Comb (f, x) ->
              let f' = vsubst_go st dset theta memo f in
              let x' = vsubst_go st dset theta memo x in
              if f' == f && x' == x then tm else mk_comb_st st f' x'
          | Abs (v, body) ->
              (* The per-node sets are exact, so bindings whose variable
                 does not occur below are dropped without any traversal. *)
              let theta' =
                List.filter
                  (fun (dv, t) ->
                    dv != v && t != dv && Bits.mem (var_index dv) body.fv)
                  theta
              in
              if theta' = [] then tm
              else if List.exists (fun (_, t) -> free_in v t) theta' then begin
                (* Capture: rename the binder before substituting. *)
                let avoid =
                  List.concat_map (fun (_, t) -> frees_st st t) theta'
                  @ frees_st st body
                in
                let v' = variant_st st avoid v in
                let body' =
                  vsubst_go st v.fv [ (v, v') ] (Hashtbl.create 16) body
                in
                let body'' =
                  vsubst_go st (domain_set theta') theta' (Hashtbl.create 16)
                    body'
                in
                mk_abs_st st v' body''
              end
              else if List.length theta' = List.length theta then begin
                let body' = vsubst_go st dset theta memo body in
                if body' == body then tm else mk_abs_st st v body'
              end
              else begin
                let body' =
                  vsubst_go st (domain_set theta') theta' (Hashtbl.create 16)
                    body
                in
                if body' == body then tm else mk_abs_st st v body'
              end
        in
        Hashtbl.add memo tm.id r;
        r

(* One memo per partial application: [vsubst theta] applied to several
   terms (a theorem's hypotheses and both sides) shares their common
   subterms' results. *)
let vsubst theta =
  if theta = [] then Fun.id
  else begin
    check_subst_types theta;
    let st = state () and dset = domain_set theta in
    let memo = Hashtbl.create 16 in
    fun tm -> vsubst_go st dset theta memo tm
  end

(* ------------------------------------------------------------------ *)
(* Type instantiation                                                  *)
(* ------------------------------------------------------------------ *)

exception Clash of t

let rec inst_go st env tyin tm =
  match tm.node with
  | Var (n, ty) ->
      let ty' = Ty.subst tyin ty in
      let tm' = if ty' == ty then tm else mk_var_st st n ty' in
      (* If a bound variable's image collides with the image of a distinct
         variable we must rename; detect this via the environment. *)
      (match List.find_opt (fun (k, _) -> k == tm') env with
      | Some (_, orig) when orig != tm -> raise (Clash tm')
      | _ -> ());
      tm'
  | Const (n, ty) ->
      let ty' = Ty.subst tyin ty in
      if ty' == ty then tm else mk_const_raw_st st n ty'
  | Comb (f, x) ->
      let f' = inst_go st env tyin f in
      let x' = inst_go st env tyin x in
      if f' == f && x' == x then tm else mk_comb_st st f' x'
  | Abs (v, body) -> (
      let v' = inst_go st [] tyin v in
      let env' = (v', v) :: env in
      try
        let body' = inst_go st env' tyin body in
        if v' == v && body' == body then tm else mk_abs_st st v' body'
      with Clash w' when w' == v' ->
        (* Rename the binder to avoid the collision and retry. *)
        let ifrees = List.map (inst_go st [] tyin) (frees_st st body) in
        let v'' = variant_st st ifrees v' in
        let n'', _ = dest_var v'' in
        let z = mk_var_st st n'' v.ty in
        let body' = vsubst [ (v, z) ] body in
        inst_go st env tyin (mk_abs_st st z body'))

let inst tyin tm = if tyin = [] then tm else inst_go (state ()) [] tyin tm

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let stats () =
  let st = state () in
  let live = count_live st.tab in
  if live > st.peak then st.peak <- live;
  {
    intern_hits = st.intern_hits;
    intern_misses = st.intern_misses;
    live_nodes = live;
    peak_nodes = st.peak;
    var_count = st.n_vars;
    table_slots = Array.length st.tab.hashes;
  }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* A pre-order walk into [buf]: each node spends one unit of [budget],
   and a node reached with none left prints as "...". *)
let rec add_term buf budget tm =
  decr budget;
  if !budget < 0 then Buffer.add_string buf "..."
  else
    match tm.node with
    | Var (n, _) | Const (n, _) -> Buffer.add_string buf n
    | Comb ({ node = Comb ({ node = Const ("=", _); _ }, l); _ }, r) ->
        add_pair buf budget "(" l " = " r
    | Comb ({ node = Comb ({ node = Const ("/\\", _); _ }, l); _ }, r) ->
        add_pair buf budget "(" l " /\\ " r
    | Comb ({ node = Comb ({ node = Const ("==>", _); _ }, l); _ }, r) ->
        add_pair buf budget "(" l " ==> " r
    | Comb ({ node = Const ("!", _); _ }, { node = Abs (v, b); _ }) ->
        add_pair buf budget "(!" v ". " b
    | Comb ({ node = Comb ({ node = Const (",", _); _ }, l); _ }, r) ->
        add_pair buf budget "(" l ", " r
    | Comb (f, x) -> add_pair buf budget "(" f " " x
    | Abs (v, b) -> add_pair buf budget "(\\" v ". " b

and add_pair buf budget opening l sep r =
  Buffer.add_string buf opening;
  add_term buf budget l;
  Buffer.add_string buf sep;
  add_term buf budget r;
  Buffer.add_char buf ')'

let add_to_buffer buf tm = add_term buf (ref 20_000) tm

let to_string tm =
  let buf = Buffer.create 256 in
  add_to_buffer buf tm;
  Buffer.contents buf
