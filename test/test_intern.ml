(* The intern table under the garbage collector.

   Random term dags are built, partly dropped and rebuilt while minor and
   full major collections run in between, and while bursts of
   short-lived nodes force the open-addressed table through several
   rebuilds.  Every case runs in a worker domain spawned from a frozen
   seed, and checks that

   - a live term rebuilt from its structure is [==] to it (so
     structurally equal live terms are physically equal),
   - distinct live nodes have distinct ids,
   - every constructor returns a node built from its own arguments,
   - the seed's constants are still [==] to freshly built ones.

   Leaf names come in pairs with equal [Hashtbl.hash], so some distinct
   nodes share their hash: only the structural check on a hash match
   tells them apart. *)

open Hol

let bb = Ty.fn Ty.bool Ty.bool

(* Names [n<i>] grouped by [Hashtbl.hash], which is 30 bits wide: a few
   hundred thousand names give a handful of colliding pairs. *)
let colliding_names =
  lazy
    (let seen = Hashtbl.create 300_000 in
     let rec go i acc found =
       if found = 6 then acc
       else
         let n = "n" ^ string_of_int i in
         let h = Hashtbl.hash n in
         match Hashtbl.find_opt seen h with
         | Some m -> go (i + 1) (n :: m :: acc) (found + 1)
         | None ->
             Hashtbl.add seen h n;
             go (i + 1) acc found
     in
     Array.of_list (go 0 [] 0))

type op =
  | Leaf of bool * int (* a variable (true) or constant named by index *)
  | Neg of int
  | And of int * int
  | Lam of int * int * int (* (\v. body) arg *)
  | Drop of int
  | Minor
  | Major
  | Burst of int (* that many fresh nodes, dropped at once *)

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun v i -> Leaf (v, i)) bool (int_bound 11));
      (3, map (fun i -> Neg i) nat);
      (5, map2 (fun i j -> And (i, j)) nat nat);
      (2, map3 (fun v b a -> Lam (v, b, a)) (int_bound 11) nat nat);
      (3, map (fun i -> Drop i) nat);
      (1, return Minor);
      (1, return Major);
      (2, map (fun k -> Burst k) (int_range 500 10_000));
    ]

let print_op = function
  | Leaf (v, i) -> Printf.sprintf "Leaf(%b,%d)" v i
  | Neg i -> Printf.sprintf "Neg %d" i
  | And (i, j) -> Printf.sprintf "And(%d,%d)" i j
  | Lam (v, b, a) -> Printf.sprintf "Lam(%d,%d,%d)" v b a
  | Drop i -> Printf.sprintf "Drop %d" i
  | Minor -> "Minor"
  | Major -> "Major"
  | Burst k -> Printf.sprintf "Burst %d" k

let arb_ops =
  QCheck.make
    ~print:(QCheck.Print.list print_op)
    QCheck.Gen.(list_size (int_range 20 200) gen_op)

exception Broken of string

let broken fmt = Printf.ksprintf (fun m -> raise (Broken m)) fmt

(* Constructors whose result must be built from exactly their arguments. *)
let var n =
  let t = Term.mk_var n Ty.bool in
  (match t.Term.node with
  | Term.Var (m, ty) when String.equal m n && ty == Ty.bool -> ()
  | _ -> broken "mk_var %s returned %s" n (Term.to_string t));
  t

let const n ty =
  let t = Term.mk_const_raw n ty in
  (match t.Term.node with
  | Term.Const (m, ty') when String.equal m n && ty' == ty -> ()
  | _ -> broken "mk_const_raw %s returned %s" n (Term.to_string t));
  t

let comb f x =
  let t = Term.mk_comb f x in
  (match t.Term.node with
  | Term.Comb (f', x') when f' == f && x' == x -> ()
  | _ -> broken "mk_comb returned a node of other children");
  t

let abs v b =
  let t = Term.mk_abs v b in
  (match t.Term.node with
  | Term.Abs (v', b') when v' == v && b' == b -> ()
  | _ -> broken "mk_abs returned a node of other children");
  t

let fresh = ref 0

let burst k =
  for _ = 1 to k do
    incr fresh;
    ignore (Sys.opaque_identity (const ("b" ^ string_of_int !fresh) Ty.bool))
  done

(* Rebuild [tm] bottom-up through the constructors, once per node. *)
let rebuild tm =
  let memo = Hashtbl.create 64 in
  let rec go tm =
    match Hashtbl.find_opt memo tm.Term.id with
    | Some r -> r
    | None ->
        let r =
          match tm.Term.node with
          | Term.Var (n, ty) -> Term.mk_var n ty
          | Term.Const (n, ty) -> Term.mk_const_raw n ty
          | Term.Comb (f, x) -> Term.mk_comb (go f) (go x)
          | Term.Abs (v, b) -> Term.mk_abs (go v) (go b)
        in
        Hashtbl.add memo tm.Term.id r;
        r
  in
  go tm

let check_live pool =
  let ids = Hashtbl.create 256 in
  let rec walk tm =
    match Hashtbl.find_opt ids tm.Term.id with
    | Some u when u == tm -> ()
    | Some _ -> broken "two live nodes share id %d" tm.Term.id
    | None -> (
        Hashtbl.add ids tm.Term.id tm;
        match tm.Term.node with
        | Term.Var _ | Term.Const _ -> ()
        | Term.Comb (a, b) | Term.Abs (a, b) ->
            walk a;
            walk b)
  in
  List.iter walk pool;
  List.iter
    (fun tm ->
      if rebuild tm != tm then
        broken "a live term rebuilt to another node: %s" (Term.to_string tm))
    pool

(* The seed: constants, two of them with colliding names, built in the
   main domain and kept alive by this value across the freeze. *)
let seed =
  lazy
    (let names = Lazy.force colliding_names in
     let consts =
       List.map
         (fun n -> Term.mk_const_raw n bb)
         [ "~"; "seed"; names.(0); names.(1) ]
     in
     Gc.full_major ();
     Ty.freeze ();
     Term.freeze ();
     consts)

let run ops =
  let names = Lazy.force colliding_names in
  let neg = const "~" bb and conj = const "/\\" (Ty.fn Ty.bool bb) in
  let pool = ref [ const "T" Ty.bool ] in
  let pick i = List.nth !pool (i mod List.length !pool) in
  let push t = pool := t :: !pool in
  List.iter
    (function
      | Leaf (true, i) -> push (var names.(i mod Array.length names))
      | Leaf (false, i) -> push (const names.(i mod Array.length names) Ty.bool)
      | Neg i -> push (comb neg (pick i))
      | And (i, j) -> push (comb (comb conj (pick i)) (pick j))
      | Lam (v, b, a) ->
          let v = var names.(v mod Array.length names) in
          push (comb (abs v (pick b)) (pick a))
      | Drop i -> (
          let n = List.length !pool in
          if n > 1 then
            let i = i mod n in
            pool := List.filteri (fun j _ -> j <> i) !pool)
      | Minor -> Gc.minor ()
      | Major -> Gc.full_major ()
      | Burst k -> burst k)
    ops;
  check_live !pool

(* One case: run [ops] in a worker, then force at least one more rebuild
   (one happens within every half-capacity of misses) and check again,
   seed constants included. *)
let prop_intern =
  QCheck.Test.make ~count:20
    ~name:"interning holds across collections and rebuilds" arb_ops (fun ops ->
      let consts = Lazy.force seed in
      let outcome =
        Domain.join
          (Domain.spawn (fun () ->
               try
                 run ops;
                 burst (Term.stats ()).Term.table_slots;
                 Gc.full_major ();
                 run ops;
                 List.iter
                   (fun c ->
                     let n, ty =
                       match c.Term.node with
                       | Term.Const (n, ty) -> (n, ty)
                       | _ -> assert false
                     in
                     if const n ty != c then
                       broken "seed constant %s rebuilt to another node" n)
                   consts;
                 Ok ()
               with Broken m -> Error m))
      in
      match outcome with Ok () -> true | Error m -> QCheck.Test.fail_report m)

(* The table follows the live population down: hold 200 000 fresh
   nodes, drop them, and churn short-lived ones until the table is
   rebuilt.  A dead node's slot counts as live until a major collection
   clears it, hence the full majors during the churn. *)
let test_table_shrinks () =
  let peak, after =
    Domain.join
      (Domain.spawn (fun () ->
           let held =
             ref
               (Array.init 200_000 (fun i ->
                    Term.mk_const_raw ("h" ^ string_of_int i) Ty.bool))
           in
           let peak = (Term.stats ()).Term.table_slots in
           ignore (Sys.opaque_identity !held);
           held := [||];
           Gc.full_major ();
           let slots () = (Term.stats ()).Term.table_slots in
           let n = ref 0 in
           while slots () = peak && !n < 20_000_000 do
             burst 10_000;
             n := !n + 10_000;
             Gc.full_major ()
           done;
           (peak, slots ())))
  in
  if after * 4 > peak then
    Alcotest.failf "table_slots fell only from %d to %d" peak after

let suite =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1a7e |]) in
  [
    (* first: its worker's seed is then whatever no earlier suite froze,
       not the main domain's whole population frozen by [seed] *)
    Alcotest.test_case "table shrinks after a burst" `Quick test_table_shrinks;
    q prop_intern;
  ]
