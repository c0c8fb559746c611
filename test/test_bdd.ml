(* Tests for the BDD package: semantics against direct evaluation. *)

let check = Alcotest.(check bool)

type expr =
  | V of int
  | C of bool
  | Andx of expr * expr
  | Orx of expr * expr
  | Xorx of expr * expr
  | Notx of expr
  | Itex of expr * expr * expr

let gen_expr nvars =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then
          oneof [ map (fun i -> V i) (int_bound (nvars - 1));
                  map (fun b -> C b) bool ]
        else
          frequency
            [
              (1, map (fun i -> V i) (int_bound (nvars - 1)));
              (2, map2 (fun a b -> Andx (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Orx (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map2 (fun a b -> Xorx (a, b)) (self (n / 2)) (self (n / 2)));
              (2, map (fun a -> Notx a) (self (n - 1)));
              ( 1,
                map3
                  (fun a b c -> Itex (a, b, c))
                  (self (n / 3)) (self (n / 3)) (self (n / 3)) );
            ]))

let rec eval env = function
  | V i -> env i
  | C b -> b
  | Andx (a, b) -> eval env a && eval env b
  | Orx (a, b) -> eval env a || eval env b
  | Xorx (a, b) -> eval env a <> eval env b
  | Notx a -> not (eval env a)
  | Itex (a, b, c) -> if eval env a then eval env b else eval env c

let rec build m = function
  | V i -> Bdd.var m i
  | C true -> Bdd.one m
  | C false -> Bdd.zero m
  | Andx (a, b) -> Bdd.and_ m (build m a) (build m b)
  | Orx (a, b) -> Bdd.or_ m (build m a) (build m b)
  | Xorx (a, b) -> Bdd.xor_ m (build m a) (build m b)
  | Notx a -> Bdd.not_ m (build m a)
  | Itex (a, b, c) -> Bdd.ite m (build m a) (build m b) (build m c)

let nvars = 6

let all_envs f =
  let ok = ref true in
  for mask = 0 to (1 lsl nvars) - 1 do
    if not (f (fun i -> (mask lsr i) land 1 = 1)) then ok := false
  done;
  !ok

let prop_semantics =
  QCheck.Test.make ~count:150 ~name:"BDD agrees with evaluation"
    (QCheck.make (gen_expr nvars)) (fun e ->
      let m = Bdd.manager () in
      let b = build m e in
      all_envs (fun env -> Bdd.eval m b env = eval env e))

let prop_canonical =
  QCheck.Test.make ~count:100 ~name:"semantic equality = node equality"
    (QCheck.make QCheck.Gen.(pair (gen_expr nvars) (gen_expr nvars)))
    (fun (e1, e2) ->
      let m = Bdd.manager () in
      let b1 = build m e1 and b2 = build m e2 in
      let sem_eq =
        all_envs (fun env -> Bdd.eval m b1 env = Bdd.eval m b2 env)
      in
      sem_eq = Bdd.equal b1 b2)

let prop_exists =
  QCheck.Test.make ~count:80 ~name:"existential quantification"
    (QCheck.make QCheck.Gen.(pair (gen_expr nvars) (int_bound (nvars - 1))))
    (fun (e, v) ->
      let m = Bdd.manager () in
      let b = build m e in
      let q = Bdd.exists m [ v ] b in
      all_envs (fun env ->
          let expect =
            eval (fun i -> if i = v then false else env i) e
            || eval (fun i -> if i = v then true else env i) e
          in
          Bdd.eval m q env = expect))

let prop_compose =
  QCheck.Test.make ~count:60 ~name:"compose substitutes functions"
    (QCheck.make
       QCheck.Gen.(triple (gen_expr nvars) (int_bound (nvars - 1))
                     (gen_expr nvars)))
    (fun (e, v, g) ->
      let m = Bdd.manager () in
      let b = build m e and gb = build m g in
      let r = Bdd.compose m b (fun i -> if i = v then Some gb else None) in
      all_envs (fun env ->
          Bdd.eval m r env
          = eval (fun i -> if i = v then eval env g else env i) e))

(* ------------------------------------------------------------------ *)
(* Multi-variable quantification / simultaneous substitution            *)
(* ------------------------------------------------------------------ *)

let prop_exists_multi =
  QCheck.Test.make ~count:60
    ~name:"existential quantification over variable sets"
    (QCheck.make
       QCheck.Gen.(pair (gen_expr nvars) (int_bound ((1 lsl nvars) - 1))))
    (fun (e, vset) ->
      let m = Bdd.manager () in
      let b = build m e in
      let vars =
        List.filter (fun i -> (vset lsr i) land 1 = 1)
          (List.init nvars Fun.id)
      in
      let q = Bdd.exists m vars b in
      all_envs (fun env ->
          (* expected: OR over all assignments to the quantified vars *)
          let expect = ref false in
          for a = 0 to (1 lsl nvars) - 1 do
            let env' i =
              if (vset lsr i) land 1 = 1 then (a lsr i) land 1 = 1
              else env i
            in
            if eval env' e then expect := true
          done;
          Bdd.eval m q env = !expect))

let prop_compose_multi =
  QCheck.Test.make ~count:60 ~name:"simultaneous composition of two vars"
    (QCheck.make
       QCheck.Gen.(
         pair (gen_expr nvars)
           (pair (gen_expr nvars) (gen_expr nvars))))
    (fun (e, (g0, g1)) ->
      let m = Bdd.manager () in
      let b = build m e in
      let b0 = build m g0 and b1 = build m g1 in
      let v0 = 0 and v1 = 3 in
      let r =
        Bdd.compose m b (fun i ->
            if i = v0 then Some b0 else if i = v1 then Some b1 else None)
      in
      all_envs (fun env ->
          (* simultaneous: both g0 and g1 read the original env *)
          let env' i =
            if i = v0 then eval env g0
            else if i = v1 then eval env g1
            else env i
          in
          Bdd.eval m r env = eval env' e))

(* ------------------------------------------------------------------ *)
(* Exhaustive truth-table check on 3 variables (all 256 functions)      *)
(* ------------------------------------------------------------------ *)

let tt_nv = 3
let tt_size = 1 lsl tt_nv (* 8 rows, 256 functions *)

let bdd_of_table m tt =
  let f = ref (Bdd.zero m) in
  for a = 0 to tt_size - 1 do
    if (tt lsr a) land 1 = 1 then begin
      let minterm = ref (Bdd.one m) in
      for i = 0 to tt_nv - 1 do
        let v =
          if (a lsr i) land 1 = 1 then Bdd.var m i
          else Bdd.not_ m (Bdd.var m i)
        in
        minterm := Bdd.and_ m !minterm v
      done;
      f := Bdd.or_ m !f !minterm
    end
  done;
  !f

let tt_eval tt a = (tt lsr a) land 1 = 1
let env_of a i = (a lsr i) land 1 = 1

let test_truth_table_exhaustive () =
  let m = Bdd.manager () in
  for tt = 0 to (1 lsl tt_size) - 1 do
    let b = bdd_of_table m tt in
    (* the BDD represents the table *)
    for a = 0 to tt_size - 1 do
      if Bdd.eval m b (env_of a) <> tt_eval tt a then
        Alcotest.failf "table %d row %d" tt a
    done;
    for v = 0 to tt_nv - 1 do
      let set a b = if b then a lor (1 lsl v) else a land lnot (1 lsl v) in
      (* exists v = cofactor0 OR cofactor1 *)
      let q = Bdd.exists m [ v ] b in
      for a = 0 to tt_size - 1 do
        let expect = tt_eval tt (set a false) || tt_eval tt (set a true) in
        if Bdd.eval m q (env_of a) <> expect then
          Alcotest.failf "exists table %d var %d row %d" tt v a
      done
    done;
    (* compose var 1 := (x0 xor x2), against table evaluation *)
    let g = Bdd.xor_ m (Bdd.var m 0) (Bdd.var m 2) in
    let r = Bdd.compose m b (fun i -> if i = 1 then Some g else None) in
    for a = 0 to tt_size - 1 do
      let gv = env_of a 0 <> env_of a 2 in
      let a' = if gv then a lor 2 else a land lnot 2 in
      if Bdd.eval m r (env_of a) <> tt_eval tt a' then
        Alcotest.failf "compose table %d row %d" tt a
    done
  done

(* ------------------------------------------------------------------ *)
(* Computed-table canonicalization and counters                         *)
(* ------------------------------------------------------------------ *)

let test_ite_normalization_cache () =
  let m = Bdd.manager () in
  let f = Bdd.xor_ m (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.xnor_ m (Bdd.var m 2) (Bdd.var m 3) in
  let ab = Bdd.and_ m f g in
  let hits_before = (Bdd.stats m).Obs.cache_hits in
  (* the commuted operands must canonicalize onto the same cache entry *)
  let ba = Bdd.and_ m g f in
  let hits_after = (Bdd.stats m).Obs.cache_hits in
  check "and commutes" true (Bdd.equal ab ba);
  check "commuted and hits the cache" true (hits_after > hits_before);
  let o1 = Bdd.or_ m f g in
  let hits_before = (Bdd.stats m).Obs.cache_hits in
  let o2 = Bdd.or_ m g f in
  let hits_after = (Bdd.stats m).Obs.cache_hits in
  check "or commutes" true (Bdd.equal o1 o2);
  check "commuted or hits the cache" true (hits_after > hits_before)

let test_stats_counters () =
  let m = Bdd.manager () in
  let s0 = Bdd.stats m in
  Alcotest.(check int) "fresh manager: no mk calls" 0 s0.Obs.mk_calls;
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.or_ m (Bdd.var m 1) (Bdd.var m 2)) in
  ignore (Bdd.exists m [ 1 ] f);
  let s = Bdd.stats m in
  check "mk calls counted" true (s.Obs.mk_calls > 0);
  check "unique misses counted" true (s.Obs.unique_misses > 0);
  check "memo misses counted" true (s.Obs.memo_misses > 0);
  check "peak nodes tracks manager" true
    (s.Obs.peak_nodes = Bdd.node_count m);
  (* the combined hit rate a bench row reports *)
  let run =
    Engines.Common.observe_bdd ~engine:"probe" (fun m ->
        ignore (Bdd.exists m [ 1 ] (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1)));
        (Engines.Common.Equivalent, []))
  in
  match
    Option.bind
      (Obs.Json.member "bdd"
         (Obs.engine_run_json (Engines.Common.report_to_run run)))
      (Obs.Json.member "cache_hit_rate")
  with
  | Some (Obs.Json.Float rate) ->
      check "hit rate in range" true (rate >= 0.0 && rate <= 1.0)
  | _ -> Alcotest.fail "bench row without bdd.cache_hit_rate"

let test_support () =
  let m = Bdd.manager () in
  let b = Bdd.and_ m (Bdd.var m 3) (Bdd.xor_ m (Bdd.var m 1) (Bdd.var m 5)) in
  Alcotest.(check (list int)) "support" [ 1; 3; 5 ] (Bdd.support m b)

let test_size () =
  let m = Bdd.manager () in
  Alcotest.(check int) "terminal size" 0 (Bdd.size m (Bdd.one m));
  Alcotest.(check int) "var size" 1 (Bdd.size m (Bdd.var m 0))

(* ------------------------------------------------------------------ *)
(* Table growth                                                       *)
(* ------------------------------------------------------------------ *)

(* The pairing function OR_i (x_i AND x_(h+i)) under the natural order
   keeps every x_0..x_(h-1) prefix distinct, so its BDD has ~2^(h+1)
   nodes.  At h = 12 building it allocates over 11470 nodes, 0.7 of a
   16384-slot table: the node store doubles from 1024 four times, and
   the unique table and the caches double from 4096 three times. *)
let pairing_vars = 24

let build_pairing m =
  let h = pairing_vars / 2 in
  let f = ref (Bdd.zero m) in
  for i = 0 to h - 1 do
    f := Bdd.or_ m !f (Bdd.and_ m (Bdd.var m i) (Bdd.var m (h + i)))
  done;
  !f

let eval_pairing env =
  let h = pairing_vars / 2 in
  List.exists (fun i -> env i && env (h + i)) (List.init h Fun.id)

let test_growth () =
  let m = Bdd.manager () in
  let f = build_pairing m in
  let n = Bdd.node_count m in
  check "unique table grew three times" true (n > 11470);
  check "rebuild finds the same id" true (Bdd.equal f (build_pairing m));
  Alcotest.(check int) "rebuild allocates nothing" n (Bdd.node_count m);
  let st = Random.State.make [| 0x9a11 |] in
  let envs =
    List.init 256 (fun _ ->
        let a = Array.init pairing_vars (fun _ -> Random.State.bool st) in
        Array.get a)
  in
  List.iter
    (fun env -> check "eval agrees" (eval_pairing env) (Bdd.eval m f env))
    envs

(* A negative variable is rejected before anything is allocated. *)
let test_negative_var () =
  let m = Bdd.manager () in
  ignore (Bdd.var m 0);
  let n = Bdd.node_count m in
  Alcotest.check_raises "rejected" (Invalid_argument "Bdd: negative variable")
    (fun () -> ignore (Bdd.var m (-1)));
  Alcotest.(check int) "no node allocated" n (Bdd.node_count m)

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_semantics;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_canonical;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_exists;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_compose;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_exists_multi;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5e11a |]) prop_compose_multi;
    Alcotest.test_case "truth-table exhaustive (3 vars)" `Quick
      test_truth_table_exhaustive;
    Alcotest.test_case "ite normalization & computed table" `Quick
      test_ite_normalization_cache;
    Alcotest.test_case "engine counters" `Quick test_stats_counters;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "growth: store, unique table, caches" `Quick
      test_growth;
    Alcotest.test_case "negative variable" `Quick test_negative_var;
  ]
