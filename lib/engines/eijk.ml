open Circuit

(* ------------------------------------------------------------------ *)
(* Packed simulation signatures                                        *)
(* ------------------------------------------------------------------ *)

(* 62 trace bits per word: an OCaml native int carries 63 bits, and
   staying off the top bit keeps every mask a plain positive constant. *)
let bits_per_word = 62

type sigs = {
  nw : int;  (** words per universe signal *)
  words : int array;
      (** row-major: signal [u]'s canonical trace is
          [words.(u*nw) .. words.(u*nw + nw - 1)] *)
  inv : bool array;  (** row was complemented into canonical polarity *)
}

(* Random simulation of the pair, packing per-universe-signal value
   traces into int words (bit [t mod 62] of word [t / 62] is the value
   in cycle [t]).  Universe indexing: A-signals are [0 .. nA-1],
   B-signals [nA .. nA+nB-1].

   Canonical polarity: a trace whose first cycle reads 1 is complemented
   and flagged in [inv], so a signal and its negation land in the same
   candidate class — the same convention the old lexicographic
   canonicalisation of '0'/'1' strings picked, without materialising
   any. *)
let signatures rng cycles ca cb =
  let na = n_signals ca and nb = n_signals cb in
  let n = na + nb in
  let nw = (cycles + bits_per_word - 1) / bits_per_word in
  let words = Array.make (n * nw) 0 in
  let sta = ref (Sim.initial_state ca) and stb = ref (Sim.initial_state cb) in
  for t = 0 to cycles - 1 do
    let w = t / bits_per_word and b = t mod bits_per_word in
    let inputs =
      Array.map
        (function
          | B -> Bit (Random.State.bool rng)
          | W _ -> Common.unsupported "Eijk: word input (bit-blast first)")
        ca.input_widths
    in
    let va = Sim.eval_comb ca !sta inputs in
    let vb = Sim.eval_comb cb !stb inputs in
    let bit = function
      | Bit x -> if x then 1 else 0
      | Word _ -> Common.unsupported "Eijk: word signal"
    in
    Array.iteri
      (fun s v ->
        let i = (s * nw) + w in
        words.(i) <- words.(i) lor (bit v lsl b))
      va;
    Array.iteri
      (fun s v ->
        let i = ((na + s) * nw) + w in
        words.(i) <- words.(i) lor (bit v lsl b))
      vb;
    sta := Array.map (fun r -> va.(r.data)) ca.registers;
    stb := Array.map (fun r -> vb.(r.data)) cb.registers
  done;
  let inv = Array.make n false in
  let full = (1 lsl bits_per_word) - 1 in
  let rem = cycles mod bits_per_word in
  let last_mask = if rem = 0 then full else (1 lsl rem) - 1 in
  for u = 0 to n - 1 do
    if words.(u * nw) land 1 = 1 then begin
      inv.(u) <- true;
      for w = 0 to nw - 1 do
        let mask = if w = nw - 1 then last_mask else full in
        words.((u * nw) + w) <- lnot words.((u * nw) + w) land mask
      done
    end
  done;
  { nw; words; inv }

let compare_rows s u v =
  let bu = u * s.nw and bv = v * s.nw in
  let rec go i =
    if i = s.nw then 0
    else
      let c = compare s.words.(bu + i) s.words.(bv + i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Candidate classes: sort the universe by canonical trace (index as the
   tie-break), group equal neighbours, drop singletons.  Members come
   out ascending, so the smallest member of every class is its head —
   the representative order the refinement relies on. *)
let classes_of_sigs s n =
  let idx = Array.init n Fun.id in
  Array.sort
    (fun u v ->
      let c = compare_rows s u v in
      if c <> 0 then c else compare u v)
    idx;
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && compare_rows s idx.(!i) idx.(!j) = 0 do
      incr j
    done;
    if !j - !i > 1 then
      out := Array.to_list (Array.sub idx !i (!j - !i)) :: !out;
    i := !j
  done;
  List.rev !out

(* Random-simulation cycles that seed the candidate classes. *)
let sim_cycles = 96

let candidate_classes ca cb =
  if not (Common.same_interface ca cb) then
    Common.interface_mismatch "Eijk: interface mismatch";
  let na = n_signals ca and nb = n_signals cb in
  let rng = Random.State.make [| 420792; na; nb |] in
  let sg = signatures rng sim_cycles ca cb in
  let cls = classes_of_sigs sg (na + nb) in
  (List.length cls, List.fold_left (fun a c -> a + List.length c) 0 cls)

(* ------------------------------------------------------------------ *)
(* Shared refinement context                                           *)
(* ------------------------------------------------------------------ *)

type ctx = {
  m : Bdd.manager;
  budget : Common.budget;
  n : int;  (* universe size *)
  k : int;  (* product register count *)
  inv : bool array;  (* per-universe-signal canonical polarity *)
  base_bdds : Bdd.t array;
  plain_bdds : Bdd.t array;
  step_bdds : Bdd.t array;
  state_only : int array;  (* memo: -1 unknown / 0 no / 1 yes *)
}

let norm m b inverted = if inverted then Bdd.not_ m b else b

let is_state_only ctx u =
  match ctx.state_only.(u) with
  | -1 ->
      let b =
        List.for_all
          (fun v -> v < 2 * ctx.k)
          (Bdd.support ctx.m ctx.plain_bdds.(u))
      in
      ctx.state_only.(u) <- (if b then 1 else 0);
      b
  | v -> v = 1

(* Everything both refiners share: the product machine, the packed-
   signature candidate classes, the optional dependency elimination, and
   the base/current/next signal BDD arrays.  Raises
   [Common.Out_of_budget]. *)
let make_ctx ~exploit_dependencies m budget ca cb =
  if not (Common.same_interface ca cb) then
    Common.interface_mismatch "Eijk: interface mismatch";
  Common.arm_nodes budget m;
  let p =
    Symbolic.product
      ~check:(fun () -> Common.check_nodes budget m)
      ~interleave:true m ca cb
  in
  let k = p.Symbolic.n_regs in
  let ka = Array.length ca.registers in
  let na = n_signals ca and nb = n_signals cb in
  let n = na + nb in
  let rng = Random.State.make [| 420792; na; nb |] in
  let sg = signatures rng sim_cycles ca cb in
  let classes0 = classes_of_sigs sg n in
  (* ---- optional: functional-dependency elimination (the starred
     variant) ---- *)
  let dep_sigma : Bdd.t option array = Array.make k None in
  if exploit_dependencies then begin
    let changed = ref true in
    while !changed do
      Common.check_nodes budget m;
      changed := false;
      let subst v =
        if v < 2 * k && v mod 2 = 0 then dep_sigma.(v / 2) else None
      in
      let nf = Array.map (fun f -> Bdd.compose m f subst) p.Symbolic.next_fn in
      (* constants *)
      for i = 0 to k - 1 do
        if dep_sigma.(i) = None then begin
          let c = if p.Symbolic.init.(i) then Bdd.one m else Bdd.zero m in
          if Bdd.equal nf.(i) c then begin
            dep_sigma.(i) <- Some c;
            changed := true
          end
        end
      done;
      (* duplicates / complements *)
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          if dep_sigma.(j) = None && dep_sigma.(i) = None then begin
            let vi = Bdd.var m (p.Symbolic.cur_var i) in
            if
              Bdd.equal nf.(i) nf.(j)
              && p.Symbolic.init.(i) = p.Symbolic.init.(j)
            then begin
              dep_sigma.(j) <- Some vi;
              changed := true
            end
            else if
              Bdd.equal (Bdd.not_ m nf.(i)) nf.(j)
              && p.Symbolic.init.(i) <> p.Symbolic.init.(j)
            then begin
              dep_sigma.(j) <- Some (Bdd.not_ m vi);
              changed := true
            end
          end
        done
      done
    done
  end;
  let inputs1 =
    Array.init p.Symbolic.n_inputs (fun j -> Bdd.var m (p.Symbolic.inp_var j))
  in
  let inputs2 =
    Array.init p.Symbolic.n_inputs (fun j -> Bdd.var m (p.Symbolic.inp2_var j))
  in
  (* Current-state BDDs of every signal, registers as their own
     variables (after the optional dependency substitution). *)
  let dep_subst v =
    if v < 2 * k && v mod 2 = 0 then dep_sigma.(v / 2) else None
  in
  let apply_dep b =
    if exploit_dependencies then Bdd.compose m b dep_subst else b
  in
  let plain_bdds =
    let regs_a =
      Array.init ka (fun i -> apply_dep (Bdd.var m (p.Symbolic.cur_var i)))
    in
    let regs_b =
      Array.init (k - ka) (fun i ->
          apply_dep (Bdd.var m (p.Symbolic.cur_var (ka + i))))
    in
    let sa = Symbolic.compile_signals ~check:(fun () -> Common.check_nodes budget m) m ca ~inputs:inputs1 ~regs:regs_a in
    let sb = Symbolic.compile_signals ~check:(fun () -> Common.check_nodes budget m) m cb ~inputs:inputs1 ~regs:regs_b in
    Array.append sa sb
  in
  Common.check_nodes budget m;
  (* Next-cycle BDDs: register values one step later are their data
     functions (over inputs1); combinational signals one step later are
     recomputed over those and fresh inputs (inputs2). *)
  let step_bdds =
    let nf_a = Array.init ka (fun i -> plain_bdds.(ca.registers.(i).data)) in
    let nf_b =
      Array.init (k - ka) (fun i -> plain_bdds.(na + cb.registers.(i).data))
    in
    let sa = Symbolic.compile_signals ~check:(fun () -> Common.check_nodes budget m) m ca ~inputs:inputs2 ~regs:nf_a in
    let sb = Symbolic.compile_signals ~check:(fun () -> Common.check_nodes budget m) m cb ~inputs:inputs2 ~regs:nf_b in
    Array.append sa sb
  in
  Common.check_nodes budget m;
  (* Base: signal BDDs in the initial state *)
  let base_bdds =
    let regs_a =
      Array.init ka (fun i ->
          if p.Symbolic.init.(i) then Bdd.one m else Bdd.zero m)
    in
    let regs_b =
      Array.init (k - ka) (fun i ->
          if p.Symbolic.init.(ka + i) then Bdd.one m else Bdd.zero m)
    in
    let sa = Symbolic.compile_signals ~check:(fun () -> Common.check_nodes budget m) m ca ~inputs:inputs1 ~regs:regs_a in
    let sb = Symbolic.compile_signals ~check:(fun () -> Common.check_nodes budget m) m cb ~inputs:inputs1 ~regs:regs_b in
    Array.append sa sb
  in
  Common.check_nodes budget m;
  let ctx =
    {
      m;
      budget;
      n;
      k;
      inv = sg.inv;
      base_bdds;
      plain_bdds;
      step_bdds;
      state_only = Array.make n (-1);
    }
  in
  (ctx, classes0)

(* The candidate invariant A(s): conjunction of the pairwise
   equivalences of the state-only members of every class.  Used as a
   care-set constraint (van Eijk), which keeps the downward refinement
   monotone.

   Two representations.  [Mono] is the materialised conjunction — exact
   and cheap to check against ("A ∧ d = 0" is one [and_]) — and is used
   whenever building it stays within a node budget.  On mid-size
   circuits it does not: on s641 the monolithic A runs to 39 M nodes
   (62 s) while every individual equivalence stays tiny, so the build is
   abandoned and A is kept as [Conjuncts], the list of its conjuncts
   with their supports, which [equal_under] folds into the (small)
   difference BDD under hard work caps.  The capped path can refuse a
   merge it cannot afford to prove; refusing is always sound — agreement
   under A is only ever *assumed* of pairs the check did verify, so a
   refusal just leaves the partition finer (worst case the engine
   answers Inconclusive instead of burning the whole node budget). *)
type invariant =
  | Mono of Bdd.t
  | Conjuncts of (Bdd.t * int list) list

(* Budgets for materialising [Mono]: the running conjunction must stay
   under [mono_size_cap] nodes and the build under [mono_build_cap]
   fresh allocations.  Generous enough for every circuit the monolithic
   implementation handled (s344's A comfortably fits), hit early on the
   ones it did not (s641's A blows through both on its way to 39 M
   nodes). *)
let mono_size_cap = 1_000_000
let mono_build_cap = 8_000_000

(* Caps for the [Conjuncts] fallback.  Conjuncts above
   [constraint_size_cap] are dropped from the list: fewer constraints
   only weaken A, so every merge still proved remains sound, and it
   bounds each [and_] in the fold (an s-node diff by a c-node constraint
   can allocate O(s·c) nodes).  A single comparison gives up once it has
   allocated [equal_under_alloc_cap] fresh nodes or folded
   [equal_under_fold_cap] constraints without reaching zero. *)
let constraint_size_cap = 2_000
let equal_under_alloc_cap = 50_000
let equal_under_fold_cap = 48

exception Gave_up

let invariant_constraints ctx classes =
  let m = ctx.m in
  let cs = ref [] in
  List.iter
    (fun members ->
      match List.filter (fun u -> is_state_only ctx u) members with
      | [] -> ()
      | u0 :: rest ->
          let c0 = norm m ctx.plain_bdds.(u0) ctx.inv.(u0) in
          List.iter
            (fun u ->
              let cu = norm m ctx.plain_bdds.(u) ctx.inv.(u) in
              let x = Bdd.xnor_ m c0 cu in
              cs := (x, Bdd.support m x) :: !cs;
              Common.check_nodes ctx.budget m)
            rest)
    classes;
  List.rev !cs

(* Build the invariant for one refinement round.  [try_mono] persists
   across rounds: once materialisation has blown the budget on this
   refinement, later rounds go straight to the conjunct list (A only
   gets weaker as classes split, but not reliably smaller as a BDD). *)
let invariant_of ctx ~try_mono classes =
  let m = ctx.m in
  let cs = invariant_constraints ctx classes in
  let fallback () =
    Conjuncts
      (List.filter (fun (c, _) -> Bdd.size m c <= constraint_size_cap) cs)
  in
  if not !try_mono then fallback ()
  else
    let base = Bdd.node_count m in
    (* smallest conjuncts first: when A is going to blow up, the caps
       fire before any of the expensive products is even attempted *)
    let sized =
      List.stable_sort
        (fun (s1, _) (s2, _) -> compare s1 s2)
        (List.map (fun (c, _) -> (Bdd.size m c, c)) cs)
    in
    match
      List.fold_left
        (fun a (_, c) ->
          let a = Bdd.and_ m a c in
          Common.check_nodes ctx.budget m;
          if
            Bdd.node_count m - base > mono_build_cap
            || Bdd.size m a > mono_size_cap
          then raise Gave_up;
          a)
        (Bdd.one m) sized
    with
    | a -> Mono a
    | exception Gave_up ->
        try_mono := false;
        fallback ()

(* b1 and b2 agree on every state satisfying the candidate invariant:
   A ∧ (b1 ⊕ b2) = 0.  With [Mono] that is checked directly (exact).
   With [Conjuncts], three reductions keep the fold affordable.
   (1) The constraints are functions of the state variables only, so the
   inputs are quantified out of the difference up front:
   A ∧ d = 0  ⟺  A ∧ (∃inputs. d) = 0, and the quantified difference
   lives on ≤ 2k variables.  (2) Only constraints variable-connected to
   the difference are folded in: every constraint (and any sub-
   conjunction of them) is satisfied by the initial-state assignment, so
   the disconnected remainder C_rest in d ∧ C_conn ∧ C_rest is a
   satisfiable non-zero factor on disjoint variables and cannot change
   whether the product is zero — the restriction is exact.  The closure
   is grown breadth-first from the difference's support, which also
   folds the most relevant conjuncts first and lets the zero early-exit
   fire before the product grows.  (3) The fold gives up — answering
   "not equal", sound per the note above — when it trips the allocation
   or fold-length cap. *)
let equal_under ctx inv b1 b2 =
  Bdd.equal b1 b2
  ||
  let m = ctx.m in
  match inv with
  | Mono a ->
      let d = Bdd.xor_ m b1 b2 in
      Common.check_nodes ctx.budget m;
      let p = Bdd.and_ m a d in
      Common.check_nodes ctx.budget m;
      Bdd.is_zero m p
  | Conjuncts constraints -> (
      let base = Bdd.node_count m in
      let folded = ref 0 in
      let d0 = Bdd.xor_ m b1 b2 in
      Common.check_nodes ctx.budget m;
      let ivars = List.filter (fun v -> v >= 2 * ctx.k) (Bdd.support m d0) in
      let dq = if ivars = [] then d0 else Bdd.exists m ivars d0 in
      let seen = Array.make (max 1 (2 * ctx.k)) false in
      List.iter
        (fun v -> if v < 2 * ctx.k then seen.(v) <- true)
        (Bdd.support m dq);
      let diff = ref dq in
      let remaining = ref constraints in
      let progress = ref true in
      match
        while (not (Bdd.is_zero m !diff)) && !progress do
          progress := false;
          remaining :=
            List.filter
              (fun (c, sup) ->
                if
                  (not (Bdd.is_zero m !diff))
                  && List.exists (fun v -> seen.(v)) sup
                then begin
                  diff := Bdd.and_ m !diff c;
                  List.iter (fun v -> seen.(v) <- true) sup;
                  progress := true;
                  Common.check_nodes ctx.budget m;
                  incr folded;
                  if
                    Bdd.node_count m - base > equal_under_alloc_cap
                    || !folded > equal_under_fold_cap
                  then raise Gave_up;
                  false
                end
                else true)
              !remaining
        done
      with
      | () -> Bdd.is_zero m !diff
      | exception Gave_up -> false)

(* ------------------------------------------------------------------ *)
(* Union-find refinement                                               *)
(* ------------------------------------------------------------------ *)

(* Classes live in a union-find over the product universe.  Invariant
   kept by every round: a class representative (root) is its smallest
   live member — rounds scan the universe in ascending order and make
   the first element of each fresh bucket its parent, so the invariant
   is re-established rather than relied upon.  Dead (singleton) elements
   keep whatever parent they last had; [alive] is the source of
   truth. *)

let uf_find parent u =
  let rec root v = if parent.(v) = v then v else root parent.(v) in
  let r = root u in
  let rec compress v =
    if parent.(v) <> r then begin
      let p = parent.(v) in
      parent.(v) <- r;
      compress p
    end
  in
  compress u;
  r

(* The live partition as ascending member lists, classes ordered by
   their (smallest-member) root. *)
let live_classes parent alive n =
  let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for u = n - 1 downto 0 do
    if alive.(u) then begin
      let r = uf_find parent u in
      match Hashtbl.find_opt tbl r with
      | Some l -> l := u :: !l
      | None -> Hashtbl.add tbl r (ref [ u ])
    end
  done;
  Hashtbl.fold (fun r _ acc -> r :: acc) tbl []
  |> List.sort compare
  |> List.map (fun r -> !(Hashtbl.find tbl r))

(* Split every class by exact BDD identity of [key]: one ascending scan
   buckets live elements by (old root, key BDD), re-parents each onto
   the first element seen in its bucket, and kills buckets of one.
   Returns whether any class split. *)
let split_round ctx parent alive key =
  let n = ctx.n in
  let root = Array.make n (-1) in
  for u = 0 to n - 1 do
    if alive.(u) then root.(u) <- uf_find parent u
  done;
  let bucket : (int * Bdd.t, int) Hashtbl.t = Hashtbl.create 64 in
  let bsize : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let nbuck : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let changed = ref false in
  for u = 0 to n - 1 do
    if alive.(u) then begin
      let r = root.(u) in
      let kb = key u in
      match Hashtbl.find_opt bucket (r, kb) with
      | Some rep ->
          parent.(u) <- rep;
          Hashtbl.replace bsize rep (Hashtbl.find bsize rep + 1)
      | None ->
          parent.(u) <- u;
          Hashtbl.add bucket (r, kb) u;
          Hashtbl.add bsize u 1;
          let c = Option.value (Hashtbl.find_opt nbuck r) ~default:0 in
          Hashtbl.replace nbuck r (c + 1);
          if c >= 1 then changed := true
    end
  done;
  Hashtbl.iter
    (fun _ rep -> if Hashtbl.find bsize rep = 1 then alive.(rep) <- false)
    bucket;
  !changed

(* The step round: bucket by exact next-cycle BDD first, then merge
   bucket representatives that agree under the care set A — the
   (expensive) under-A comparison only runs between representatives.
   Merging is greedy over buckets in ascending-representative order;
   [equal_under_a] is not transitive, so this order is part of the
   algorithm's definition (and is shared with the list-based reference
   refiner below). *)
let step_round ctx parent alive constraints =
  let m = ctx.m in
  let n = ctx.n in
  let root = Array.make n (-1) in
  for u = 0 to n - 1 do
    if alive.(u) then root.(u) <- uf_find parent u
  done;
  let bucket : (int * Bdd.t, int) Hashtbl.t = Hashtbl.create 64 in
  let bsize : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let groups : (int, (Bdd.t * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  let roots_order = ref [] in
  for u = 0 to n - 1 do
    if alive.(u) then begin
      let r = root.(u) in
      let kb = norm m ctx.step_bdds.(u) ctx.inv.(u) in
      match Hashtbl.find_opt bucket (r, kb) with
      | Some rep ->
          parent.(u) <- rep;
          Hashtbl.replace bsize rep (Hashtbl.find bsize rep + 1)
      | None ->
          parent.(u) <- u;
          Hashtbl.add bucket (r, kb) u;
          Hashtbl.add bsize u 1;
          (match Hashtbl.find_opt groups r with
          | Some l -> l := (kb, u) :: !l
          | None ->
              Hashtbl.add groups r (ref [ (kb, u) ]);
              roots_order := r :: !roots_order)
    end
  done;
  let changed = ref false in
  List.iter
    (fun r ->
      let gs = List.rev !(Hashtbl.find groups r) in
      let rec part = function
        | [] -> []
        | (kb, rep) :: rest ->
            let same, diff =
              List.partition
                (fun (kb2, _) ->
                  Common.check_nodes ctx.budget m;
                  equal_under ctx constraints kb kb2)
                rest
            in
            List.iter
              (fun (_, rep2) ->
                parent.(rep2) <- rep;
                Hashtbl.replace bsize rep
                  (Hashtbl.find bsize rep + Hashtbl.find bsize rep2))
              same;
            rep :: part diff
      in
      let leaders = part gs in
      if List.length leaders > 1 then changed := true;
      List.iter
        (fun rep -> if Hashtbl.find bsize rep = 1 then alive.(rep) <- false)
        leaders)
    (List.rev !roots_order);
  !changed

let refine_uf ctx classes0 =
  let n = ctx.n in
  let parent = Array.init n Fun.id in
  let alive = Array.make n false in
  List.iter
    (function
      | [] | [ _ ] -> ()
      | rep :: _ as members ->
          List.iter
            (fun u ->
              alive.(u) <- true;
              parent.(u) <- rep)
            members)
    classes0;
  let try_mono = ref true in
  let stable = ref false in
  while not !stable do
    Common.check_nodes ctx.budget ctx.m;
    (* 1. base split: members must agree in the initial state *)
    let ch1 =
      split_round ctx parent alive (fun u ->
          norm ctx.m ctx.base_bdds.(u) ctx.inv.(u))
    in
    let cls1 = live_classes parent alive n in
    (* 2. the candidate invariant from the post-base classes *)
    let a_inv = invariant_of ctx ~try_mono cls1 in
    (* 3. step split: members must agree one cycle later, on states
       satisfying A *)
    let ch2 = step_round ctx parent alive a_inv in
    stable := not (ch1 || ch2)
  done;
  live_classes parent alive n

(* ------------------------------------------------------------------ *)
(* List-based reference refinement                                     *)
(* ------------------------------------------------------------------ *)

(* The pre-union-find refiner, retained as an executable specification:
   same candidate classes, same greedy ascending merge order, naive
   list-of-lists representation.  The test suite checks both compute
   the same fixpoint on random circuits. *)
let refine_list ctx classes0 =
  let m = ctx.m in
  let classes = ref (List.filter (fun c -> List.length c > 1) classes0) in
  let split_exact key cls =
    let changed = ref false and out = ref [] in
    List.iter
      (fun members ->
        let h : (Bdd.t, int list ref) Hashtbl.t = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun u ->
            let kb = key u in
            match Hashtbl.find_opt h kb with
            | Some l -> l := u :: !l
            | None ->
                Hashtbl.add h kb (ref [ u ]);
                order := kb :: !order)
          members;
        let parts =
          List.rev_map (fun kb -> List.rev !(Hashtbl.find h kb)) !order
        in
        if List.length parts > 1 then changed := true;
        List.iter (fun p -> if List.length p > 1 then out := p :: !out) parts)
      cls;
    (List.rev !out, !changed)
  in
  let split_step a_inv cls =
    let equal_under_a b1 b2 = equal_under ctx a_inv b1 b2 in
    let changed = ref false and out = ref [] in
    List.iter
      (fun members ->
        let h : (Bdd.t, int list ref) Hashtbl.t = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun u ->
            let kb = norm m ctx.step_bdds.(u) ctx.inv.(u) in
            match Hashtbl.find_opt h kb with
            | Some l -> l := u :: !l
            | None ->
                Hashtbl.add h kb (ref [ u ]);
                order := kb :: !order)
          members;
        let groups =
          List.rev_map (fun kb -> (kb, List.rev !(Hashtbl.find h kb))) !order
        in
        let rec part = function
          | [] -> []
          | (kb, mems) :: rest ->
              let same, diff =
                List.partition
                  (fun (kb2, _) ->
                    Common.check_nodes ctx.budget m;
                    equal_under_a kb kb2)
                  rest
              in
              (mems @ List.concat_map snd same) :: part diff
        in
        let parts = part groups in
        if List.length parts > 1 then changed := true;
        List.iter (fun p -> if List.length p > 1 then out := p :: !out) parts)
      cls;
    (List.rev !out, !changed)
  in
  let try_mono = ref true in
  let stable = ref false in
  while not !stable do
    Common.check_nodes ctx.budget m;
    let cls1, ch1 =
      split_exact (fun u -> norm m ctx.base_bdds.(u) ctx.inv.(u)) !classes
    in
    let a_inv = invariant_of ctx ~try_mono cls1 in
    let cls2, ch2 = split_step a_inv cls1 in
    classes := cls2;
    stable := not (ch1 || ch2)
  done;
  !classes

let refine_both_for_tests budget ca cb =
  let m = Bdd.manager () in
  let ctx, classes0 = make_ctx ~exploit_dependencies:false m budget ca cb in
  let canon cls =
    cls
    |> List.map (fun c ->
           List.sort compare c |> List.map (fun u -> (u, ctx.inv.(u))))
    |> List.sort compare
  in
  (canon (refine_uf ctx classes0), canon (refine_list ctx classes0))

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

(* The correspondence computation over a caller-supplied manager (so the
   caller can snapshot kernel counters).  Raises [Common.Out_of_budget]. *)
let equiv_m ~exploit_dependencies m budget ca cb =
  let ctx, classes0 = make_ctx ~exploit_dependencies m budget ca cb in
  let classes = refine_uf ctx classes0 in
  let na = n_signals ca in
  (* ---- conclude ---- *)
  (* Primary check: the two output signals ended up in the same inductive
     class with the same polarity.  Fallback: the fixpoint classes induce
     an inductive invariant A over the reachable states, so an output
     pair that was never a simulation candidate (or landed in different
     classes) can still be discharged by checking the output functions
     equal under A directly — exactly the predicate the refinement used
     for its merges. *)
  let final_inv = invariant_of ctx ~try_mono:(ref true) classes in
  let class_of = Hashtbl.create 256 in
  List.iteri
    (fun ci members ->
      List.iter (fun u -> Hashtbl.replace class_of u (ci, ctx.inv.(u))) members)
    classes;
  let ok = ref true in
  Array.iteri
    (fun j (_, s) ->
      let _, sb = cb.outputs.(j) in
      match
        (Hashtbl.find_opt class_of s, Hashtbl.find_opt class_of (na + sb))
      with
      | Some (c1, i1), Some (c2, i2) when c1 = c2 && i1 = i2 -> ()
      | _ ->
          if
            not
              (equal_under ctx final_inv ctx.plain_bdds.(s)
                 ctx.plain_bdds.(na + sb))
          then ok := false)
    ca.outputs;
  if !ok then (Common.Equivalent, List.length classes)
  else
    ( Common.Inconclusive "outputs not in a common inductive class",
      List.length classes )

let equiv ?(exploit_dependencies = false) budget ca cb =
  let engine = if exploit_dependencies then "eijk_star" else "eijk" in
  Common.observe_bdd ~engine (fun m ->
      let r, classes = equiv_m ~exploit_dependencies m budget ca cb in
      (r, [ ("inductive_classes", float_of_int classes) ]))
