(* The campaign driver: run every mutant through the pipeline the paper
   describes (cut construction → formal retiming → synthesis check) and
   classify the outcome.

   The paper's claim (§IV.C) is that a faulty heuristic can only make
   the transformation FAIL — never produce an incorrect theorem.  In
   executable terms:

   - a mutant rejected by an exception of the typed taxonomy is a
     {e clean rejection} (the claim holds, observably);
   - a mutant rejected by any other exception is a
     {e wrong-exception-class} outcome: the claim still holds (no
     theorem), but the error surface regressed — gated in CI;
   - an {e accepted} mutant must be a benign mutation, so it is
     cross-checked: the kernel-independent [Synthesis.check], 64+ cycles
     of random co-simulation, and (where bit-blasting succeeds) exact
     symbolic equivalence.  Accepted-but-inequivalent is a soundness
     bug and fails the whole campaign. *)

type config = {
  mutants : int;
  seed : int;
  budget_s : float;  (* per-mutant deadline for the formal step *)
  sim_steps : int;  (* co-simulation cycles for accepted mutants *)
}

let default = { mutants = 600; seed = 1; budget_s = 30.; sim_steps = 64 }

(* The typed taxonomy.  [Hash.Errors.Kernel_invariant] is deliberately
   absent: it blames this repository, not the heuristic, so seeing it
   counts as wrong-exception-class. *)
let classify = function
  | Cut.Invalid_cut _ -> Some "Invalid_cut"
  | Circuit.Invalid_netlist _ -> Some "Invalid_netlist"
  | Hash.Errors.Cut_mismatch _ -> Some "Cut_mismatch"
  | Hash.Errors.Join_mismatch _ -> Some "Join_mismatch"
  | Engines.Common.Out_of_budget -> Some "Out_of_budget"
  | _ -> None

let exn_class e =
  match Printexc.exn_slot_name e with "" -> Printexc.to_string e | n -> n

(* ------------------------------------------------------------------ *)
(* Bases                                                               *)
(* ------------------------------------------------------------------ *)

let base base_name level circuit =
  match (try Some (Cut.maximal circuit) with Cut.Invalid_cut _ -> None) with
  | Some cut -> Some { Mutate.base_name; circuit; level; cut }
  | None -> None

let default_bases () =
  List.filter_map Fun.id
    [
      base "fig2_rt4" Hash.Embed.Rt_level (Fig2.rt 4);
      base "fig2_rt8" Hash.Embed.Rt_level (Fig2.rt 8);
      base "fig2_gate3" Hash.Embed.Bit_level (Fig2.gate 3);
      base "fig2_gate5" Hash.Embed.Bit_level (Fig2.gate 5);
      base "rand_bit_a" Hash.Embed.Bit_level
        (Random_circ.generate ~retimable:true ~seed:11 ~max_gates:12 ());
      base "rand_bit_b" Hash.Embed.Bit_level
        (Random_circ.generate ~retimable:true ~seed:23 ~max_gates:16 ());
      base "rand_word" Hash.Embed.Rt_level
        (Random_circ.generate ~retimable:true ~words:true ~seed:37
           ~max_gates:10 ());
    ]
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* One mutant                                                          *)
(* ------------------------------------------------------------------ *)

(* Only [Invalid_netlist] may demote a cosim to "not equivalent": it means
   the accepted circuit does not even simulate.  Anything else
   (Out_of_memory, Stack_overflow, a bug here) must propagate — a crash
   counted as a verdict is exactly the hazard this campaign exists to
   exclude. *)
let cosim rng steps c1 c2 =
  try
    let st1 = ref (Sim.initial_state c1) in
    let st2 = ref (Sim.initial_state c2) in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < steps do
      incr i;
      let ins = Sim.random_inputs rng c1 in
      let o1, s1 = Sim.step c1 !st1 ins in
      let o2, s2 = Sim.step c2 !st2 ins in
      st1 := s1;
      st2 := s2;
      if
        Array.length o1 <> Array.length o2
        || not (Array.for_all2 Sim.value_equal o1 o2)
      then ok := false
    done;
    !ok
  with Circuit.Invalid_netlist _ -> false

(* Exact symbolic cross-check; [None] when it cannot decide (word
   circuits that fail to bit-blast, engine-unsupported shapes, budget
   exhaustion).  The handler lists exactly those typed outcomes: a [None]
   is "accepted as equivalent" upstream, so letting a wildcard turn
   Out_of_memory into [None] would count a crash as a correct result. *)
let bdd_equiv budget_s c1 c2 =
  match
    try
      let b1 = Bitblast.expand c1 and b2 = Bitblast.expand c2 in
      let budget = Engines.Common.budget_of_seconds budget_s in
      Some (Engines.Smv.equiv budget b1 b2).Obs.result
    with
    | Circuit.Invalid_netlist _ | Engines.Common.Unsupported _
    | Engines.Common.Interface_mismatch _ | Engines.Common.Out_of_budget ->
        None
  with
  | Some Engines.Common.Equivalent -> Some true
  | Some (Engines.Common.Not_equivalent _) -> Some false
  | Some (Engines.Common.Inconclusive _ | Engines.Common.Timeout) | None ->
      None

let run_one config rng (s : Mutate.subject) =
  let budget = Engines.Common.budget_of_seconds config.budget_s in
  try
    let cut =
      match s.Mutate.spec with
      | Mutate.Gates gs -> Cut.of_gates s.Mutate.circuit gs
      | Mutate.Forged cut -> cut
      | Mutate.Prefix_k k -> (
          match Cut.prefixes s.Mutate.circuit k with
          | cut :: _ -> cut
          | [] -> Cut.invalid_cut "Campaign: Cut.prefixes returned no cut")
    in
    let step =
      Hash.Synthesis.retime ~budget s.Mutate.level s.Mutate.circuit cut
    in
    let after = step.Hash.Synthesis.after in
    if not (Hash.Synthesis.check step) then Obs.Faults.Accepted_inequivalent
    else if not (cosim rng config.sim_steps s.Mutate.circuit after) then
      Obs.Faults.Accepted_inequivalent
    else
      match bdd_equiv config.budget_s s.Mutate.circuit after with
      | Some false -> Obs.Faults.Accepted_inequivalent
      | Some true | None -> Obs.Faults.Accepted_equivalent
  with e -> (
    match classify e with
    | Some cls -> Obs.Faults.Rejected cls
    | None -> Obs.Faults.Wrong_exception (exn_class e))

(* ------------------------------------------------------------------ *)
(* Ranges and reports                                                  *)
(* ------------------------------------------------------------------ *)

(* Mutant [i] is fully determined by (seed, i): its own RNG stream, its
   base (rotating once per full pass over the classes) and its mutator
   class.  A class that does not apply to the chosen base falls through
   to the next class, deterministically. *)
let nth_subject config ~bases i =
  let rng = Random.State.make [| config.seed; i |] in
  let ncls = List.length Mutate.classes in
  let base_idx = i / ncls mod Array.length bases in
  let rec try_cls k =
    if k >= ncls then None
    else
      let cls = List.nth Mutate.classes ((i + k) mod ncls) in
      match Mutate.apply rng ~bases ~base_idx cls with
      | Some s -> Some (s, rng)
      | None -> try_cls (k + 1)
  in
  try_cls 0

let run_range config ~bases lo hi =
  let table : (string, Obs.Faults.t) Hashtbl.t = Hashtbl.create 16 in
  for i = lo to hi - 1 do
    match nth_subject config ~bases i with
    | None -> ()
    | Some (s, rng) ->
        let outcome = run_one config rng s in
        let t =
          match Hashtbl.find_opt table s.Mutate.mutator with
          | Some t -> t
          | None ->
              let t = Obs.Faults.create () in
              Hashtbl.add table s.Mutate.mutator t;
              t
        in
        Obs.Faults.record t outcome
  done;
  table

let merge_tables ~into src =
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt into k with
      | Some t -> Obs.Faults.merge ~into:t v
      | None -> Hashtbl.add into k v)
    src

let run config = run_range config ~bases:(default_bases ()) 0 config.mutants

let totals table =
  let t = Obs.Faults.create () in
  Hashtbl.iter (fun _ v -> Obs.Faults.merge ~into:t v) table;
  t

let report_json ~config ~jobs table =
  let tot = totals table in
  let fields_of t =
    match Obs.Faults.to_json t with Obs.Json.Obj f -> f | _ -> []
  in
  let classes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) ->
           Obs.Json.Obj (("name", Obs.Json.Str k) :: fields_of v))
  in
  Obs.Json.Obj
    ([
       ("table", Obs.Json.Str "faults");
       ("seed", Obs.Json.Int config.seed);
       ("jobs", Obs.Json.Int jobs);
       ("classes", Obs.Json.List classes);
     ]
    @ fields_of tot
    @ [ ("zero_accepted", Obs.Json.Bool (tot.Obs.Faults.accepted_inequivalent = 0)) ])
