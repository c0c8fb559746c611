(* The rules compare.exe applies to two run sets of the service
   benchmark, with the bounds declared in BENCHMARK.json. *)

type metric = { name : string; lower_better : bool; bound : float }

type run = {
  workload : string;
  seed : int;
  correct : bool;
  values : (string * float) list;
}

let member = Obs.Json.member
let str k j = match member k j with Some (Obs.Json.Str s) -> Some s | _ -> None

let num = function
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let metrics_of_benchmark j =
  match member "end_to_end" j with
  | Some (Obs.Json.List l) ->
      List.filter_map
        (fun m ->
          Option.map
            (fun name ->
              {
                name;
                lower_better = str "better" m = Some "lower";
                bound = Option.value ~default:0.0 (num (member "bound" m));
              })
            (str "name" m))
        l
  | _ -> []

(* The untraced runs of a run-set file ({"runs": [...]}), in file order. *)
let runs_of_json j =
  let run j =
    {
      workload = Option.value ~default:"" (str "workload" j);
      seed = (match member "seed" j with Some (Obs.Json.Int s) -> s | _ -> 0);
      correct = member "correct" j = Some (Obs.Json.Bool true);
      values =
        (match member "metrics" j with
        | Some (Obs.Json.Obj ms) ->
            List.filter_map
              (fun (n, m) -> Option.map (fun v -> (n, v)) (num (member "value" m)))
              ms
        | _ -> []);
    }
  in
  match member "runs" j with
  | Some (Obs.Json.List l) ->
      List.filter_map
        (fun j ->
          if member "trace" j = Some (Obs.Json.Bool true) then None else Some (run j))
        l
  | _ -> []

(* Parent and change runs of one workload, paired by seed and, among
   runs of one seed, by position: the k-th parent run at seed s goes
   with the k-th change run at seed s, so no run is used twice. *)
let pairs parent change =
  let keyed rs =
    let count = Hashtbl.create 16 in
    List.map
      (fun r ->
        let k = Option.value ~default:0 (Hashtbl.find_opt count r.seed) in
        Hashtbl.replace count r.seed (k + 1);
        ((r.seed, k), r))
      rs
  in
  let p = keyed parent in
  List.filter_map
    (fun (key, c) -> Option.map (fun pr -> (pr, c)) (List.assoc_opt key p))
    (keyed change)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(data, n=4), method "exclusive". *)
let quartiles a =
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

type summary = { median : float; q1 : float; q3 : float }

type verdict = {
  parent : summary;
  change : summary;
  rel : float;  (** (change - parent) / parent, of the medians *)
  verdict : string;  (** improved, regressed, unchanged or unresolved *)
}

(* - improved: the change wins at least 9 in 10 pairs and the medians
     differ by more than the parent's quartile spread;
   - regressed: the change's median is worse than the parent's by more
     than the bound, and either both sides' spreads are within the
     bound or every change run is worse than every parent run;
   - unresolved: a spread wider than the bound, unless every change run
     is better than every parent run;
   - unchanged: otherwise. *)
let judge m parent change pairs =
  let p = sorted parent and c = sorted change in
  let summary a =
    let q1, q3 = quartiles a in
    { median = median a; q1; q3 }
  in
  let sp = summary p and sc = summary c in
  (* [worse x y] > 0: x reads worse than y *)
  let worse x y = if m.lower_better then x -. y else y -. x in
  let best a = if m.lower_better then a.(0) else a.(Array.length a - 1)
  and worst a = if m.lower_better then a.(Array.length a - 1) else a.(0) in
  let rel = worse sc.median sp.median /. Float.abs sp.median in
  let spread s = (s.q3 -. s.q1) /. Float.abs s.median in
  let spread = Float.max (spread sp) (spread sc) in
  let wins = List.length (List.filter (fun (x, y) -> worse y x < 0.0) pairs) in
  let verdict =
    if
      pairs <> []
      && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
      && rel < 0.0
      && Float.abs (sc.median -. sp.median) > sp.q3 -. sp.q1
    then "improved"
    else if rel > m.bound && (spread <= m.bound || worse (best c) (worst p) > 0.0)
    then "regressed"
    else if spread > m.bound && not (worse (worst c) (best p) < 0.0) then "unresolved"
    else "unchanged"
  in
  { parent = sp; change = sc; rel = (sc.median -. sp.median) /. Float.abs sp.median; verdict }

(* One metric of one workload: [None] when a side has no value. *)
let compare_metric m ~parent ~change =
  let value r = List.assoc_opt m.name r.values in
  match (List.filter_map value parent, List.filter_map value change) with
  | [], _ | _, [] -> None
  | pv, cv ->
      let ps =
        List.filter_map
          (fun (p, c) ->
            match (value p, value c) with Some x, Some y -> Some (x, y) | _ -> None)
          (pairs parent change)
      in
      Some (judge m pv cv ps)
