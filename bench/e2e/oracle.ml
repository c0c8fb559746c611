(* The benchmark's correctness oracle, run off the clock.  An answer
   passes only if it describes the circuit the request sent: its counts
   are those of the conventional forward retiming of that circuit, its
   echoed netlist simulates like the request, its theorem is a theorem,
   and its certificate replays to exactly that theorem. *)

type expect = {
  circuit : Circuit.t;
  gates : int * int;  (** request, retimed *)
  ffs : int * int;
}

let expect_of_blif blif =
  let c = Blif.of_string blif in
  let r = Forward.retime c (Cut.maximal c) in
  {
    circuit = c;
    gates = (Circuit.gate_count c, Circuit.gate_count r);
    ffs = (Circuit.flipflop_count c, Circuit.flipflop_count r);
  }

(* 4 seeded runs of 64 cycles from the initial state, outputs compared
   cycle by cycle. *)
let cosim a b =
  Circuit.n_inputs a = Circuit.n_inputs b
  && Array.length a.Circuit.outputs = Array.length b.Circuit.outputs
  && List.for_all
       (fun k ->
         let rng = Random.State.make [| 0x5eed; k |] in
         let ins = List.init 64 (fun _ -> Sim.random_inputs rng a) in
         List.for_all2
           (Array.for_all2 Sim.value_equal)
           (Sim.run a ins) (Sim.run b ins))
       [ 0; 1; 2; 3 ]

let ( let* ) = Result.bind
let member = Obs.Json.member

let describe j =
  let s = Obs.Json.to_string j in
  if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let counts name j =
  match member name j with
  | Some o -> (
      match (member "gates" o, member "flipflops" o) with
      | Some (Obs.Json.Int g), Some (Obs.Json.Int f) -> Ok (g, f)
      | _ -> Error ("malformed " ^ name ^ " counts"))
  | None -> Error ("missing " ^ name ^ " counts")

(* [on_replay] receives the duration of the certificate replay. *)
let check_ok ?(on_replay = ignore) e ~echo ~cert j =
  let* () =
    match member "status" j with
    | Some (Obs.Json.Str "ok") -> Ok ()
    | _ -> Error ("expected an ok answer, got " ^ describe j)
  in
  let* g0, f0 = counts "circuit" j in
  let* g1, f1 = counts "retimed" j in
  let* () =
    if (g0, g1) = e.gates && (f0, f1) = e.ffs then Ok ()
    else
      Error
        (Printf.sprintf
           "counts %d/%d gates, %d/%d flip-flops; forward retiming gives \
            %d/%d, %d/%d"
           g0 g1 f0 f1 (fst e.gates) (snd e.gates) (fst e.ffs) (snd e.ffs))
  in
  let theorem =
    match member "theorem" j with Some (Obs.Json.Str t) -> Some t | _ -> None
  in
  let* () =
    if not echo then Ok ()
    else
      match (member "blif" j, theorem) with
      | Some (Obs.Json.Str b), Some th -> (
          if not (String.starts_with ~prefix:"|-" th) then
            Error "theorem does not start with |-"
          else
            match Blif.of_string b with
            | exception Circuit.Invalid_netlist m -> Error ("echoed BLIF: " ^ m)
            | c ->
                if cosim e.circuit c then Ok ()
                else Error "echoed netlist does not simulate like the request")
      | _ -> Error "echo requested but blif/theorem missing"
  in
  if not cert then Ok ()
  else
    match (member "cert" j, theorem) with
    | Some (Obs.Json.Str text), Some th -> (
        let t0 = Logic.Clock.monotonic_seconds () in
        let r = Cert.check_string text in
        on_replay (Logic.Clock.monotonic_seconds () -. t0);
        match r with
        | Ok (thm, _) ->
            if Logic.Kernel.string_of_thm thm = th then Ok ()
            else Error "certificate replays to another theorem"
        | Error rej -> Error ("certificate rejected: " ^ Cert.reject_to_string rej))
    | _ -> Error "certificate requested but cert/theorem missing"

let check_error code j =
  match (member "status" j, Option.bind (member "error" j) (member "code")) with
  | Some (Obs.Json.Str "error"), Some (Obs.Json.Str c) when c = code -> Ok ()
  | _ -> Error (Printf.sprintf "expected error %s, got %s" code (describe j))
