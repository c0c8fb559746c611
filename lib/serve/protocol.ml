(* The wire protocol of the retiming daemon: request records and their
   parser, the error taxonomy, and response rendering.  Nothing here
   touches the cache or the pool. *)

type error_code =
  | Bad_request
  | Invalid_netlist
  | Invalid_cut
  | Cut_mismatch
  | Join_mismatch
  | Kernel_invariant
  | Unsupported
  | Interface_mismatch
  | Deadline_exceeded
  | Cert_unavailable
  | Shutdown
  | Internal

let code_string = function
  | Bad_request -> "bad_request"
  | Invalid_netlist -> "invalid_netlist"
  | Invalid_cut -> "invalid_cut"
  | Cut_mismatch -> "cut_mismatch"
  | Join_mismatch -> "join_mismatch"
  | Kernel_invariant -> "kernel_invariant"
  | Unsupported -> "unsupported"
  | Interface_mismatch -> "interface_mismatch"
  | Deadline_exceeded -> "deadline_exceeded"
  | Cert_unavailable -> "cert_unavailable"
  | Shutdown -> "shutdown"
  | Internal -> "internal"

(* Every typed exception of the stack maps to a protocol error — the
   point of finishing the typed-error unification in lib/engines and
   Pool.submit.  [Internal] is the catch-all for genuine bugs, a
   [Failure] from deep in the stack included: it would blame this
   repository, not the client. *)
let error_of_exn = function
  | Circuit.Invalid_netlist msg -> (Invalid_netlist, msg)
  | Cut.Invalid_cut msg -> (Invalid_cut, msg)
  | Hash.Errors.Cut_mismatch msg -> (Cut_mismatch, msg)
  | Hash.Errors.Join_mismatch msg -> (Join_mismatch, msg)
  | Hash.Errors.Kernel_invariant msg -> (Kernel_invariant, msg)
  | Engines.Common.Unsupported msg -> (Unsupported, msg)
  | Engines.Common.Interface_mismatch msg -> (Interface_mismatch, msg)
  | Engines.Common.Out_of_budget -> (Deadline_exceeded, "deadline exceeded")
  | Parallel.Pool.Shutdown -> (Shutdown, "server is shutting down")
  | e -> (Internal, Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

type cut_spec = Maximal | Gates of int list

type request = {
  id : Obs.Json.t option;  (* echoed back verbatim *)
  blif : string;
  level : Hash.Embed.level;
  cut : cut_spec;
  deadline_s : float;
  echo : bool;
      (* [false] elides the retimed BLIF and theorem text from the ok
         response — the proof still ran (or was found cached); fleet
         drivers that only want status/stats/digest skip paying the
         multi-KB proof echo per circuit *)
  cert : bool;
      (* [true] records the kernel derivation and attaches a replayable
         proof certificate to the ok response.  Only a proof run by this
         request can be certified: a cache hit answers with the typed
         [Cert_unavailable] error instead of fabricating a certificate
         the server never recorded. *)
}

let parse_request ~default_deadline_s json : (request, string) result =
  let open Obs.Json in
  match json with
  | Obj _ -> (
      let id = member "id" json in
      match member "blif" json with
      | None -> Error "missing field: blif"
      | Some (Str blif) -> (
          let level_r =
            match member "level" json with
            | None | Some (Str "bit") -> Ok Hash.Embed.Bit_level
            | Some (Str "rt") -> Ok Hash.Embed.Rt_level
            | Some _ -> Error "bad field: level (expected \"bit\" or \"rt\")"
          in
          let cut_r =
            match member "cut" json with
            | None | Some (Str "maximal") -> Ok Maximal
            | Some (List l) ->
                let rec ints acc = function
                  | [] -> Ok (Gates (List.rev acc))
                  | Int i :: rest -> ints (i :: acc) rest
                  | _ -> Error "bad field: cut (expected integer gate list)"
                in
                ints [] l
            | Some _ ->
                Error "bad field: cut (expected \"maximal\" or a gate list)"
          in
          let deadline_r =
            match member "deadline_s" json with
            | None -> Ok default_deadline_s
            | Some (Int i) -> Ok (float_of_int i)
            | Some (Float f) -> Ok f
            | Some _ -> Error "bad field: deadline_s (expected a number)"
          in
          let echo_r =
            match member "echo" json with
            | None -> Ok true
            | Some (Bool b) -> Ok b
            | Some _ -> Error "bad field: echo (expected a boolean)"
          in
          let cert_r =
            match member "cert" json with
            | None -> Ok false
            | Some (Bool b) -> Ok b
            | Some _ -> Error "bad field: cert (expected a boolean)"
          in
          match (level_r, cut_r, deadline_r, echo_r, cert_r) with
          | Ok level, Ok cut, Ok dl, Ok echo, Ok cert ->
              if not (dl > 0.0) then
                Error "bad field: deadline_s (must be positive)"
              else
                Ok
                  {
                    id;
                    blif;
                    level;
                    cut;
                    deadline_s = min dl 3600.0;
                    echo;
                    cert;
                  }
          | Error e, _, _, _, _
          | _, Error e, _, _, _
          | _, _, Error e, _, _
          | _, _, _, Error e, _
          | _, _, _, _, Error e ->
              Error e)
      | Some _ -> Error "bad field: blif (expected a string)")
  | _ -> Error "request is not a JSON object"

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

(* A response stays structural until the moment it is written: a warm
   hit over a socket then costs no response-sized allocation at all —
   the writer streams the entry's pre-rendered fields straight into the
   channel buffer.  (Rendering per hit was the warm-path bottleneck:
   the theorem text makes responses ~20KB, far above the major-heap
   threshold, and GC dominated.) *)
type response =
  | Rendered of string
  | Ok_body of {
      ok_id : Obs.Json.t option;
      ok_e : Proof_cache.entry;
      ok_echo : bool;
      ok_hit : bool;
      ok_cacheable : bool;
      ok_digest : string option;  (* hex — needs no JSON escaping *)
      ok_cert : string option;  (* recorded proof certificate text *)
      ok_snap : Proof_cache.totals;
      ok_wall : float;
    }

let error_response ?id code msg =
  Rendered
    (Obs.Json.to_string
       (Obs.Json.Obj
          ((match id with Some id -> [ ("id", id) ] | None -> [])
          @ [
              ("status", Obs.Json.Str "error");
              ( "error",
                Obs.Json.Obj
                  [
                    ("code", Obs.Json.Str (code_string code));
                    ("message", Obs.Json.Str msg);
                  ] );
            ])))

(* [wall_s] is a difference of two {!Logic.Clock.now} readings, reported
   to the microsecond, so it is emitted as fixed six-decimal seconds
   with integer arithmetic — [Printf "%.15g"] cost ~0.5us per response,
   a real fraction of a warm hit.  Out-of-range values fall back to the
   exact renderer. *)
let wall_string w =
  if w >= 0.0 && w < 1e6 then begin
    let us = int_of_float ((w *. 1e6) +. 0.5) in
    let sec = us / 1_000_000 and frac = us mod 1_000_000 in
    let fs = string_of_int frac in
    let pad = String.make (6 - String.length fs) '0' in
    String.concat "" [ string_of_int sec; "."; pad; fs ]
  end
  else Obs.Json.to_string (Obs.Json.Float w)

(* The per-entry constant fields, rendered to JSON fragments (no outer
   braces) exactly as [Obs.Json.to_string] would emit them inline, in
   one buffer: the terse prefix (["circuit":…,"retimed":…] alone) is
   what it holds before the proof echo is appended. *)
let render_entry_fields ~blif ~theorem ~gates ~ffs : Proof_cache.entry =
  let gb, ga = gates and fb, fa = ffs in
  (* escaping turns each BLIF newline into two bytes *)
  let buf =
    Buffer.create
      (String.length blif + (String.length blif / 8) + String.length theorem
     + 128)
  in
  let add = Buffer.add_string buf in
  let circ key g f =
    add key;
    add (string_of_int g);
    add ",\"flipflops\":";
    add (string_of_int f);
    add "}"
  in
  circ "\"circuit\":{\"gates\":" gb fb;
  circ ",\"retimed\":{\"gates\":" ga fa;
  let terse = Buffer.contents buf in
  add ",\"blif\":";
  Obs.Json.add_quoted buf blif;
  add ",\"theorem\":";
  Obs.Json.add_quoted buf theorem;
  { fields = Buffer.contents buf; terse }

(* Append a response to [buf], the one renderer behind both
   [handle_line] and the channel writer.  Everything is emitted from
   scalars: the warm path builds no intermediate JSON tree, and the only
   response-sized string it touches ([fields]) is the one shared by the
   cache entry. *)
let add_response buf r =
  let f = Buffer.add_string buf in
  match r with
  | Rendered s -> f s
  | Ok_body
      {
        ok_id;
        ok_e;
        ok_echo;
        ok_hit;
        ok_cacheable;
        ok_digest;
        ok_cert;
        ok_snap;
        ok_wall;
      } ->
      let b tag = f (if tag then "true" else "false") in
      let i n = f (string_of_int n) in
      f "{";
      (match ok_id with
      | Some id ->
          f "\"id\":";
          f (Obs.Json.to_string id);
          f ","
      | None -> ());
      f "\"status\":\"ok\",";
      if ok_echo then f ok_e.fields else f ok_e.terse;
      (match ok_cert with
      | Some cert ->
          (* cold path only (a fresh proof with recording on) *)
          f ",\"cert\":";
          Obs.Json.add_quoted buf cert
      | None -> ());
      f ",\"cache\":{\"hit\":";
      b ok_hit;
      f ",\"cacheable\":";
      b ok_cacheable;
      (match ok_digest with
      | Some d ->
          f ",\"digest\":\"";
          f d;
          f "\""
      | None -> ());
      f ",\"hits\":";
      i ok_snap.hits;
      f ",\"misses\":";
      i ok_snap.misses;
      f ",\"evictions\":";
      i ok_snap.evictions;
      f ",\"insertions\":";
      i ok_snap.insertions;
      f ",\"entries\":";
      i ok_snap.entries;
      f "},\"wall_s\":";
      f (wall_string ok_wall);
      f "}"
