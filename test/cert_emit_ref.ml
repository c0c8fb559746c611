(* [Cert.emit] as it stood before the single-pass Buffer rewrite: every
   line through [Printf.ksprintf], every trace event materialised
   before pruning.  Kept verbatim (module paths aside) as the reference
   of test_cert's "emitter agrees with its reference" differential test
   and of its allocation pin: the production emitter must write the
   same bytes, in fewer words. *)

open Hol
open Logic

(* ------------------------------------------------------------------ *)
(* Name escaping: tokens are space-separated, so control characters,   *)
(* spaces, '%' and non-ASCII bytes are rendered as %XX.                *)
(* ------------------------------------------------------------------ *)

let esc s =
  let special ch = ch <= ' ' || ch >= '\127' || ch = '%' in
  if not (String.exists special s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun ch ->
        if special ch then
          Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code ch))
        else Buffer.add_char b ch)
      s;
    Buffer.contents b
  end

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

exception Emit_fail of string

let deps = function
  | Kernel.Trace.Refl _ | Kernel.Trace.Beta _ | Kernel.Trace.Assume _
  | Kernel.Trace.Axiom_ref _ | Kernel.Trace.Def_ref _ | Kernel.Trace.Import _
    ->
      []
  | Kernel.Trace.Trans (i, j)
  | Kernel.Trace.Mk_comb (i, j)
  | Kernel.Trace.Eq_mp (i, j)
  | Kernel.Trace.Deduct (i, j) ->
      [ i; j ]
  | Kernel.Trace.Abs (_, i)
  | Kernel.Trace.Inst (_, i)
  | Kernel.Trace.Inst_type (_, i) ->
      [ i ]

let emit tr th =
  match Kernel.step_in tr th with
  | None -> Error "theorem was not recorded in this trace"
  | Some root -> (
      try
        let n = Kernel.Trace.length tr in
        let events = Array.init n (Kernel.Trace.event tr) in
        (* prune to the proof of [th]: mark steps reachable from the root *)
        let reach = Array.make n false in
        let stack = ref [ root ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | i :: rest ->
              stack := rest;
              if not reach.(i) then begin
                reach.(i) <- true;
                List.iter (fun j -> stack := j :: !stack) (deps events.(i))
              end
        done;
        let newid = Array.make n (-1) in
        let next = ref 0 in
        for i = 0 to n - 1 do
          if reach.(i) then begin
            newid.(i) <- !next;
            incr next
          end
        done;
        let buf = Buffer.create 65536 in
        let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
        pr "hashcert 1\n";
        (* types and terms are interned into dag tables, each node
           emitted once, before its first use *)
        let tyids : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let tmids : (int, int) Hashtbl.t = Hashtbl.create 1024 in
        let tyc = ref 0 and tmc = ref 0 in
        let rec ty_id (t : Ty.t) =
          match Hashtbl.find_opt tyids t.Ty.id with
          | Some i -> i
          | None -> (
              match t.Ty.node with
              | Ty.Tyvar v ->
                  let i = !tyc in
                  incr tyc;
                  Hashtbl.add tyids t.Ty.id i;
                  pr "Y %d v %s\n" i (esc v);
                  i
              | Ty.Tyapp (op, args) ->
                  let ids = List.map ty_id args in
                  let i = !tyc in
                  incr tyc;
                  Hashtbl.add tyids t.Ty.id i;
                  pr "Y %d a %s %d%s\n" i (esc op) (List.length ids)
                    (String.concat ""
                       (List.map (fun j -> " " ^ string_of_int j) ids));
                  i)
        in
        let rec tm_id (tm : Term.t) =
          match Hashtbl.find_opt tmids tm.Term.id with
          | Some i -> i
          | None ->
              let fresh line =
                let i = !tmc in
                incr tmc;
                Hashtbl.add tmids tm.Term.id i;
                pr "T %d %s\n" i (line ());
                i
              in
              (match tm.Term.node with
              | Term.Var (v, ty) ->
                  let tyi = ty_id ty in
                  fresh (fun () -> Printf.sprintf "v %s %d" (esc v) tyi)
              | Term.Const (c, ty) ->
                  let tyi = ty_id ty in
                  fresh (fun () -> Printf.sprintf "c %s %d" (esc c) tyi)
              | Term.Comb (f, x) ->
                  let a = tm_id f in
                  let b = tm_id x in
                  fresh (fun () -> Printf.sprintf "k %d %d" a b)
              | Term.Abs (v, body) ->
                  let a = tm_id v in
                  let b = tm_id body in
                  fresh (fun () -> Printf.sprintf "l %d %d" a b))
        in
        (* theory context: full signature, axioms and definitions in
           insertion order, imports in first-use order with sequents *)
        List.iter
          (fun (name, arity) -> pr "tycon %s %d\n" (esc name) arity)
          (Kernel.types ());
        List.iter
          (fun (name, gty) ->
            let i = ty_id gty in
            pr "const %s %d\n" (esc name) i)
          (Kernel.constants ());
        List.iter
          (fun (name, ath) ->
            let i = tm_id (Kernel.concl ath) in
            pr "axiom %s %d\n" (esc name) i)
          (Kernel.axioms ());
        List.iter
          (fun (name, dth) ->
            let i = tm_id (Kernel.concl dth) in
            pr "def %s %d\n" (esc name) i)
          (Kernel.definitions ());
        let registered = Kernel.registered_theorems () in
        let seq_suffix ith =
          let hids = List.map tm_id (Kernel.hyp ith) in
          let ci = tm_id (Kernel.concl ith) in
          Printf.sprintf "%d%s %d" (List.length hids)
            (String.concat ""
               (List.map (fun j -> " " ^ string_of_int j) hids))
            ci
        in
        let imported = Hashtbl.create 16 in
        for i = 0 to n - 1 do
          if reach.(i) then
            match events.(i) with
            | Kernel.Trace.Import name when not (Hashtbl.mem imported name) ->
                Hashtbl.add imported name ();
                let ith =
                  match List.assoc_opt name registered with
                  | Some ith -> ith
                  | None ->
                      raise (Emit_fail ("imported theorem vanished: " ^ name))
                in
                pr "import %s %s\n" (esc name) (seq_suffix ith)
            | _ -> ()
        done;
        (* the derivation *)
        for i = 0 to n - 1 do
          if reach.(i) then begin
            let id = newid.(i) in
            match events.(i) with
            | Kernel.Trace.Refl t ->
                let ti = tm_id t in
                pr "S %d r %d\n" id ti
            | Kernel.Trace.Trans (a, b) ->
                pr "S %d t %d %d\n" id newid.(a) newid.(b)
            | Kernel.Trace.Mk_comb (a, b) ->
                pr "S %d c %d %d\n" id newid.(a) newid.(b)
            | Kernel.Trace.Abs (v, a) ->
                let vi = tm_id v in
                pr "S %d l %d %d\n" id vi newid.(a)
            | Kernel.Trace.Beta t ->
                let ti = tm_id t in
                pr "S %d b %d\n" id ti
            | Kernel.Trace.Assume p ->
                let pi = tm_id p in
                pr "S %d a %d\n" id pi
            | Kernel.Trace.Eq_mp (a, b) ->
                pr "S %d m %d %d\n" id newid.(a) newid.(b)
            | Kernel.Trace.Deduct (a, b) ->
                pr "S %d d %d %d\n" id newid.(a) newid.(b)
            | Kernel.Trace.Inst (theta, a) ->
                let pairs =
                  List.map (fun (v, t) -> (tm_id v, tm_id t)) theta
                in
                pr "S %d i %d%s %d\n" id (List.length pairs)
                  (String.concat ""
                     (List.map
                        (fun (vi, ti) -> Printf.sprintf " %d %d" vi ti)
                        pairs))
                  newid.(a)
            | Kernel.Trace.Inst_type (tyin, a) ->
                let pairs =
                  List.map (fun (v, t) -> (esc v, ty_id t)) tyin
                in
                pr "S %d y %d%s %d\n" id (List.length pairs)
                  (String.concat ""
                     (List.map
                        (fun (v, ti) -> Printf.sprintf " %s %d" v ti)
                        pairs))
                  newid.(a)
            | Kernel.Trace.Axiom_ref name -> pr "S %d A %s\n" id (esc name)
            | Kernel.Trace.Def_ref name -> pr "S %d D %s\n" id (esc name)
            | Kernel.Trace.Import name -> pr "S %d I %s\n" id (esc name)
          end
        done;
        pr "qed %d %s\n" newid.(root) (seq_suffix th);
        Ok (Buffer.contents buf)
      with Emit_fail msg -> Error msg)
