open Hol
open Logic

type reject =
  | Bad_version of string
  | Bad_format of int * string
  | Unknown_type_constant of string
  | Type_arity_mismatch of string * int * int
  | Unknown_constant of string
  | Signature_mismatch of string
  | Unknown_axiom of string
  | Axiom_mismatch of string
  | Unknown_definition of string
  | Definition_mismatch of string
  | Unknown_import of string
  | Import_mismatch of string
  | Replay_failure of int * string
  | Conclusion_mismatch

let reject_to_string = function
  | Bad_version l -> "bad_version: expected \"hashcert 1\", got " ^ l
  | Bad_format (ln, msg) -> Printf.sprintf "bad_format: line %d: %s" ln msg
  | Unknown_type_constant n -> "unknown_type_constant: " ^ n
  | Type_arity_mismatch (n, c, o) ->
      Printf.sprintf "type_arity_mismatch: %s: certificate %d, theory %d" n c o
  | Unknown_constant n -> "unknown_constant: " ^ n
  | Signature_mismatch n -> "signature_mismatch: " ^ n
  | Unknown_axiom n -> "unknown_axiom: " ^ n
  | Axiom_mismatch n -> "axiom_mismatch: " ^ n
  | Unknown_definition n -> "unknown_definition: " ^ n
  | Definition_mismatch n -> "definition_mismatch: " ^ n
  | Unknown_import n -> "unknown_import: " ^ n
  | Import_mismatch n -> "import_mismatch: " ^ n
  | Replay_failure (ix, msg) -> Printf.sprintf "replay_failure: step %d: %s" ix msg
  | Conclusion_mismatch -> "conclusion_mismatch"

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

let unesc s =
  if not (String.contains s '%') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' then begin
        if !i + 2 >= n then failwith "truncated escape";
        let hex = String.sub s (!i + 1) 2 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some c -> Buffer.add_char b (Char.chr c)
        | None -> failwith "bad escape");
        i := !i + 3
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
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

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

exception Rej of reject

let rej r = raise (Rej r)

(* Sequent equality: hypotheses are compared as alpha-equivalence sets
   (the kernel keeps them sorted by alphaorder without duplicates). *)
let same_sequent hyps concl th =
  let hyps = List.sort_uniq Term.alphaorder hyps in
  let actual = Kernel.hyp th in
  List.length hyps = List.length actual
  && List.for_all2 Term.aconv hyps actual
  && Term.aconv concl (Kernel.concl th)

(* The parser is a hand-rolled cursor over the certificate bytes: no
   per-line string splitting, integers decoded in place, names
   substringed only when a line actually carries one.  Replay speed is
   a headline number (bench cert/), and the split-and-int_of_string
   formulation cost more than the kernel replay itself. *)
let check_string s =
  (* the checker's own theory, by name *)
  let own_ty_arity : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (n, a) -> Hashtbl.replace own_ty_arity n a) (Kernel.types ());
  let index l =
    let h : (string, Kernel.thm) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (n, th) -> if not (Hashtbl.mem h n) then Hashtbl.add h n th)
      l;
    h
  in
  let own_axioms = index (Kernel.axioms ()) in
  let own_defs = index (Kernel.definitions ()) in
  let own_imports = index (Kernel.registered_theorems ()) in
  (* certificate state: ids are dense and sequential (the emitter
     numbers each table 0,1,2,... in order of first use), so plain
     growable arrays serve as the dag tables: (entries, count) *)
  let tys = (ref [||], ref 0) in
  let tms = (ref [||], ref 0) in
  let steps = (ref [||], ref 0) in
  let prims = ref 0 in
  let result : Kernel.thm option ref = ref None in
  let n = String.length s in
  let pos = ref 0 in
  let ln = ref 1 in
  let bad : 'a. string -> 'a = fun msg -> rej (Bad_format (!ln, msg)) in
  let eol () = !pos >= n || String.unsafe_get s !pos = '\n' in
  let expect_eol () =
    if eol () then begin
      if !pos < n then incr pos;
      incr ln
    end
    else bad "trailing tokens"
  in
  (* one space-terminated token as a raw (start, len) slice; consumes a
     single trailing separator space *)
  let tok_raw () =
    let st = !pos in
    while
      !pos < n
      && String.unsafe_get s !pos <> ' '
      && String.unsafe_get s !pos <> '\n'
    do
      incr pos
    done;
    let len = !pos - st in
    if !pos < n && String.unsafe_get s !pos = ' ' then incr pos;
    (st, len)
  in
  let raw_str (st, len) = String.sub s st len in
  let raw_eq (st, len) lit =
    len = String.length lit
    &&
    let rec go i =
      i = len || (String.unsafe_get s (st + i) = lit.[i] && go (i + 1))
    in
    go 0
  in
  let tok_int () =
    let st = !pos in
    let neg = !pos < n && String.unsafe_get s !pos = '-' in
    if neg then incr pos;
    let v = ref 0 in
    let digits = ref 0 in
    while
      !pos < n
      &&
      let c = String.unsafe_get s !pos in
      c >= '0' && c <= '9'
    do
      v := (!v * 10) + (Char.code (String.unsafe_get s !pos) - 48);
      incr digits;
      incr pos
    done;
    if
      !digits = 0
      || not
           (!pos >= n
           || String.unsafe_get s !pos = ' '
           || String.unsafe_get s !pos = '\n')
    then begin
      (* scan to the token end so the message shows the whole token *)
      let r = tok_raw () in
      bad ("not an integer: " ^ String.sub s st (fst r + snd r - st))
    end;
    if !pos < n && String.unsafe_get s !pos = ' ' then incr pos;
    if neg then - !v else !v
  in
  let tok_name () =
    let r = tok_raw () in
    if snd r = 0 then bad "missing name token"
    else
      try unesc (raw_str r)
      with Failure m -> bad ("bad name token: " ^ m)
  in
  let get (a, n) what i =
    if i >= 0 && i < !n then Array.unsafe_get !a i
    else bad (Printf.sprintf "undefined %s id %d" what i)
  in
  let ty i = get tys "type" i and tm i = get tms "term" i in
  let step ix i =
    let a, n = steps in
    if i >= 0 && i < !n then Array.unsafe_get !a i
    else rej (Replay_failure (ix, "undefined step operand " ^ string_of_int i))
  in
  let define (a, n) what i x =
    if i <> !n then bad (Printf.sprintf "non-sequential %s id %d" what i);
    if !n = Array.length !a then begin
      let a' = Array.make (max 1024 (2 * !n)) x in
      Array.blit !a 0 a' 0 !n;
      a := a'
    end;
    !a.(!n) <- x;
    incr n
  in
  let prim : 'a. int -> (unit -> 'a) -> 'a =
   fun ix f ->
    incr prims;
    match f () with
    | th -> th
    | exception Failure msg -> rej (Replay_failure (ix, msg))
  in
  let sequent_of () =
    let k = tok_int () in
    let hyps = List.init k (fun _ -> tm (tok_int ())) in
    let c = tm (tok_int ()) in
    (hyps, c)
  in
  let do_line () =
    let kw = tok_raw () in
    if snd kw = 0 then expect_eol () (* blank line *)
    else if raw_eq kw "S" then begin
      let ix = tok_int () in
      let kind = tok_raw () in
      if snd kind <> 1 then bad "malformed step line";
      let th =
        match String.unsafe_get s (fst kind) with
        | 'r' -> prim ix (fun () -> Kernel.refl (tm (tok_int ())))
        | 't' ->
            let a = step ix (tok_int ()) in
            let b = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.trans a b)
        | 'c' ->
            let a = step ix (tok_int ()) in
            let b = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.mk_comb_rule a b)
        | 'l' ->
            let v = tm (tok_int ()) in
            let a = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.abs v a)
        | 'b' -> prim ix (fun () -> Kernel.beta (tm (tok_int ())))
        | 'a' -> prim ix (fun () -> Kernel.assume (tm (tok_int ())))
        | 'm' ->
            let a = step ix (tok_int ()) in
            let b = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.eq_mp a b)
        | 'd' ->
            let a = step ix (tok_int ()) in
            let b = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.deduct_antisym_rule a b)
        | 'i' ->
            let k = tok_int () in
            if k = 0 then bad "empty substitution";
            let theta =
              List.init k (fun _ ->
                  let v = tm (tok_int ()) in
                  let t = tm (tok_int ()) in
                  (v, t))
            in
            let a = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.inst theta a)
        | 'y' ->
            let k = tok_int () in
            if k = 0 then bad "empty substitution";
            let tyin =
              List.init k (fun _ ->
                  let v = tok_name () in
                  let t = ty (tok_int ()) in
                  (v, t))
            in
            let a = step ix (tok_int ()) in
            prim ix (fun () -> Kernel.inst_type tyin a)
        | 'A' -> (
            let name = tok_name () in
            match Hashtbl.find_opt own_axioms name with
            | Some th -> th
            | None -> rej (Unknown_axiom name))
        | 'D' -> (
            let name = tok_name () in
            match Hashtbl.find_opt own_defs name with
            | Some th -> th
            | None -> rej (Unknown_definition name))
        | 'I' -> (
            let name = tok_name () in
            match Hashtbl.find_opt own_imports name with
            | Some th -> th
            | None -> rej (Unknown_import name))
        | _ -> bad "malformed step line"
      in
      expect_eol ();
      define steps "step" ix th
    end
    else if raw_eq kw "T" then begin
      let i = tok_int () in
      let kind = tok_raw () in
      if snd kind <> 1 then bad "malformed term line";
      let t =
        match String.unsafe_get s (fst kind) with
        | 'v' ->
            let v = tok_name () in
            Term.mk_var v (ty (tok_int ()))
        | 'c' -> (
            let c = tok_name () in
            let cty = ty (tok_int ()) in
            if not (Kernel.is_constant c) then rej (Unknown_constant c)
            else
              match Kernel.mk_const_at c cty with
              | t -> t
              | exception Failure _ -> rej (Signature_mismatch c))
        | 'k' -> (
            let f = tm (tok_int ()) in
            let x = tm (tok_int ()) in
            match Term.mk_comb f x with
            | t -> t
            | exception Failure msg -> bad ("ill-typed combination: " ^ msg))
        | 'l' -> (
            let v = tm (tok_int ()) in
            let b = tm (tok_int ()) in
            match Term.mk_abs v b with
            | t -> t
            | exception Failure msg -> bad ("ill-formed abstraction: " ^ msg))
        | _ -> bad "malformed term line"
      in
      expect_eol ();
      define tms "term" i t
    end
    else if raw_eq kw "Y" then begin
      let i = tok_int () in
      let kind = tok_raw () in
      if snd kind <> 1 then bad "malformed type line";
      let t =
        match String.unsafe_get s (fst kind) with
        | 'v' -> Ty.var (tok_name ())
        | 'a' ->
            let op = tok_name () in
            let k = tok_int () in
            (match Hashtbl.find_opt own_ty_arity op with
            | None -> rej (Unknown_type_constant op)
            | Some a when a <> k -> rej (Type_arity_mismatch (op, k, a))
            | Some _ -> ());
            Ty.app op (List.init k (fun _ -> ty (tok_int ())))
        | _ -> bad "malformed type line"
      in
      expect_eol ();
      define tys "type" i t
    end
    else if raw_eq kw "tycon" then begin
      let name = tok_name () in
      let arity = tok_int () in
      expect_eol ();
      match Hashtbl.find_opt own_ty_arity name with
      | None -> rej (Unknown_type_constant name)
      | Some a when a <> arity -> rej (Type_arity_mismatch (name, arity, a))
      | Some _ -> ()
    end
    else if raw_eq kw "const" then begin
      let name = tok_name () in
      let gty = ty (tok_int ()) in
      expect_eol ();
      if not (Kernel.is_constant name) then rej (Unknown_constant name)
      else if not (Ty.equal (Kernel.get_const_type name) gty) then
        rej (Signature_mismatch name)
    end
    else if raw_eq kw "axiom" then begin
      let name = tok_name () in
      let c = tm (tok_int ()) in
      expect_eol ();
      match Hashtbl.find_opt own_axioms name with
      | None -> rej (Unknown_axiom name)
      | Some th -> if not (same_sequent [] c th) then rej (Axiom_mismatch name)
    end
    else if raw_eq kw "def" then begin
      let name = tok_name () in
      let c = tm (tok_int ()) in
      expect_eol ();
      match Hashtbl.find_opt own_defs name with
      | None -> rej (Unknown_definition name)
      | Some th ->
          if not (same_sequent [] c th) then rej (Definition_mismatch name)
    end
    else if raw_eq kw "import" then begin
      let name = tok_name () in
      let hyps, c = sequent_of () in
      expect_eol ();
      match Hashtbl.find_opt own_imports name with
      | None -> rej (Unknown_import name)
      | Some th ->
          if not (same_sequent hyps c th) then rej (Import_mismatch name)
    end
    else if raw_eq kw "qed" then begin
      if !result <> None then bad "duplicate qed";
      let i = tok_int () in
      let th = step i i in
      let hyps, c = sequent_of () in
      expect_eol ();
      if not (same_sequent hyps c th) then rej Conclusion_mismatch
      else result := Some th
    end
    else bad "unrecognized line"
  in
  try
    (* version line *)
    let vend = match String.index_opt s '\n' with Some i -> i | None -> n in
    if String.sub s 0 vend <> "hashcert 1" then
      rej (Bad_version (if n = 0 then "<empty>" else String.sub s 0 vend));
    pos := if vend < n then vend + 1 else n;
    ln := 2;
    while !pos < n do
      do_line ()
    done;
    match !result with
    | Some th -> Ok (th, !prims)
    | None -> bad "missing qed"
  with Rej r -> Error r

let check_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> check_string (really_input_string ic (in_channel_length ic)))
