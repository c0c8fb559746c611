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
(* spaces, '%' and non-ASCII bytes are rendered as %XX, with uppercase  *)
(* hex.  The checker accepts exactly what [add_esc] writes: no other    *)
(* escape, and no special byte left raw.                                *)
(* ------------------------------------------------------------------ *)

let special ch = ch <= ' ' || ch >= '\127' || ch = '%'
let hex = "0123456789ABCDEF"

let add_esc b s =
  if not (String.exists special s) then Buffer.add_string b s
  else
    String.iter
      (fun ch ->
        if special ch then begin
          Buffer.add_char b '%';
          Buffer.add_char b hex.[Char.code ch lsr 4];
          Buffer.add_char b hex.[Char.code ch land 15]
        end
        else Buffer.add_char b ch)
      s

let unesc s =
  if not (String.exists special s) then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let digit i =
      match s.[i] with
      | '0' .. '9' as c -> Char.code c - 48
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> failwith "bad escape"
    in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '%' then begin
        if !i + 2 >= n then failwith "truncated escape";
        let ch = Char.chr ((16 * digit (!i + 1)) + digit (!i + 2)) in
        if not (special ch) then failwith "needless escape";
        Buffer.add_char b ch;
        i := !i + 3
      end
      else if special s.[!i] then failwith "unescaped byte"
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

(* Every line is written straight into one Buffer.  [add_int] prints
   what [string_of_int] prints, from the non-positive side so that
   [min_int] needs no case of its own. *)
let rec add_nonpos b n =
  if n <= -10 then add_nonpos b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  add_nonpos b (if n < 0 then n else -n)

(* type and term ids to certificate ids *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

exception Emit_fail of string

let emit tr th =
  match Kernel.step_in tr th with
  | None -> Error "theorem was not recorded in this trace"
  | Some root -> (
      try
        let open Kernel.Trace in
        (* prune to the proof of [th]: an event's operands are earlier
           events, so one backward sweep from the root marks every step
           the proof reaches, and reads only those; each import is
           kept at its first use *)
        let reach = Bytes.make (root + 1) '\000' in
        let mark i = Bytes.set reach i '\001' in
        let imports = ref [] in
        mark root;
        for i = root downto 0 do
          if Bytes.get reach i <> '\000' then
            match event tr i with
            | Trans (a, b) | Mk_comb (a, b) | Eq_mp (a, b) | Deduct (a, b) ->
                mark a; mark b
            | Abs (_, a) | Inst (_, a) | Inst_type (_, a) -> mark a
            | Import nm ->
                imports := nm :: List.filter (fun m -> m <> nm) !imports
            | _ -> ()
        done;
        (* every number follows a space *)
        let buf = Buffer.create 65536 in
        let str = Buffer.add_string buf and chr = Buffer.add_char buf in
        let name = add_esc buf in
        let int i = chr ' '; add_int buf i in
        str "hashcert 1\n";
        (* types and terms are interned into dag tables, each node
           emitted once, before its first use *)
        let tyids = Ids.create 64 and tmids = Ids.create 1024 in
        let rec ty_id (t : Ty.t) =
          match Ids.find tyids t.Ty.id with
          | i -> i
          | exception Not_found ->
              (match t.Ty.node with
              | Ty.Tyapp (_, args) -> List.iter (fun a -> ignore (ty_id a)) args
              | Ty.Tyvar _ -> ());
              let i = Ids.length tyids in
              Ids.add tyids t.Ty.id i;
              str "Y"; int i;
              (match t.Ty.node with
              | Ty.Tyvar v -> str " v "; name v
              | Ty.Tyapp (op, args) ->
                  str " a "; name op; int (List.length args);
                  List.iter (fun a -> int (ty_id a)) args);
              chr '\n';
              i
        in
        let rec tm_id (tm : Term.t) =
          match Ids.find tmids tm.Term.id with
          | i -> i
          | exception Not_found ->
              let kind, nm, a, b =
                match tm.Term.node with
                | Term.Var (v, ty) -> (" v ", v, ty_id ty, -1)
                | Term.Const (c, ty) -> (" c ", c, ty_id ty, -1)
                | Term.Comb (f, x) -> let a = tm_id f in (" k", "", a, tm_id x)
                | Term.Abs (v, b) -> let a = tm_id v in (" l", "", a, tm_id b)
              in
              let i = Ids.length tmids in
              Ids.add tmids tm.Term.id i;
              str "T"; int i; str kind; name nm; int a;
              if b >= 0 then int b;
              chr '\n';
              i
        in
        (* [kw <head> <k> <hyp>* <concl>], its terms interned first *)
        let sequent kw head ith =
          let hyps = Kernel.hyp ith in
          List.iter (fun h -> ignore (tm_id h)) hyps;
          let c = tm_id (Kernel.concl ith) in
          str kw; head (); int (List.length hyps);
          List.iter (fun h -> int (tm_id h)) hyps;
          int c; chr '\n'
        in
        (* theory context: full signature, axioms and definitions in
           insertion order, imports in first-use order with sequents *)
        let named kw (nm, i) = str kw; name nm; int i; chr '\n' in
        let each kw f = List.iter (fun (nm, x) -> named kw (nm, f x)) in
        each "tycon " Fun.id (Kernel.types ());
        each "const " ty_id (Kernel.constants ());
        each "axiom " (fun th -> tm_id (Kernel.concl th)) (Kernel.axioms ());
        each "def " (fun th -> tm_id (Kernel.concl th)) (Kernel.definitions ());
        let registered = Kernel.registered_theorems () in
        List.iter
          (fun nm ->
            match List.assoc_opt nm registered with
            | Some ith -> sequent "import " (fun () -> name nm) ith
            | None -> raise (Emit_fail ("imported theorem vanished: " ^ nm)))
          !imports;
        (* the derivation, renumbered densely *)
        let newid = Array.make (root + 1) (-1) in
        let next = ref 0 in
        let step kind = str "S"; int !next; str kind in
        let step_tm kind t = let ti = tm_id t in step kind; int ti in
        let step2 kind a b = step kind; int newid.(a); int newid.(b) in
        for i = 0 to root do
          if Bytes.get reach i <> '\000' then begin
            (match event tr i with
            | Refl t -> step_tm " r" t
            | Beta t -> step_tm " b" t
            | Assume t -> step_tm " a" t
            | Trans (a, b) -> step2 " t" a b
            | Mk_comb (a, b) -> step2 " c" a b
            | Eq_mp (a, b) -> step2 " m" a b
            | Deduct (a, b) -> step2 " d" a b
            | Abs (v, a) -> step_tm " l" v; int newid.(a)
            | Inst (theta, a) ->
                (* each pair's term is numbered before its variable *)
                List.iter (fun (v, t) -> ignore (tm_id t); ignore (tm_id v)) theta;
                step " i"; int (List.length theta);
                List.iter (fun (v, t) -> int (tm_id v); int (tm_id t)) theta;
                int newid.(a)
            | Inst_type (tyin, a) ->
                List.iter (fun (_, t) -> ignore (ty_id t)) tyin;
                step " y"; int (List.length tyin);
                List.iter (fun (v, t) -> chr ' '; name v; int (ty_id t)) tyin;
                int newid.(a)
            | Axiom_ref nm -> step " A "; name nm
            | Def_ref nm -> step " D "; name nm
            | Import nm -> step " I "; name nm);
            chr '\n';
            newid.(i) <- !next;
            incr next
          end
        done;
        sequent "qed" (fun () -> int newid.(root)) th;
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
  (* a natural number as [string_of_int] prints it: no sign, no
     leading zero, and at most 18 digits, so it cannot wrap *)
  let tok_int () =
    let st = !pos in
    let v = ref 0 in
    while
      !pos < n
      &&
      let c = String.unsafe_get s !pos in
      c >= '0' && c <= '9'
    do
      v := (!v * 10) + (Char.code (String.unsafe_get s !pos) - 48);
      incr pos
    done;
    let digits = !pos - st in
    if
      digits = 0 || digits > 18
      || (digits > 1 && String.unsafe_get s st = '0')
      || not
           (!pos >= n
           || String.unsafe_get s !pos = ' '
           || String.unsafe_get s !pos = '\n')
    then begin
      (* scan to the token end so the message shows the whole token *)
      let r = tok_raw () in
      bad ("not a canonical integer: " ^ String.sub s st (fst r + snd r - st))
    end;
    if !pos < n && String.unsafe_get s !pos = ' ' then incr pos;
    !v
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
