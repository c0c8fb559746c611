open Circuit

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

(* BLIF identifiers are whitespace-delimited tokens; '#' starts a
   comment and '\' continues a line, so none of those may appear inside
   a net name.  Anything suspicious becomes '_'. *)
let sanitize name =
  if name = "" then "out"
  else
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']'
        | '<' | '>' | '$' | ':' | '-' ->
            ch
        | _ -> '_')
      name

(* Emitted net names for a circuit.  Output names are the user's,
   sanitized and uniquified among themselves; internal nets use the
   pi%d / lq%d / n%d namespace but step aside (trailing '_') whenever a
   user output already took the name, so an output called "n5" or "pi0"
   can no longer alias an unrelated internal net. *)
type names = {
  out_names : string array;  (* per c.outputs entry *)
  taken : (string, unit) Hashtbl.t;
}

let make_names c =
  let taken = Hashtbl.create 64 in
  let out_names =
    Array.map
      (fun (n, _) ->
        let base = sanitize n in
        let name = ref base in
        let i = ref 1 in
        while Hashtbl.mem taken !name do
          incr i;
          name := Printf.sprintf "%s_%d" base !i
        done;
        Hashtbl.replace taken !name ();
        !name)
      c.outputs
  in
  { out_names; taken }

let internal nm base =
  let name = ref base in
  while Hashtbl.mem nm.taken !name do
    name := !name ^ "_"
  done;
  !name

let sig_name c nm s =
  match c.drivers.(s) with
  | Input i -> internal nm (Printf.sprintf "pi%d" i)
  | Reg_out r -> internal nm (Printf.sprintf "lq%d" r)
  | Gate (_, _) -> internal nm (Printf.sprintf "n%d" s)

(* Truth-table lines for one gate, in BLIF .names conventions. *)
let gate_table op =
  match op with
  | Buf -> [ "1 1" ]
  | Not -> [ "0 1" ]
  | And -> [ "11 1" ]
  | Or -> [ "1- 1"; "-1 1" ]
  | Nand -> [ "0- 1"; "-0 1" ]
  | Nor -> [ "00 1" ]
  | Xor -> [ "10 1"; "01 1" ]
  | Xnor -> [ "11 1"; "00 1" ]
  | Mux -> [ "11- 1"; "0-1 1" ]
  | Constb true -> [ "1" ]
  | Constb false -> []
  | Winc | Wadd | Weq | Wmux | Wnot | Wand | Wor | Wxor | Wconst _ ->
      invalid_netlist "Blif: word operator (bit-blast first)"

let to_string c =
  Array.iter
    (function
      | B -> () | W _ -> invalid_netlist "Blif: word input (bit-blast first)")
    c.input_widths;
  let nm = make_names c in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".model %s\n" (sanitize c.name);
  pr ".inputs";
  Array.iteri (fun i _ -> pr " %s" (internal nm (Printf.sprintf "pi%d" i)))
    c.input_widths;
  pr "\n.outputs";
  Array.iter (fun n -> pr " %s" n) nm.out_names;
  pr "\n";
  Array.iteri
    (fun r (reg : register) ->
      let init =
        match reg.init with
        | Bit b -> if b then 1 else 0
        | Word _ -> invalid_netlist "Blif: word register (bit-blast first)"
      in
      pr ".latch %s %s re clk %d\n"
        (sig_name c nm reg.data)
        (internal nm (Printf.sprintf "lq%d" r))
        init)
    c.registers;
  List.iter
    (fun s ->
      match c.drivers.(s) with
      | Gate (op, args) ->
          pr ".names";
          List.iter (fun a -> pr " %s" (sig_name c nm a)) args;
          pr " %s\n" (sig_name c nm s);
          List.iter (fun line -> pr "%s\n" line) (gate_table op)
      | Input _ | Reg_out _ -> ())
    (topo_order c);
  (* the output names are a namespace of their own: connect each to its
     driving net with a buffer (internal names never equal an output
     name, so this can no longer silently alias two nets) *)
  Array.iteri
    (fun i (_, s) -> pr ".names %s %s\n1 1\n" (sig_name c nm s) nm.out_names.(i))
    c.outputs;
  pr ".end\n";
  Buffer.contents buf

let output oc c = Stdlib.output_string oc (to_string c)


(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* The reader is one index-driven pass over the text.  Net names are
   interned into dense ids as they are read, so definitions, resolved
   signals and the cycle guard are int arrays, and truth tables are
   matched as ints ([row_key]).  The circuit is built through the
   [Circuit] builder, so the arity and width checks stay in one place. *)

(* [a] at twice its length [n], padded with [x] *)
let doubled a n x =
  let a' = Array.make (2 * n) x in
  Array.blit a 0 a' 0 n;
  a'

(* A growable int array: the first [n] slots of [a]. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 64 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then v.a <- doubled v.a v.n 0;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(* name.[i ..] = text.[start + i .. start + len - 1], for i <= len =
   String.length name and start + len <= String.length text *)
let rec same_from name text start len i =
  i = len
  || String.unsafe_get name i = String.unsafe_get text (start + i)
     && same_from name text start len (i + 1)

(* text.[start .. start + len - 1] = name, for a range inside text *)
let same_name name text start len =
  String.length name = len && same_from name text start len 0

(* Net names by dense id, found through an open-addressed table over the
   text: a name read k times is copied out of the text once. *)
type nets = {
  mutable names : string array;  (* id -> name *)
  mutable hashes : int array;  (* id -> hash of the name *)
  mutable count : int;
  mutable slots : int array;  (* id + 1, 0 when free; power-of-two length *)
}

let hash_range text start len =
  let h = ref 0x811c9dc5 in
  for i = start to start + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get text i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 31)

let place slots h id =
  let mask = Array.length slots - 1 in
  let rec go i =
    if slots.(i) = 0 then slots.(i) <- id + 1 else go ((i + 1) land mask)
  in
  go (h land mask)

(* the id of text.[start .. start + len - 1] (hash [h]), probing from
   slot [i]; a new name gets the next id *)
let rec probe t text start len h i =
  let id = t.slots.(i) - 1 in
  if id < 0 then add t text start len h
  else if t.hashes.(id) = h && same_name t.names.(id) text start len then id
  else probe t text start len h ((i + 1) land (Array.length t.slots - 1))

and add t text start len h =
  let id = t.count in
  if id = Array.length t.names then begin
    t.names <- doubled t.names id "";
    t.hashes <- doubled t.hashes id 0
  end;
  t.names.(id) <- String.sub text start len;
  t.hashes.(id) <- h;
  t.count <- id + 1;
  if 2 * t.count > Array.length t.slots then begin
    t.slots <- Array.make (2 * Array.length t.slots) 0;
    for j = 0 to id - 1 do
      place t.slots t.hashes.(j) j
    done
  end;
  place t.slots h id;
  id

let intern t text start len =
  let h = hash_range text start len in
  probe t text start len h (h land (Array.length t.slots - 1))

(* The logical line under the cursor: one physical line, or several
   joined by a trailing '\'.  Each physical line loses everything from
   its first '#', then the characters [String.trim] strips from both
   ends; a kept trailing '\' joins the next line with one blank.  Tokens
   are separated by ' ' and '\t'. *)
type line = {
  text : string;
  mutable next : int;  (* start of the next physical line; > length at the end *)
  toks : ints;  (* start and length of each token, interleaved *)
  mutable first : int;  (* code of the joined line's first char; -1 if empty *)
  mutable start : int;  (* source span of the line, for error messages *)
  mutable stop : int;
}

let trimmed = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* the tokens of text.[s .. e - 1], a range inside the text *)
let add_tokens l s e =
  let text = l.text in
  let i = ref s in
  while !i < e do
    let c = String.unsafe_get text !i in
    if c = ' ' || c = '\t' then incr i
    else begin
      let j = ref (!i + 1) in
      while
        !j < e
        &&
        let c = String.unsafe_get text !j in
        c <> ' ' && c <> '\t'
      do
        incr j
      done;
      push l.toks !i;
      push l.toks (!j - !i);
      i := !j
    end
  done

(* Load the next logical line; false when the text is used up. *)
let read_line l =
  let text = l.text in
  let len = String.length text in
  if l.next > len then false
  else begin
    l.toks.n <- 0;
    l.first <- -1;
    l.start <- l.next;
    let segment = ref 0 and continued = ref true in
    while !continued do
      let p = l.next in
      let e = ref p and comment = ref (-1) in
      while !e < len && String.unsafe_get text !e <> '\n' do
        if !comment < 0 && String.unsafe_get text !e = '#' then comment := !e;
        incr e
      done;
      let e = !e in
      let s = ref p and t = ref (if !comment < 0 then e else !comment) in
      while !s < !t && trimmed text.[!s] do incr s done;
      while !t > !s && trimmed text.[!t - 1] do decr t done;
      let s = !s and t = !t in
      let cont = t > s && text.[t - 1] = '\\' in
      let t = if cont then t - 1 else t in
      (* the joined text is seg0 ^ " " ^ seg1 ^ ...: it starts with a
         blank when seg0 is empty and another segment follows *)
      if !segment = 0 then (if t > s then l.first <- Char.code text.[s])
      else if l.first < 0 then l.first <- Char.code ' ';
      add_tokens l s t;
      l.next <- e + 1;
      l.stop <- e;
      incr segment;
      continued := cont && e < len
    done;
    true
  end

let ntoks l = l.toks.n / 2
let tok_start l k = l.toks.a.(2 * k)
let tok_len l k = l.toks.a.((2 * k) + 1)
let tok l k = String.sub l.text (tok_start l k) (tok_len l k)
let tok_is l k lit = same_name lit l.text (tok_start l k) (tok_len l k)

(* The joined text of the current line, which a stray-line error quotes. *)
let joined l =
  String.sub l.text l.start (l.stop - l.start)
  |> String.split_on_char '\n'
  |> List.map (fun pl ->
         let pl =
           String.trim
             (match String.index_opt pl '#' with
             | Some i -> String.sub pl 0 i
             | None -> pl)
         in
         let n = String.length pl in
         if n > 0 && pl.[n - 1] = '\\' then String.sub pl 0 (n - 1) else pl)
  |> String.concat " "

(* A truth-table row as an int: its tokens joined by single blanks, read
   as bijective base-5 digits ('0' '1' '-' ' ' are 1..4); -1 for any
   other character or a row longer than any [gate_table] writes.  Rows
   that get a key get distinct keys. *)
let row_step key ch =
  let d = match ch with '0' -> 1 | '1' -> 2 | '-' -> 3 | ' ' -> 4 | _ -> 0 in
  if key < 0 || d = 0 || key > 100_000 then -1 else (key * 5) + d

let row_key l =
  let key = ref 0 in
  for k = 0 to ntoks l - 1 do
    if k > 0 then key := row_step !key ' ';
    for i = tok_start l k to tok_start l k + tok_len l k - 1 do
      key := row_step !key l.text.[i]
    done
  done;
  !key

(* A table read so far: (row count, smaller key, larger key).  No table
   [gate_table] writes has more than two rows. *)
let add_row (n, lo, hi) (k : int) =
  if n = 0 then (1, k, k) else (n + 1, min lo k, max hi k)

(* Reverse of [gate_table]: each operator with its arity and table. *)
let known_tables =
  Array.of_list
    (List.map
       (fun (arity, op) ->
         let n, lo, hi =
           List.fold_left add_row (0, 0, 0)
             (List.map (String.fold_left row_step 0) (gate_table op))
         in
         (arity, n, lo, hi, op))
       [
         (0, Constb false); (0, Constb true); (1, Buf); (1, Not); (2, And);
         (2, Or); (2, Nand); (2, Nor); (2, Xor); (2, Xnor); (3, Mux);
       ])

(* the index in [known_tables] of a table with [n_args] inputs, from
   [i] on; -1 when there is none *)
let rec table_index n_args ((n, lo, hi) as rows) i =
  if i = Array.length known_tables then -1
  else
    let arity, n', lo', hi', _ = known_tables.(i) in
    if arity = n_args && n = n' && lo = lo' && hi = hi' then i
    else table_index n_args rows (i + 1)

let of_string text =
  let l = { text; next = 0; toks = ints (); first = -1; start = 0; stop = 0 } in
  let nets =
    { names = Array.make 64 ""; hashes = Array.make 64 0; count = 0;
      slots = Array.make 128 0 }
  in
  let net k = intern nets text (tok_start l k) (tok_len l k) in
  let name id = nets.names.(id) in
  let model = ref "blif" in
  let inputs = ints () and outputs = ints () in
  let latches = ints () (* data, out, init: 3 per latch *) in
  let blocks = ints () (* out, first arg, arg count, table: 4 per .names *) in
  let args = ints () in
  let more = ref (read_line l) in
  while !more do
    if ntoks l = 0 then more := read_line l
    else if tok_is l 0 ".names" then begin
      let n = ntoks l in
      if n < 2 then invalid_netlist "Blif: .names with no output";
      push blocks (net (n - 1));
      push blocks args.n;
      push blocks (n - 2);
      for k = 1 to n - 2 do
        push args (net k)
      done;
      (* the table: the following lines up to one that starts with '.' *)
      let rows = ref (0, 0, 0) in
      more := read_line l;
      while !more && l.first <> Char.code '.' do
        if l.first >= 0 then rows := add_row !rows (row_key l);
        more := read_line l
      done;
      push blocks (table_index (n - 2) !rows 0)
    end
    else begin
      if tok_is l 0 ".model" then (if ntoks l > 1 then model := tok l 1)
      else if tok_is l 0 ".inputs" then
        for k = 1 to ntoks l - 1 do
          push inputs (net k)
        done
      else if tok_is l 0 ".outputs" then
        for k = 1 to ntoks l - 1 do
          push outputs (net k)
        done
      else if tok_is l 0 ".latch" then begin
        let init =
          match ntoks l with
          | 4 -> 3
          | 6 -> 5
          | _ -> invalid_netlist "Blif: malformed .latch line"
        in
        let v =
          if tok_is l init "0" then 0
          else if tok_is l init "1" then 1
          else
            invalid_netlist "Blif: latch %s: unsupported initial value %s"
              (tok l 2) (tok l init)
        in
        push latches (net 1);
        push latches (net 2);
        push latches v
      end
      else if tok_is l 0 ".end" then l.next <- String.length text + 1
      else if text.[tok_start l 0] = '.' then
        invalid_netlist "Blif: unsupported directive %s" (tok l 0)
      else invalid_netlist "Blif: stray line %S" (joined l);
      more := read_line l
    end
  done;
  let n_latches = latches.n / 3 and n_blocks = blocks.n / 4 in
  (* every net has exactly one definition: -1 none, -2 an input or latch,
     k >= 0 the .names block k *)
  let def = Array.make nets.count (-1) in
  let define id d =
    if def.(id) <> -1 then
      invalid_netlist "Blif: duplicate definition of net %s" (name id);
    def.(id) <- d
  in
  for i = 0 to inputs.n - 1 do
    define inputs.a.(i) (-2)
  done;
  for r = 0 to n_latches - 1 do
    define latches.a.((3 * r) + 1) (-2)
  done;
  for k = 0 to n_blocks - 1 do
    define blocks.a.(4 * k) k
  done;
  let b = create !model in
  (* resolved signals: -1 not yet, -2 under construction (cycle guard) *)
  let sig_of = Array.make nets.count (-1) in
  for i = 0 to inputs.n - 1 do
    sig_of.(inputs.a.(i)) <- input b B
  done;
  let regs =
    Array.init n_latches (fun r ->
        let s = reg b ~init:(Bit (latches.a.((3 * r) + 2) = 1)) B in
        sig_of.(latches.a.((3 * r) + 1)) <- s;
        s)
  in
  let rec resolve id =
    let s = sig_of.(id) in
    if s >= 0 then s
    else if s = -2 then
      invalid_netlist "Blif: combinational cycle through net %s" (name id)
    else begin
      let k = def.(id) in
      if k < 0 then invalid_netlist "Blif: undefined net %s" (name id);
      sig_of.(id) <- -2;
      let first = blocks.a.((4 * k) + 1) and n = blocks.a.((4 * k) + 2) in
      (* resolve left to right, then list the operands' signals *)
      for i = first to first + n - 1 do
        ignore (resolve args.a.(i))
      done;
      let operands = ref [] in
      for i = first + n - 1 downto first do
        operands := sig_of.(args.a.(i)) :: !operands
      done;
      let op =
        match blocks.a.((4 * k) + 3) with
        | -1 -> invalid_netlist "Blif: unsupported truth table for net %s" (name id)
        | t ->
            let _, _, _, _, op = known_tables.(t) in
            op
      in
      let s = gate b op !operands in
      sig_of.(id) <- s;
      s
    end
  in
  for k = 0 to n_blocks - 1 do
    ignore (resolve blocks.a.(4 * k))
  done;
  Array.iteri
    (fun r s -> connect_reg b s ~data:(resolve latches.a.(3 * r)))
    regs;
  for i = 0 to outputs.n - 1 do
    let id = outputs.a.(i) in
    Circuit.output b (name id) (resolve id)
  done;
  finish b
