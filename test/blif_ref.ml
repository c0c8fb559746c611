(* The BLIF reader as it stood before the single-pass rewrite of
   [Blif.of_string], kept verbatim as the reference of the differential
   test in test_netlist.ml: line list, [String.trim], recursive
   continuation join, [split_on_char] tokens, string-keyed tables.  It
   builds through the same [Circuit] builder as the production reader. *)

open Circuit

(* Reverse of [gate_table]: recognise a truth table (argument count and
   the set of its lines) as one of our operators. *)
let op_of_table ~net n_args lines =
  let key = List.sort compare lines in
  match (n_args, key) with
  | 0, [] -> Constb false
  | 0, [ "1" ] -> Constb true
  | 1, [ "1 1" ] -> Buf
  | 1, [ "0 1" ] -> Not
  | 2, [ "11 1" ] -> And
  | 2, [ "-1 1"; "1- 1" ] -> Or
  | 2, [ "-0 1"; "0- 1" ] -> Nand
  | 2, [ "00 1" ] -> Nor
  | 2, [ "01 1"; "10 1" ] -> Xor
  | 2, [ "00 1"; "11 1" ] -> Xnor
  | 3, [ "0-1 1"; "11- 1" ] -> Mux
  | _ -> invalid_netlist "Blif: unsupported truth table for net %s" net

type def =
  | Dinput
  | Dlatch of int  (* register index *)
  | Dnames of string list * string list  (* args, table lines *)

let of_string text =
  (* tokenizer: strip comments, join '\' continuations, split on blanks *)
  let raw = String.split_on_char '\n' text in
  let raw =
    List.map
      (fun line ->
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line)
      raw
  in
  let rec join = function
    | [] -> []
    | line :: rest ->
        let line = String.trim line in
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\\' then
          match join rest with
          | next :: rest' -> (String.sub line 0 (n - 1) ^ " " ^ next) :: rest'
          | [] -> [ String.sub line 0 (n - 1) ]
        else line :: join rest
  in
  let lines = join raw in
  let tokens_of line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  let model = ref "blif" in
  let inputs = ref [] (* reversed *) in
  let outputs = ref [] (* reversed *) in
  let latches = ref [] (* reversed: (data, out, init) *) in
  let names = ref [] (* reversed: (args, out, table lines) *) in
  let rec parse = function
    | [] -> ()
    | line :: rest -> (
        match tokens_of line with
        | [] -> parse rest
        | ".model" :: n :: _ ->
            model := n;
            parse rest
        | [ ".model" ] -> parse rest
        | ".inputs" :: ns ->
            inputs := List.rev_append ns !inputs;
            parse rest
        | ".outputs" :: ns ->
            outputs := List.rev_append ns !outputs;
            parse rest
        | ".latch" :: args -> (
            let data, out, init =
              match args with
              | [ d; q; i ] -> (d, q, i)
              | [ d; q; _type; _clk; i ] -> (d, q, i)
              | _ -> invalid_netlist "Blif: malformed .latch line"
            in
            match init with
            | "0" -> latches := (data, out, false) :: !latches; parse rest
            | "1" -> latches := (data, out, true) :: !latches; parse rest
            | _ ->
                invalid_netlist "Blif: latch %s: unsupported initial value %s"
                  out init)
        | ".names" :: ns ->
            let rec split_last acc = function
              | [ last ] -> (List.rev acc, last)
              | x :: tl -> split_last (x :: acc) tl
              | [] -> invalid_netlist "Blif: .names with no output"
            in
            let args, out = split_last [] ns in
            let rec table acc = function
              | "" :: tl -> table acc tl
              | line :: tl when line.[0] <> '.' ->
                  table (String.concat " " (tokens_of line) :: acc) tl
              | tl -> (List.rev acc, tl)
            in
            let tbl, rest = table [] rest in
            names := (args, out, tbl) :: !names;
            parse rest
        | ".end" :: _ -> ()
        | d :: _ when String.length d > 0 && d.[0] = '.' ->
            invalid_netlist "Blif: unsupported directive %s" d
        | _ -> invalid_netlist "Blif: stray line %S" line)
  in
  parse lines;
  let inputs = List.rev !inputs in
  let outputs = List.rev !outputs in
  let latches = List.rev !latches in
  let names = List.rev !names in
  (* every net has exactly one definition *)
  let defs : (string, def) Hashtbl.t = Hashtbl.create 64 in
  let define net d =
    if Hashtbl.mem defs net then
      invalid_netlist "Blif: duplicate definition of net %s" net;
    Hashtbl.replace defs net d
  in
  List.iter (fun n -> define n Dinput) inputs;
  List.iteri (fun r (_, out, _) -> define out (Dlatch r)) latches;
  List.iter (fun (args, out, tbl) -> define out (Dnames (args, tbl))) names;
  let b = create !model in
  let env : (string, signal) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace env n (input b B)) inputs;
  let reg_sigs =
    List.map
      (fun (_, out, init) ->
        let s = reg b ~init:(Bit init) B in
        Hashtbl.replace env out s;
        s)
      latches
  in
  let building : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve net =
    match Hashtbl.find_opt env net with
    | Some s -> s
    | None -> (
        match Hashtbl.find_opt defs net with
        | None -> invalid_netlist "Blif: undefined net %s" net
        | Some (Dinput | Dlatch _) -> assert false (* already in env *)
        | Some (Dnames (args, tbl)) ->
            if Hashtbl.mem building net then
              invalid_netlist "Blif: combinational cycle through net %s" net;
            Hashtbl.replace building net ();
            let arg_sigs = List.map resolve args in
            let op = op_of_table ~net (List.length args) tbl in
            let s = gate b op arg_sigs in
            Hashtbl.remove building net;
            Hashtbl.replace env net s;
            s)
  in
  List.iter (fun (args, out, _) -> ignore args; ignore (resolve out)) names;
  List.iteri
    (fun r (data, _, _) ->
      connect_reg b (List.nth reg_sigs r) ~data:(resolve data))
    latches;
  List.iter (fun n -> Circuit.output b n (resolve n)) outputs;
  finish b
