(* Engine observability: cheap mutable counters updated from the BDD
   kernel's hot path, immutable snapshots for reporting, and a tiny JSON
   emitter so the benchmark harness can persist machine-readable results
   without external dependencies. *)

module Counters = struct
  type t = {
    mutable mk_calls : int;
    mutable unique_hits : int;
    mutable unique_misses : int;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable memo_hits : int;
    mutable memo_misses : int;
  }

  let create () =
    {
      mk_calls = 0;
      unique_hits = 0;
      unique_misses = 0;
      cache_hits = 0;
      cache_misses = 0;
      memo_hits = 0;
      memo_misses = 0;
    }

  let reset c =
    c.mk_calls <- 0;
    c.unique_hits <- 0;
    c.unique_misses <- 0;
    c.cache_hits <- 0;
    c.cache_misses <- 0;
    c.memo_hits <- 0;
    c.memo_misses <- 0
end

type snapshot = {
  mk_calls : int;
  unique_hits : int;
  unique_misses : int;
  cache_hits : int;
  cache_misses : int;
  memo_hits : int;
  memo_misses : int;
  peak_nodes : int;
}

let empty =
  {
    mk_calls = 0;
    unique_hits = 0;
    unique_misses = 0;
    cache_hits = 0;
    cache_misses = 0;
    memo_hits = 0;
    memo_misses = 0;
    peak_nodes = 0;
  }

let snapshot ?(peak_nodes = 0) (c : Counters.t) =
  {
    mk_calls = c.Counters.mk_calls;
    unique_hits = c.Counters.unique_hits;
    unique_misses = c.Counters.unique_misses;
    cache_hits = c.Counters.cache_hits;
    cache_misses = c.Counters.cache_misses;
    memo_hits = c.Counters.memo_hits;
    memo_misses = c.Counters.memo_misses;
    peak_nodes;
  }

(* Combine per-domain (or per-run) snapshots into one row: monotone
   counters sum; [peak_nodes] describes concurrent tables, so the peaks
   sum as well (an upper bound on the simultaneous population). *)
let add a b =
  {
    mk_calls = a.mk_calls + b.mk_calls;
    unique_hits = a.unique_hits + b.unique_hits;
    unique_misses = a.unique_misses + b.unique_misses;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    memo_hits = a.memo_hits + b.memo_hits;
    memo_misses = a.memo_misses + b.memo_misses;
    peak_nodes = a.peak_nodes + b.peak_nodes;
  }

(* Per-run deltas of a manager that outlives the run (the engines layer
   reuses one manager per domain): every monotone counter subtracts, and
   so does [peak_nodes] — for a reused manager it carries [node_count],
   so the delta is the run's own node allocation. *)
let snapshot_delta ~before ~after =
  {
    mk_calls = after.mk_calls - before.mk_calls;
    unique_hits = after.unique_hits - before.unique_hits;
    unique_misses = after.unique_misses - before.unique_misses;
    cache_hits = after.cache_hits - before.cache_hits;
    cache_misses = after.cache_misses - before.cache_misses;
    memo_hits = after.memo_hits - before.memo_hits;
    memo_misses = after.memo_misses - before.memo_misses;
    peak_nodes = after.peak_nodes - before.peak_nodes;
  }

let hit_rate s =
  let hits = s.cache_hits + s.memo_hits in
  let total = hits + s.cache_misses + s.memo_misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(* Counters of the logic kernel (term interning, rule applications,
   conversion memos).  Populated by the engines layer, which is the lowest
   layer that can see both Logic and Obs; this module only defines the
   shape so every engine row carries one. *)
type kernel_snapshot = {
  rule_apps : int;
  term_mk_calls : int;
  term_intern_hits : int;
  term_intern_misses : int;
  conv_memo_hits : int;
  conv_memo_misses : int;
  live_term_nodes : int;
  peak_term_nodes : int;
  ty_nodes : int;
}

let empty_kernel =
  {
    rule_apps = 0;
    term_mk_calls = 0;
    term_intern_hits = 0;
    term_intern_misses = 0;
    conv_memo_hits = 0;
    conv_memo_misses = 0;
    live_term_nodes = 0;
    peak_term_nodes = 0;
    ty_nodes = 0;
  }

(* Counters are monotone; live/peak/ty populations are reported as-is
   (they describe the process state at the end of the run, not a rate). *)
let kernel_delta ~before ~after =
  {
    rule_apps = after.rule_apps - before.rule_apps;
    term_mk_calls = after.term_mk_calls - before.term_mk_calls;
    term_intern_hits = after.term_intern_hits - before.term_intern_hits;
    term_intern_misses = after.term_intern_misses - before.term_intern_misses;
    conv_memo_hits = after.conv_memo_hits - before.conv_memo_hits;
    conv_memo_misses = after.conv_memo_misses - before.conv_memo_misses;
    live_term_nodes = after.live_term_nodes;
    peak_term_nodes = after.peak_term_nodes;
    ty_nodes = after.ty_nodes;
  }

(* Combine per-domain kernel deltas: monotone counters sum; the
   population fields describe distinct per-domain tables, so live/ty sum
   and the sampled peak takes the max (it is per-table by construction). *)
let kernel_add a b =
  {
    rule_apps = a.rule_apps + b.rule_apps;
    term_mk_calls = a.term_mk_calls + b.term_mk_calls;
    term_intern_hits = a.term_intern_hits + b.term_intern_hits;
    term_intern_misses = a.term_intern_misses + b.term_intern_misses;
    conv_memo_hits = a.conv_memo_hits + b.conv_memo_hits;
    conv_memo_misses = a.conv_memo_misses + b.conv_memo_misses;
    live_term_nodes = a.live_term_nodes + b.live_term_nodes;
    peak_term_nodes = max a.peak_term_nodes b.peak_term_nodes;
    ty_nodes = a.ty_nodes + b.ty_nodes;
  }

type engine_run = {
  engine : string;
  wall_s : float;
  status : string;
  snap : snapshot;
  kern : kernel_snapshot;
  extra : (string * float) list;
}

(* GC pressure per bench row: [Gc.quick_stat] deltas bracketing a run.
   quick_stat reads per-domain counters without forcing a collection, so
   sampling it around every cell is free; the deltas make "off-heap
   tables reduced GC work" a machine-checkable claim instead of an
   anecdote. *)
module Gcstats = struct
  type t = {
    minor_words : float;
    major_words : float;
    promoted_words : float;
    minor_collections : int;
    major_collections : int;
    compactions : int;
  }

  let now () =
    let s = Gc.quick_stat () in
    {
      minor_words = s.Gc.minor_words;
      major_words = s.Gc.major_words;
      promoted_words = s.Gc.promoted_words;
      minor_collections = s.Gc.minor_collections;
      major_collections = s.Gc.major_collections;
      compactions = s.Gc.compactions;
    }

  let delta ~before ~after =
    {
      minor_words = after.minor_words -. before.minor_words;
      major_words = after.major_words -. before.major_words;
      promoted_words = after.promoted_words -. before.promoted_words;
      minor_collections = after.minor_collections - before.minor_collections;
      major_collections = after.major_collections - before.major_collections;
      compactions = after.compactions - before.compactions;
    }

  let extras t =
    [
      ("gc_minor_words", t.minor_words);
      ("gc_major_words", t.major_words);
      ("gc_promoted_words", t.promoted_words);
      ("gc_minor_collections", float_of_int t.minor_collections);
      ("gc_major_collections", float_of_int t.major_collections);
      ("gc_compactions", float_of_int t.compactions);
    ]
end

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity
        then Buffer.add_string buf "null"
        else
          (* shortest decimal that reads back exactly: try 15
             significant digits, fall back to 17 (always exact) *)
          let s = Printf.sprintf "%.15g" f in
          let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
          Buffer.add_string buf s
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            emit buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    emit buf j;
    Buffer.contents buf

  let to_file path j =
    let oc = open_out path in
    output_string oc (to_string j);
    output_char oc '\n';
    close_out oc

  (* Reader for the emitter's own output (the baseline gate in
     bench/faults reads a checked-in report back).  Same dependency-free
     spirit as the emitter; numbers without fraction or exponent come
     back as [Int]. *)
  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
    in
    (* Direct indexing throughout: an earlier [peek : unit -> char
       option] boxed a [Some] per input byte, so parsing allocated
       ~20x the input size — pure GC pressure once the serve layer
       started parsing batched request lines on the warm path. *)
    let skip_ws () =
      while
        !pos < n
        &&
        match String.unsafe_get s !pos with
        | ' ' | '\t' | '\n' | '\r' -> true
        | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let rec parse_string () =
      expect '"';
      (* Fast path: a string with no escapes (keys, enum-ish values,
         digests) is one [String.sub], no buffer. *)
      let start = !pos in
      let i = ref !pos in
      while
        !i < n
        &&
        match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true
      do
        incr i
      done;
      if !i < n && String.unsafe_get s !i = '"' then begin
        pos := !i + 1;
        String.sub s start (!i - start)
      end
      else parse_string_slow ()
    and parse_string_slow () =
      let buf = Buffer.create 16 in
      let hex_digit c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      let read_hex4 () =
        if !pos + 4 > n then fail "truncated \\u escape";
        let v = ref 0 in
        for _ = 1 to 4 do
          v := (!v lsl 4) lor hex_digit s.[!pos];
          incr pos
        done;
        !v
      in
      (* Scan runs of plain characters and copy them in one
         [add_substring] — escapes are rare in real payloads (BLIF
         bodies are mostly printable with a ['\n'] every line), so the
         common case is a handful of memcpys rather than a per-char
         loop. *)
      let rec go start =
        if !pos >= n then fail "unterminated string"
        else
          match String.unsafe_get s !pos with
          | '"' ->
              Buffer.add_substring buf s start (!pos - start);
              incr pos
          | '\\' ->
              Buffer.add_substring buf s start (!pos - start);
              incr pos;
              if !pos >= n then fail "unterminated escape";
              let c = s.[!pos] in
              incr pos;
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  (* Decode to UTF-8, pairing surrogates, so that
                     write -> parse is lossless for any scalar value. *)
                  let code = read_hex4 () in
                  if code >= 0xd800 && code <= 0xdbff then begin
                    if
                      not
                        (!pos + 2 <= n
                        && s.[!pos] = '\\'
                        && s.[!pos + 1] = 'u')
                    then fail "unpaired high surrogate";
                    pos := !pos + 2;
                    let lo = read_hex4 () in
                    if lo < 0xdc00 || lo > 0xdfff then
                      fail "unpaired high surrogate";
                    let u =
                      0x10000 + ((code - 0xd800) lsl 10) + (lo - 0xdc00)
                    in
                    Buffer.add_utf_8_uchar buf (Uchar.of_int u)
                  end
                  else if code >= 0xdc00 && code <= 0xdfff then
                    fail "unpaired low surrogate"
                  else Buffer.add_utf_8_uchar buf (Uchar.of_int code)
              | _ -> fail "unknown escape");
              go !pos
          | _ ->
              incr pos;
              go start
      in
      go !pos;
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char (String.unsafe_get s !pos) do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail ("bad number " ^ tok))
    in
    let rec parse_value () =
      skip_ws ();
      if !pos >= n then fail "unexpected end of input"
      else
        match String.unsafe_get s !pos with
        | '{' ->
            incr pos;
            skip_ws ();
            if !pos < n && s.[!pos] = '}' then begin
              incr pos;
              Obj []
            end
            else begin
              let rec fields acc =
                skip_ws ();
                let k = parse_string () in
                skip_ws ();
                expect ':';
                let v = parse_value () in
                skip_ws ();
                if !pos >= n then fail "expected ',' or '}'"
                else
                  match s.[!pos] with
                  | ',' ->
                      incr pos;
                      fields ((k, v) :: acc)
                  | '}' ->
                      incr pos;
                      List.rev ((k, v) :: acc)
                  | _ -> fail "expected ',' or '}'"
              in
              Obj (fields [])
            end
        | '[' ->
            incr pos;
            skip_ws ();
            if !pos < n && s.[!pos] = ']' then begin
              incr pos;
              List []
            end
            else begin
              let rec elems acc =
                let v = parse_value () in
                skip_ws ();
                if !pos >= n then fail "expected ',' or ']'"
                else
                  match s.[!pos] with
                  | ',' ->
                      incr pos;
                      elems (v :: acc)
                  | ']' ->
                      incr pos;
                      List.rev (v :: acc)
                  | _ -> fail "expected ',' or ']'"
              in
              List (elems [])
            end
        | '"' -> Str (parse_string ())
        | 't' -> literal "true" (Bool true)
        | 'f' -> literal "false" (Bool false)
        | 'n' -> literal "null" Null
        | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let of_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    parse s

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Fault-campaign counters                                             *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type outcome =
    | Rejected of string
    | Wrong_exception of string
    | Accepted_equivalent
    | Accepted_inequivalent

  type t = {
    mutable mutants : int;
    rejections : (string, int) Hashtbl.t;
    mutable wrong_exception : int;
    wrong_classes : (string, int) Hashtbl.t;
    mutable accepted_equivalent : int;
    mutable accepted_inequivalent : int;
  }

  let create () =
    {
      mutants = 0;
      rejections = Hashtbl.create 8;
      wrong_exception = 0;
      wrong_classes = Hashtbl.create 8;
      accepted_equivalent = 0;
      accepted_inequivalent = 0;
    }

  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

  let record t outcome =
    t.mutants <- t.mutants + 1;
    match outcome with
    | Rejected cls -> bump t.rejections cls
    | Wrong_exception cls ->
        t.wrong_exception <- t.wrong_exception + 1;
        bump t.wrong_classes cls
    | Accepted_equivalent ->
        t.accepted_equivalent <- t.accepted_equivalent + 1
    | Accepted_inequivalent ->
        t.accepted_inequivalent <- t.accepted_inequivalent + 1

  let merge ~into src =
    into.mutants <- into.mutants + src.mutants;
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace into.rejections k
          (v + Option.value ~default:0 (Hashtbl.find_opt into.rejections k)))
      src.rejections;
    into.wrong_exception <- into.wrong_exception + src.wrong_exception;
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace into.wrong_classes k
          (v
          + Option.value ~default:0 (Hashtbl.find_opt into.wrong_classes k)))
      src.wrong_classes;
    into.accepted_equivalent <-
      into.accepted_equivalent + src.accepted_equivalent;
    into.accepted_inequivalent <-
      into.accepted_inequivalent + src.accepted_inequivalent

  let rejected t =
    Hashtbl.fold (fun _ v acc -> acc + v) t.rejections 0

  let sorted_tbl tbl =
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []
    |> List.sort compare

  let to_json t =
    Json.Obj
      [
        ("mutants", Json.Int t.mutants);
        ("rejected", Json.Int (rejected t));
        ("rejections", Json.Obj (sorted_tbl t.rejections));
        ("wrong_exception", Json.Int t.wrong_exception);
        ("wrong_exception_classes", Json.Obj (sorted_tbl t.wrong_classes));
        ("accepted_equivalent", Json.Int t.accepted_equivalent);
        ("accepted_inequivalent", Json.Int t.accepted_inequivalent);
      ]
end

(* ------------------------------------------------------------------ *)
(* Proof-cache counters                                                *)
(* ------------------------------------------------------------------ *)

(* The serve layer shards its proof cache, so these counters are updated
   from many threads and read (for every OK response) without any lock:
   each field is an [Atomic.t], one instance lives per shard, and a
   response aggregates the shards into one [snapshot] in a single
   lock-free pass.  [entries] is a gauge (current population of the
   shard's fingerprint cache), not a monotone counter; it still sums
   across shards because the shards partition the key space. *)
module Cache = struct
  type t = {
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
    insertions : int Atomic.t;
    entries : int Atomic.t;
  }

  let create () =
    {
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      insertions = Atomic.make 0;
      entries = Atomic.make 0;
    }

  let reset t =
    Atomic.set t.hits 0;
    Atomic.set t.misses 0;
    Atomic.set t.evictions 0;
    Atomic.set t.insertions 0;
    Atomic.set t.entries 0

  type snapshot = {
    hits : int;
    misses : int;
    evictions : int;
    insertions : int;
    entries : int;
  }

  let snapshot (t : t) : snapshot =
    {
      hits = Atomic.get t.hits;
      misses = Atomic.get t.misses;
      evictions = Atomic.get t.evictions;
      insertions = Atomic.get t.insertions;
      entries = Atomic.get t.entries;
    }

  let empty =
    { hits = 0; misses = 0; evictions = 0; insertions = 0; entries = 0 }

  let add a b =
    {
      hits = a.hits + b.hits;
      misses = a.misses + b.misses;
      evictions = a.evictions + b.evictions;
      insertions = a.insertions + b.insertions;
      entries = a.entries + b.entries;
    }

  let total ts = Array.fold_left (fun acc t -> add acc (snapshot t)) empty ts

  let snapshot_json (s : snapshot) =
    Json.Obj
      [
        ("hits", Json.Int s.hits);
        ("misses", Json.Int s.misses);
        ("evictions", Json.Int s.evictions);
        ("insertions", Json.Int s.insertions);
        ("entries", Json.Int s.entries);
      ]
end

let snapshot_json s =
  Json.Obj
    [
      ("mk_calls", Json.Int s.mk_calls);
      ("unique_hits", Json.Int s.unique_hits);
      ("unique_misses", Json.Int s.unique_misses);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("memo_hits", Json.Int s.memo_hits);
      ("memo_misses", Json.Int s.memo_misses);
      ("peak_nodes", Json.Int s.peak_nodes);
      ("cache_hit_rate", Json.Float (hit_rate s));
    ]

let kernel_snapshot_json k =
  Json.Obj
    [
      ("rule_apps", Json.Int k.rule_apps);
      ("term_mk_calls", Json.Int k.term_mk_calls);
      ("term_intern_hits", Json.Int k.term_intern_hits);
      ("term_intern_misses", Json.Int k.term_intern_misses);
      ("conv_memo_hits", Json.Int k.conv_memo_hits);
      ("conv_memo_misses", Json.Int k.conv_memo_misses);
      ("live_term_nodes", Json.Int k.live_term_nodes);
      ("peak_term_nodes", Json.Int k.peak_term_nodes);
      ("ty_nodes", Json.Int k.ty_nodes);
    ]

let engine_run_json r =
  Json.Obj
    ([
       ("engine", Json.Str r.engine);
       ("wall_s", Json.Float r.wall_s);
       ("status", Json.Str r.status);
       ("bdd", snapshot_json r.snap);
       ("kernel", kernel_snapshot_json r.kern);
     ]
    @ List.map (fun (k, v) -> (k, Json.Float v)) r.extra)
