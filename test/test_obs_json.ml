(* Obs.Json: the emitter and the reader must round-trip losslessly —
   including strings of arbitrary bytes — and the [\uXXXX] decoder must
   produce UTF-8, pair surrogates, and reject unpaired or malformed
   escapes.  Also the bytes of a BENCH_table engine row, and the GC
   brackets every row carries. *)

module J = Obs.Json

let check = Alcotest.(check bool)

(* Numeric normalisation: the emitter may print [Float 1.] as "1", which
   the reader hands back as [Int 1].  Everything else compares
   structurally. *)
let rec json_eq a b =
  match (a, b) with
  | J.Null, J.Null -> true
  | J.Bool x, J.Bool y -> x = y
  | J.Str x, J.Str y -> String.equal x y
  | (J.Int _ | J.Float _), (J.Int _ | J.Float _) ->
      let f = function J.Int i -> float_of_int i | J.Float f -> f | _ -> 0.0 in
      f a = f b
  | J.List x, J.List y ->
      List.length x = List.length y && List.for_all2 json_eq x y
  | J.Obj x, J.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_eq v1 v2)
           x y
  | _ -> false

(* --- unit tests: \uXXXX decoding ----------------------------------- *)

let parse_str s =
  match J.parse s with
  | J.Str v -> v
  | _ -> Alcotest.fail ("expected a string from " ^ s)

let rejects s =
  match J.parse s with
  | exception J.Parse_error _ -> true
  | _ -> false

let test_unicode_escapes () =
  Alcotest.(check string) "BMP escape" "\xc3\xa9" (parse_str {|"\u00e9"|});
  Alcotest.(check string) "ASCII escape" "A" (parse_str {|"\u0041"|});
  Alcotest.(check string)
    "surrogate pair -> U+1F600" "\xf0\x9f\x98\x80"
    (parse_str {|"\ud83d\ude00"|});
  Alcotest.(check string)
    "mixed text" "a\xe2\x82\xacb"
    (parse_str {|"a\u20acb"|})

let test_unicode_rejects () =
  check "lone high surrogate" true (rejects {|"\ud800"|});
  check "lone low surrogate" true (rejects {|"\udc00"|});
  check "high surrogate then text" true (rejects {|"\ud83dx"|});
  check "high surrogate at end" true (rejects {|"\ud83d\n"|});
  check "malformed hex" true (rejects {|"\u12g4"|});
  check "truncated escape" true (rejects {|"\u12"|})

let test_raw_bytes_roundtrip () =
  (* every byte value survives write -> parse *)
  let s = String.init 256 Char.chr in
  let j = J.Str s in
  Alcotest.(check string)
    "256 byte values" s
    (parse_str (J.to_string j))

(* --- property: write -> parse is the identity ----------------------- *)

let gen_string =
  QCheck.Gen.(
    oneof
      [
        small_string ~gen:(map Char.chr (int_range 0 255));
        small_string ~gen:printable;
        (* hostile spellings: things that look like escapes *)
        oneofl [ {|A|}; {|\ud800|}; "\"\\"; "\x00\x1f\x7f"; "\xf0\x9f\x98\x80" ];
      ])

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let base =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map (fun i -> J.Int i) small_signed_int;
                 map (fun f -> J.Float f) (float_bound_inclusive 1e9);
                 map (fun s -> J.Str s) gen_string;
               ]
           in
           if n <= 0 then base
           else
             frequency
               [
                 (3, base);
                 ( 1,
                   map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)))
                 );
                 ( 1,
                   map
                     (fun l -> J.Obj l)
                     (list_size (int_bound 4)
                        (pair gen_string (self (n / 2)))) );
               ]))

let arb_json = QCheck.make ~print:J.to_string gen_json

let prop_roundtrip =
  QCheck.Test.make ~name:"to_string |> parse is the identity" ~count:500
    arb_json (fun j ->
      match J.parse (J.to_string j) with
      | j' -> json_eq j j'
      | exception J.Parse_error msg ->
          QCheck.Test.fail_reportf "emitted JSON rejected: %s" msg)

(* --- property: the run-copying escape equals the per-byte one ------- *)

(* [Json.escape] as it stood before it copied runs of plain bytes whole:
   the reference of the property below. *)
let escape_ref buf s =
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

let str_ref s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  escape_ref buf s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Strings of every byte below 0x20, '"', '\', DEL and bytes >= 0x80,
   among runs of plain ASCII of any length (a run may start or end the
   string). *)
let gen_escapable =
  QCheck.Gen.(
    string_size (int_bound 64)
      ~gen:
        (frequency
           [
             (2, map Char.chr (int_range 0 0x1f));
             (1, oneofl [ '"'; '\\'; '\x7f' ]);
             (1, map Char.chr (int_range 0x80 0xff));
             (4, printable);
           ]))

let prop_escape_differential =
  QCheck.Test.make ~name:"escape = reference escape" ~count:1000
    (QCheck.make ~print:String.escaped gen_escapable) (fun s ->
      String.equal (J.to_string (J.Str s)) (str_ref s))

let test_escape_every_byte () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "256 byte values" (str_ref s) (J.to_string (J.Str s));
  Alcotest.(check string) "a key" ("{" ^ str_ref s ^ ":null}")
    (J.to_string (J.Obj [ (s, J.Null) ]))

(* One BENCH_table row per outcome, from fixed counters.  Readers of
   BENCH_table*.json depend on these keys, their order and the status
   strings, so the bytes are pinned. *)
let pinned_kern =
  {
    Obs.rule_apps = 1260;
    term_mk_calls = 900;
    term_intern_hits = 600;
    term_intern_misses = 300;
    conv_memo_hits = 5;
    conv_memo_misses = 6;
    live_term_nodes = 1234;
    peak_term_nodes = 4321;
    ty_nodes = 17;
  }

let pinned_row status engine result bdd extra =
  J.to_string
    (Obs.run_json status
       { Obs.engine; result; wall_s = 0.125; bdd; kern = pinned_kern; extra })

let test_rows_pinned () =
  let bdd = Obs.Counters.create () in
  bdd.mk_calls <- 11;
  bdd.unique_hits <- 7;
  bdd.unique_misses <- 4;
  bdd.cache_hits <- 3;
  bdd.cache_misses <- 1;
  bdd.memo_hits <- 1;
  bdd.memo_misses <- 2;
  bdd.peak_nodes <- 42;
  let engine =
    [
      Engines.Common.Equivalent;
      Engines.Common.Not_equivalent "witness";
      Engines.Common.Inconclusive "no match";
      Engines.Common.Timeout;
    ]
  in
  let hash =
    [
      Engines.Common.Retimed;
      Engines.Common.Out_of_time;
      Engines.Common.Raised (Failure "boom");
    ]
  in
  List.iter2
    (fun r expected ->
      Alcotest.(check string) "engine row" expected
        (pinned_row Engines.Common.status "smv" r bdd
           [ ("bfs_iterations", 3.0); ("gc_minor_words", 1024.0) ]))
    engine
    [
      {|{"engine":"smv","wall_s":0.125,"status":"equivalent","bdd":{"mk_calls":11,"unique_hits":7,"unique_misses":4,"cache_hits":3,"cache_misses":1,"memo_hits":1,"memo_misses":2,"peak_nodes":42,"cache_hit_rate":0.5714285714285714},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"bfs_iterations":3,"gc_minor_words":1024}|};
      {|{"engine":"smv","wall_s":0.125,"status":"not_equivalent","bdd":{"mk_calls":11,"unique_hits":7,"unique_misses":4,"cache_hits":3,"cache_misses":1,"memo_hits":1,"memo_misses":2,"peak_nodes":42,"cache_hit_rate":0.5714285714285714},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"bfs_iterations":3,"gc_minor_words":1024}|};
      {|{"engine":"smv","wall_s":0.125,"status":"inconclusive","bdd":{"mk_calls":11,"unique_hits":7,"unique_misses":4,"cache_hits":3,"cache_misses":1,"memo_hits":1,"memo_misses":2,"peak_nodes":42,"cache_hit_rate":0.5714285714285714},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"bfs_iterations":3,"gc_minor_words":1024}|};
      {|{"engine":"smv","wall_s":0.125,"status":"timeout","bdd":{"mk_calls":11,"unique_hits":7,"unique_misses":4,"cache_hits":3,"cache_misses":1,"memo_hits":1,"memo_misses":2,"peak_nodes":42,"cache_hit_rate":0.5714285714285714},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"bfs_iterations":3,"gc_minor_words":1024}|};
    ];
  List.iter2
    (fun r expected ->
      Alcotest.(check string) "HASH row" expected
        (pinned_row Engines.Common.hash_status "hash" r
           (Obs.Counters.create ())
           [ ("gc_minor_words", 1024.0) ]))
    hash
    [
      {|{"engine":"hash","wall_s":0.125,"status":"ok","bdd":{"mk_calls":0,"unique_hits":0,"unique_misses":0,"cache_hits":0,"cache_misses":0,"memo_hits":0,"memo_misses":0,"peak_nodes":0,"cache_hit_rate":0},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"gc_minor_words":1024}|};
      {|{"engine":"hash","wall_s":0.125,"status":"timeout","bdd":{"mk_calls":0,"unique_hits":0,"unique_misses":0,"cache_hits":0,"cache_misses":0,"memo_hits":0,"memo_misses":0,"peak_nodes":0,"cache_hit_rate":0},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"gc_minor_words":1024}|};
      {|{"engine":"hash","wall_s":0.125,"status":"error: Failure(\"boom\")","bdd":{"mk_calls":0,"unique_hits":0,"unique_misses":0,"cache_hits":0,"cache_misses":0,"memo_hits":0,"memo_misses":0,"peak_nodes":0,"cache_hit_rate":0},"kernel":{"rule_apps":1260,"term_mk_calls":900,"term_intern_hits":600,"term_intern_misses":300,"conv_memo_hits":5,"conv_memo_misses":6,"live_term_nodes":1234,"peak_term_nodes":4321,"ty_nodes":17},"gc_minor_words":1024}|};
    ]

(* A bracket shorter than one minor heap counts what it allocated, with
   no collection forced on either side. *)
let test_gc_short_brackets () =
  let words f =
    let before = Obs.Gcstats.now () in
    ignore (Sys.opaque_identity (f ()));
    Obs.Gcstats.delta ~before ~after:(Obs.Gcstats.now ())
  in
  let d = words (fun () -> List.init 3_000 Fun.id) in
  if d.minor_words < 3_000.0 then
    Alcotest.failf "List.init 3000: %.0f minor words" d.minor_words;
  let d = words (fun () -> Bytes.create 65_536) in
  if d.major_words < 8_000.0 then
    Alcotest.failf "Bytes.create 64 KiB: %.0f major words" d.major_words

let suite =
  [
    Alcotest.test_case "\\uXXXX decodes to UTF-8" `Quick test_unicode_escapes;
    Alcotest.test_case "unpaired/malformed escapes rejected" `Quick
      test_unicode_rejects;
    Alcotest.test_case "raw bytes round-trip" `Quick test_raw_bytes_roundtrip;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x0b5 |])
      prop_roundtrip;
    Alcotest.test_case "escape of every byte = reference" `Quick
      test_escape_every_byte;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xe5c |])
      prop_escape_differential;
    Alcotest.test_case "engine and HASH rows pinned" `Quick test_rows_pinned;
    Alcotest.test_case "gc brackets count short allocations" `Quick
      test_gc_short_brackets;
  ]
