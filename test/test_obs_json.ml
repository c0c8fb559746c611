(* Obs.Json: the emitter and the reader must round-trip losslessly —
   including strings of arbitrary bytes — and the [\uXXXX] decoder must
   produce UTF-8, pair surrogates, and reject unpaired or malformed
   escapes. *)

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
  ]
