(* Proof certificates: record → emit → replay round-trips (hand-built
   proofs, ground Boolean evaluation with theory imports, randomised
   expression trees), determinism of the rendered text, poisoning of
   traces with unaccounted inputs, rule-count parity between replay and
   the certificate's step lines, a tampering suite (every corruption is
   a typed rejection, never a wrong acceptance), and the fault-injection
   campaign run with recording switched on. *)

open Hol
open Logic
module Campaign = Faults.Campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let same_sequent th1 th2 =
  let h1 = Kernel.hyp th1 and h2 = Kernel.hyp th2 in
  let c1 = Kernel.concl th1 and c2 = Kernel.concl th2 in
  List.length h1 = List.length h2
  && List.for_all2 (fun a b -> a == b) h1 h2
  && c1 == c2

let record f =
  Kernel.start_recording ();
  let th =
    try f ()
    with e ->
      ignore (Kernel.stop_recording ());
      raise e
  in
  match Kernel.stop_recording () with
  | Ok tr -> (tr, th)
  | Error msg -> Alcotest.fail ("recording poisoned: " ^ msg)

let emit tr th =
  match Cert.emit tr th with
  | Ok s -> s
  | Error msg -> Alcotest.fail ("emit failed: " ^ msg)

let replay cert =
  match Cert.check_string cert with
  | Ok (th, prims) -> (th, prims)
  | Error rej -> Alcotest.fail ("replay rejected: " ^ Cert.reject_to_string rej)

(* primitive inference lines (S with a rule kind, not a theory ref) *)
let prim_lines cert =
  List.length
    (List.filter
       (fun line ->
         String.length line > 2
         && line.[0] = 'S'
         && line.[1] = ' '
         &&
         match line.[String.length line - 1] with
         | _ -> (
             (* kind char is the token after the id *)
             match String.split_on_char ' ' line with
             | "S" :: _ :: kind :: _ ->
                 String.length kind = 1 && not (String.contains "ADI" kind.[0])
             | _ -> false))
       (String.split_on_char '\n' cert))

(* --- round trips ---------------------------------------------------- *)

let test_roundtrip_basic () =
  let x = Term.mk_var "x" Ty.bool in
  let tr, th =
    record (fun () ->
        let r = Kernel.refl x in
        Kernel.trans r r)
  in
  let cert = emit tr th in
  let th', prims = replay cert in
  check "same sequent" true (same_sequent th th');
  check_int "two primitive inferences" 2 prims;
  check_int "primitive S lines match" prims (prim_lines cert)

let test_roundtrip_ground_eval () =
  let tm =
    Boolean.mk_conj (Boolean.bool_const true)
      (Boolean.mk_neg (Boolean.bool_const false))
  in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  check "imports theory clauses" true
    (List.exists
       (fun l -> String.length l > 2 && String.sub l 0 2 = "S "
                 && String.split_on_char ' ' l |> function
                    | "S" :: _ :: "I" :: _ -> true
                    | _ -> false)
       (String.split_on_char '\n' cert));
  let th', _ = replay cert in
  check "same sequent" true (same_sequent th th')

let test_emit_deterministic () =
  let tm = Boolean.mk_xor (Boolean.bool_const true) (Boolean.bool_const false) in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  check_str "same trace, same text" (emit tr th) (emit tr th);
  (* a fresh recording of the same proof renders identically: step ids
     are densely renumbered, so nothing epoch-specific leaks into the
     text — the property the serve cache's determinism story rests on *)
  let tr2, th2 = record (fun () -> Boolean.bool_eval_conv tm) in
  check_str "fresh recording, same text" (emit tr th) (emit tr2 th2)

(* A proof can be one theory theorem: [inst []] returns its input
   unchanged, and so does a ground rewrite such as [XOR T F], so the
   final theorem has no step in the trace.  Emission must reference it
   by name, and the checker re-prove it from its own theory. *)
let test_theory_theorem_as_proof () =
  let eta = List.assoc "ETA_AX" (Kernel.axioms ()) in
  List.iter
    (fun (what, th0, kind) ->
      let tr, th = record (fun () -> Kernel.inst [] th0) in
      let cert = emit tr th in
      check (what ^ ": one reference step") true
        (List.exists
           (fun l ->
             match String.split_on_char ' ' l with
             | [ "S"; "0"; k; _ ] -> k = kind
             | _ -> false)
           (String.split_on_char '\n' cert));
      let th', prims = replay cert in
      check (what ^ ": same sequent") true (same_sequent th th');
      check_int (what ^ ": no primitive inference") 0 prims;
      check_str (what ^ ": emitting again") cert (emit tr th))
    [
      ("axiom", eta, "A");
      ( "registered theorem",
        List.assoc "Boolean.truth" (Kernel.registered_theorems ()),
        "I" );
    ];
  let tm = Boolean.mk_xor (Boolean.bool_const true) (Boolean.bool_const false) in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let th', prims = replay (emit tr th) in
  check "ground rewrite: same sequent" true (same_sequent th th');
  check_int "ground rewrite: the clause is the whole proof" 0 prims

let test_rule_count_parity () =
  let tm =
    Boolean.mk_disj
      (Boolean.mk_conj (Boolean.bool_const false) (Boolean.bool_const true))
      (Boolean.bool_const true)
  in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  let r0 = Kernel.rule_count () in
  let _, prims = replay cert in
  let replay_rules = Kernel.rule_count () - r0 in
  check_int "replay applies exactly the certificate's primitives" prims
    replay_rules;
  check_int "primitive S lines match prims" prims (prim_lines cert)

let test_poisoned_trace () =
  let pre = Kernel.refl (Term.mk_var "poison" Ty.bool) in
  Kernel.start_recording ();
  let th = Kernel.trans pre pre in
  check "proof itself unaffected" true
    (Kernel.concl th == Kernel.concl pre);
  match Kernel.stop_recording () with
  | Ok _ -> Alcotest.fail "expected a poisoned trace"
  | Error msg ->
      check "mentions the unaccounted input" true
        (String.length msg > 0)

let prop_random_eval_roundtrip =
  QCheck.Test.make ~count:30 ~name:"random ground expr: record/emit/replay"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| 0xce27; seed |] in
      let rec gen depth =
        if depth = 0 || Random.State.int rng 4 = 0 then
          Boolean.bool_const (Random.State.bool rng)
        else
          match Random.State.int rng 4 with
          | 0 -> Boolean.mk_conj (gen (depth - 1)) (gen (depth - 1))
          | 1 -> Boolean.mk_disj (gen (depth - 1)) (gen (depth - 1))
          | 2 -> Boolean.mk_xor (gen (depth - 1)) (gen (depth - 1))
          | _ -> Boolean.mk_neg (gen (depth - 1))
      in
      let tm = gen (1 + Random.State.int rng 4) in
      let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
      let cert = emit tr th in
      let th', prims = replay cert in
      same_sequent th th' && prims = prim_lines cert)

(* --- tampering ------------------------------------------------------ *)

let test_tamper_byte_flips () =
  let tm =
    Boolean.mk_conj (Boolean.bool_const true) (Boolean.bool_const true)
  in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  let n = String.length cert in
  let step = max 1 (n / 200) in
  let pos = ref 1 (* keep the version line intact; tested separately *) in
  let checked = ref 0 in
  while !pos < n do
    let b = Bytes.of_string cert in
    let old = Bytes.get b !pos in
    let repl = if old = 'x' then 'y' else 'x' in
    if old <> '\n' && old <> repl then begin
      Bytes.set b !pos repl;
      incr checked;
      match Cert.check_string (Bytes.to_string b) with
      | Error _ -> () (* typed rejection: the expected outcome *)
      | Ok (th', _) ->
          (* a flip that survives parsing may only ever re-prove the
             same sequent (e.g. inside an unused digit of a size hint);
             proving anything else would be a forgery *)
          if not (same_sequent th th') then
            Alcotest.fail
              (Printf.sprintf "byte flip at %d accepted a different sequent"
                 !pos)
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "byte flip at %d escaped the typed errors: %s"
               !pos (Printexc.to_string e))
    end;
    pos := !pos + step
  done;
  check "flipped a representative sample" true (!checked > 100)

let test_tamper_permuted_steps () =
  (* [~F] alone is one ground rewrite, a one-step proof with no order to
     permute; under a negation the conjunction's rewrite is lifted and
     the exposed [~F] rewritten again *)
  let tm =
    Boolean.mk_neg
      (Boolean.mk_conj (Boolean.bool_const true) (Boolean.bool_const false))
  in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  let lines = String.split_on_char '\n' cert in
  let is_step l = String.length l > 2 && l.[0] = 'S' && l.[1] = ' ' in
  let steps = List.filter is_step lines in
  check "proof has several steps" true (List.length steps > 2);
  let reversed = ref (List.rev steps) in
  let permuted =
    List.map
      (fun l ->
        if is_step l then (
          match !reversed with
          | s :: rest ->
              reversed := rest;
              s
          | [] -> l)
        else l)
      lines
  in
  match Cert.check_string (String.concat "\n" permuted) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reordered steps were accepted"

let test_tamper_conclusion_swap () =
  let tm =
    Boolean.mk_disj (Boolean.bool_const false) (Boolean.bool_const true)
  in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  (* point the qed conclusion at a different interned term *)
  let lines = String.split_on_char '\n' cert in
  let swapped =
    List.map
      (fun l ->
        if String.length l > 4 && String.sub l 0 4 = "qed " then
          match String.split_on_char ' ' l with
          | "qed" :: ix :: k :: rest when rest <> [] ->
              let rest = List.rev ("0" :: List.tl (List.rev rest)) in
              String.concat " " ("qed" :: ix :: k :: rest)
          | _ -> l
        else l)
      lines
  in
  match Cert.check_string (String.concat "\n" swapped) with
  | Error _ -> ()
  | Ok (th', _) ->
      if same_sequent th th' then
        Alcotest.fail "conclusion swap left the certificate unchanged"
      else Alcotest.fail "swapped conclusion was accepted"

let test_tamper_version () =
  let tm = Boolean.bool_const true in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  let forged = "hashcert 2" ^ String.sub cert 10 (String.length cert - 10) in
  match Cert.check_string forged with
  | Error (Cert.Bad_version _) -> ()
  | Error rej ->
      Alcotest.fail ("wrong rejection: " ^ Cert.reject_to_string rej)
  | Ok _ -> Alcotest.fail "future version was accepted"

let test_tamper_truncated () =
  let tm = Boolean.mk_conj (Boolean.bool_const true) (Boolean.bool_const false) in
  let tr, th = record (fun () -> Boolean.bool_eval_conv tm) in
  let cert = emit tr th in
  (* cutting the certificate anywhere must reject: the qed line is the
     last, so any truncation loses it (or breaks a line) *)
  let cut = String.sub cert 0 (String.length cert / 2) in
  match Cert.check_string cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated certificate was accepted"

(* --- theory registries --------------------------------------------- *)

let test_registry_order_stable () =
  let names l = List.map fst l in
  check "axioms in stable order" true
    (names (Kernel.axioms ()) = names (Kernel.axioms ()));
  check "definitions in stable order" true
    (names (Kernel.definitions ()) = names (Kernel.definitions ()));
  check "registered theorems in stable order" true
    (names (Kernel.registered_theorems ())
    = names (Kernel.registered_theorems ()));
  check "theory is populated" true
    (Kernel.definitions () <> [] && Kernel.registered_theorems () <> [])

(* --- fault campaign under recording --------------------------------- *)

let test_faults_with_recording () =
  (* recording must not change the campaign's classification: every
     mutant still lands in {typed rejection, accepted-and-equivalent},
     and stop_recording always returns (a trace or a poison report,
     never a crash) *)
  let config =
    { Campaign.default with Campaign.mutants = 0; budget_s = 20.; sim_steps = 32 }
  in
  let bases = Campaign.default_bases () in
  let i = ref 0 in
  let tried = ref 0 in
  while !tried < 8 && !i < 200 do
    Kernel.start_recording ();
    let t =
      try Campaign.totals (Campaign.run_range config ~bases !i (!i + 1))
      with e ->
        ignore (Kernel.stop_recording ());
        raise e
    in
    (match Kernel.stop_recording () with Ok _ | Error _ -> ());
    tried := !tried + t.Obs.Faults.mutants;
    if t.Obs.Faults.wrong_exception + t.Obs.Faults.accepted_inequivalent > 0
    then Alcotest.fail "outcome left the taxonomy under recording";
    incr i
  done;
  check "ran a sample of mutants" true (!tried >= 8)

(* Theory theorems are built before the pool freezes the term tables
   and are shared by every domain.  Here the spawning domain reads their
   conclusions after the freeze, so any conclusion node that stuck to a
   theorem would carry the spawner's post-freeze term ids into the
   workers, where the same ids name other terms.  Certificates emitted
   on the workers must still replay, and prove what the worker proved. *)
let test_worker_cert_after_spawner_reads () =
  let circuits =
    List.map (fun n -> Lazy.force (Iwls.find n).Iwls.circuit) [ "s298"; "s344" ]
  in
  Parallel.Pool.run ~jobs:2 (fun pool ->
      let read l = List.iter (fun (_, th) -> ignore (Kernel.concl th)) l in
      read (Kernel.axioms ());
      read (Kernel.definitions ());
      read (Kernel.registered_theorems ());
      let results =
        List.map
          (fun c ->
            Parallel.Pool.submit pool (fun () ->
                let tr, th =
                  record (fun () ->
                      (Hash.Synthesis.retime Hash.Embed.Bit_level c
                         (Cut.maximal c))
                        .Hash.Synthesis.theorem)
                in
                (Kernel.string_of_thm th, Cert.emit tr th)))
          circuits
        |> List.map Parallel.Pool.await
      in
      List.iter
        (fun (text, cert) ->
          match cert with
          | Error msg -> Alcotest.fail ("emit failed on the worker: " ^ msg)
          | Ok cert ->
              let th, _ = replay cert in
              check_str "replayed theorem" text (Kernel.string_of_thm th))
        results)

(* --- pinned certificate bytes ----------------------------------------- *)

(* The MD5 of the certificate for three retiming proofs at the maximal
   cut: fig2 (4-bit words) and s298 at bit level, and fig2 at RT level;
   and for one resynthesis proof ({!resynth_cert}).  "emission is
   deterministic" compares two runs of one build; these digests hold the
   rendered bytes fixed across changes to the kernel, the recorder, the
   theory and the synthesis code that feeds them.  The three retiming
   digests equal the MD5 of the file
   `hash_retime --circuit C [-n 4] --level L --cert F` writes. *)
let retime_trace level c =
  let c =
    if
      level = Hash.Embed.Bit_level
      && not (Array.for_all (fun w -> w = Circuit.B) c.Circuit.widths)
    then Bitblast.expand c
    else c
  in
  record (fun () ->
      (Hash.Synthesis.retime level c (Cut.maximal c)).Hash.Synthesis.theorem)

let cert_digest level c =
  let tr, th = retime_trace level c in
  Digest.to_hex (Digest.string (emit tr th))

(* A combinational resynthesis step at bit level on a synthetic
   6-flip-flop circuit: its proof imports COMB_EQUIV_THM, whose full
   sequent the certificate carries and the checker compares against its
   own derivation. *)
let resynth_trace () =
  let c = Iwls.synth ~name:"r" ~ffs:6 ~gates:30 ~ins:2 ~outs:2 ~seed:99 in
  record (fun () ->
      (Hash.Resynth.resynthesize Hash.Embed.Bit_level c).Hash.Synthesis.theorem)

let resynth_cert () =
  let tr, th = resynth_trace () in
  (emit tr th, th)

let test_resynth_cert_replays () =
  let cert, th = resynth_cert () in
  check "imports COMB_EQUIV_THM" true
    (List.exists
       (fun l ->
         match String.split_on_char ' ' l with
         | [ "S"; _; "I"; name ] -> name = "Retiming_thm.comb_equiv_thm"
         | _ -> false)
       (String.split_on_char '\n' cert));
  let th', prims = replay cert in
  check "same sequent" true (same_sequent th th');
  check_int "inferences replayed" 43 prims

let test_cert_digests_pinned () =
  let s298 = Lazy.force (Iwls.find "s298").Iwls.circuit in
  check_str "fig2 n=4, bit level" "bbac86095e297818852caa3a93c69452"
    (cert_digest Hash.Embed.Bit_level (Fig2.rt 4));
  check_str "s298, bit level" "c2a7afee0806c5a638e9e6eb568a3aca"
    (cert_digest Hash.Embed.Bit_level s298);
  check_str "fig2 n=4, RT level" "4bf97c0e8b62f495464c2851ddf6162b"
    (cert_digest Hash.Embed.Rt_level (Fig2.rt 4));
  check_str "resynthesis, bit level" "983f67d84bdb014e950f60d671d9df72"
    (Digest.to_hex (Digest.string (fst (resynth_cert ()))))

(* --- the emitter against its reference --------------------------------- *)

let ref_emit tr th =
  match Cert_emit_ref.emit tr th with
  | Ok s -> s
  | Error msg -> Alcotest.fail ("reference emit failed: " ^ msg)

let levels = [ ("bit", Hash.Embed.Bit_level); ("rt", Hash.Embed.Rt_level) ]

(* A proof whose names all need escaping: a constant, variables and a
   type variable spelled with a space, '%', a control byte and
   non-ASCII bytes.  The constant is declared here (once per process),
   so every certificate emitted after this test carries its [const]
   line; the case runs last in this suite. *)
let escaped_proof () =
  let cname = "c%\xc3\xa9 d\t" in
  let tv = Ty.var "\xce\xb1 %" in
  if not (Kernel.is_constant cname) then
    Kernel.new_constant cname (Ty.fn tv Ty.bool);
  let x = Term.mk_var "x y%" tv and y = Term.mk_var "\xe2\x82\xac" tv in
  let c = Kernel.mk_const_at cname (Ty.fn tv Ty.bool) in
  let z = Term.mk_var "%%" (Ty.fn tv Ty.bool) in
  record (fun () ->
      let th = Kernel.mk_comb_rule (Kernel.refl z) (Kernel.assume (Term.mk_eq x y)) in
      let th = Kernel.inst [ (z, c) ] th in
      Kernel.inst_type [ ("\xce\xb1 %", Ty.bool) ] th)

let test_emit_matches_reference () =
  let same what (tr, th) = check_str what (ref_emit tr th) (emit tr th) in
  List.iter
    (fun e ->
      let c = Lazy.force e.Iwls.circuit in
      List.iter
        (fun (lname, level) ->
          same (e.Iwls.name ^ " " ^ lname) (retime_trace level c))
        levels)
    Iwls.suite;
  List.iter
    (fun n ->
      List.iter
        (fun (lname, level) ->
          same (Printf.sprintf "fig2 n=%d %s" n lname)
            (retime_trace level (Fig2.rt n)))
        levels)
    [ 4; 8 ];
  same "resynthesis" (resynth_trace ())

let test_emit_escapes_match_reference () =
  let tr, th = escaped_proof () in
  let cert = emit tr th in
  check_str "escaped names" (ref_emit tr th) cert;
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length cert && (String.sub cert i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun sub -> check ("writes " ^ sub) true (contains sub))
    [ "const c%25%C3%A9%20d%09 "; " v x%20y%25 "; " v %E2%82%AC "; " v %25%25 ";
      " v %CE%B1%20%25\n"; " y 1 %CE%B1%20%25 " ];
  let th', _ = replay cert in
  check "escaped names replay" true (same_sequent th th')

(* The checker reads each token in the one spelling the emitter writes.
   Every other spelling of a number or a name is a format error, even
   where it would decode to something that checks: a step id past 2^63
   that wraps to the real one, a needless or lowercase escape, an
   escape of a byte no escape stands for, a special byte left raw. *)
let test_tamper_noncanonical () =
  let tr, th = retime_trace Hash.Embed.Rt_level (Fig2.rt 4) in
  let cert = emit tr th in
  let lines = String.split_on_char '\n' cert in
  let edit what f =
    let edited = List.map (fun l -> Option.value (f l) ~default:l) lines in
    check (what ^ ": a line was edited") true (edited <> lines);
    match Cert.check_string (String.concat "\n" edited) with
    | Error (Cert.Bad_format _) -> ()
    | Error rej ->
        Alcotest.fail (what ^ ": wrong rejection: " ^ Cert.reject_to_string rej)
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  let qed_id f l =
    match String.split_on_char ' ' l with
    | "qed" :: ix :: rest ->
        Some (String.concat " " ("qed" :: f (int_of_string ix) :: rest))
    | _ -> None
  in
  edit "qed id plus 2^63" (qed_id (fun ix ->
      Printf.sprintf "%Lu" (Int64.add Int64.min_int (Int64.of_int ix))));
  edit "qed id with a leading zero" (qed_id (fun ix -> "0" ^ string_of_int ix));
  edit "19-digit qed id" (qed_id (fun ix -> Printf.sprintf "%019d" ix));
  edit "negative qed id" (qed_id (fun ix -> "-" ^ string_of_int ix));
  let const_name spelt l =
    match String.split_on_char ' ' l with
    | [ "const"; "!"; ty ] -> Some (String.concat " " [ "const"; spelt; ty ])
    | _ -> None
  in
  List.iter
    (fun spelt -> edit ("const " ^ String.escaped spelt) (const_name spelt))
    [ "%21"; "%1_"; "%c3"; "\xc3"; "%2" ];
  (* the canonical escape of a byte that needs one still reads *)
  match
    Cert.check_string
      (String.concat "\n"
         (List.map
            (fun l -> Option.value (const_name "!%20" l) ~default:l)
            lines))
  with
  | Error (Cert.Unknown_constant "! ") -> ()
  | Error rej ->
      Alcotest.fail ("canonical escape: " ^ Cert.reject_to_string rej)
  | Ok _ -> Alcotest.fail "canonical escape: accepted an unknown constant"

(* Words [f] allocates on this domain: minor words plus the words
   allocated directly in the major heap.  The domain's counters advance
   at minor collections, so one brackets each side of the call. *)
let words f =
  Gc.minor ();
  let before = Obs.Gcstats.now () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let d = Obs.Gcstats.delta ~before ~after:(Obs.Gcstats.now ()) in
  d.Obs.Gcstats.minor_words +. d.major_words -. d.promoted_words

(* The emitter's allocation on s298 (bit level), pinned between the
   reference emitter's and a bound: the pin fails as soon as emission
   regresses towards the reference's allocation, and it fails loudly,
   not silently, if the reference itself ever drops under the bound.
   Each figure is the least of three calls: [Kernel.concl] of an
   equation builds its term, so a call may also pay for the term
   table's growth, which is not the emitter's. *)
let emit_kwords_bound = 120.

let test_emit_allocation_pinned () =
  let tr, th =
    retime_trace Hash.Embed.Bit_level (Lazy.force (Iwls.find "s298").Iwls.circuit)
  in
  let kw f =
    List.fold_left min infinity
      (List.init 3 (fun _ -> words (fun () -> f tr th) /. 1000.))
  in
  let reference = kw Cert_emit_ref.emit and ours = kw Cert.emit in
  Printf.printf "emit on s298: %.1f kwords (reference %.1f)\n" ours reference;
  check "reference allocates more than the bound" true
    (reference > emit_kwords_bound);
  check "emit allocates at most the bound" true (ours <= emit_kwords_bound)

let suite =
  [
    Alcotest.test_case "certificate digests pinned" `Quick
      test_cert_digests_pinned;
    Alcotest.test_case "resynthesis certificate replays" `Quick
      test_resynth_cert_replays;
    Alcotest.test_case "worker certificate after spawner reads theory" `Quick
      test_worker_cert_after_spawner_reads;
    Alcotest.test_case "round trip: refl/trans" `Quick test_roundtrip_basic;
    Alcotest.test_case "round trip: ground eval with imports" `Quick
      test_roundtrip_ground_eval;
    Alcotest.test_case "emission is deterministic" `Quick
      test_emit_deterministic;
    Alcotest.test_case "final theorem from the theory" `Quick
      test_theory_theorem_as_proof;
    Alcotest.test_case "replay rule-count parity" `Quick
      test_rule_count_parity;
    Alcotest.test_case "unaccounted input poisons the trace" `Quick
      test_poisoned_trace;
    Alcotest.test_case "tamper: byte flips" `Slow test_tamper_byte_flips;
    Alcotest.test_case "tamper: permuted steps" `Quick
      test_tamper_permuted_steps;
    Alcotest.test_case "tamper: swapped conclusion" `Quick
      test_tamper_conclusion_swap;
    Alcotest.test_case "tamper: version" `Quick test_tamper_version;
    Alcotest.test_case "tamper: non-canonical tokens" `Quick
      test_tamper_noncanonical;
    Alcotest.test_case "tamper: truncation" `Quick test_tamper_truncated;
    Alcotest.test_case "registry order is stable" `Quick
      test_registry_order_stable;
    Alcotest.test_case "fault campaign under recording" `Slow
      test_faults_with_recording;
    Alcotest.test_case "emitter agrees with its reference" `Quick
      test_emit_matches_reference;
    Alcotest.test_case "emit allocation pinned" `Quick
      test_emit_allocation_pinned;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xce27 |])
      prop_random_eval_roundtrip;
    (* declares a constant: last, see [escaped_proof] *)
    Alcotest.test_case "escaped names agree with the reference" `Quick
      test_emit_escapes_match_reference;
  ]
