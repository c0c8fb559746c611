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
  let h1, c1 = Kernel.dest_thm th1 and h2, c2 = Kernel.dest_thm th2 in
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
  let tm = Boolean.mk_neg (Boolean.bool_const false) in
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
    (match Campaign.nth_subject config ~bases !i with
    | None -> ()
    | Some (s, rng) ->
        incr tried;
        Kernel.start_recording ();
        let outcome =
          try Campaign.run_one config rng s
          with e ->
            ignore (Kernel.stop_recording ());
            raise e
        in
        (match Kernel.stop_recording () with Ok _ | Error _ -> ());
        (match outcome with
        | Obs.Faults.Rejected _ | Obs.Faults.Accepted_equivalent -> ()
        | Obs.Faults.Wrong_exception _ | Obs.Faults.Accepted_inequivalent ->
            Alcotest.fail "outcome left the taxonomy under recording"));
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
        Parallel.Pool.map_list pool
          (fun c ->
            let tr, th =
              record (fun () ->
                  (Hash.Synthesis.retime Hash.Embed.Bit_level c (Cut.maximal c))
                    .Hash.Synthesis.theorem)
            in
            (Kernel.string_of_thm th, Cert.emit tr th))
          circuits
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
   cut: fig2 (4-bit words) and s298 at bit level, and fig2 at RT level.
   "emission is deterministic" compares two runs of one build; these
   digests hold the rendered bytes fixed across changes to the kernel,
   the recorder and the synthesis code that feeds them.  They equal the
   MD5 of the file `hash_retime --circuit C [-n 4] --level L --cert F`
   writes. *)
let cert_digest level c =
  let c =
    if
      level = Hash.Embed.Bit_level
      && not (Array.for_all (fun w -> w = Circuit.B) c.Circuit.widths)
    then Bitblast.expand c
    else c
  in
  let tr, th =
    record (fun () ->
        (Hash.Synthesis.retime level c (Cut.maximal c)).Hash.Synthesis.theorem)
  in
  Digest.to_hex (Digest.string (emit tr th))

let test_cert_digests_pinned () =
  let s298 = Lazy.force (Iwls.find "s298").Iwls.circuit in
  check_str "fig2 n=4, bit level" "8d69367677c03a5d02e32ace4d31ef08"
    (cert_digest Hash.Embed.Bit_level (Fig2.rt 4));
  check_str "s298, bit level" "a9bb43176bfc0d86b07893d965d49d0e"
    (cert_digest Hash.Embed.Bit_level s298);
  check_str "fig2 n=4, RT level" "3ced820e5910d6420c5016660ab0a07d"
    (cert_digest Hash.Embed.Rt_level (Fig2.rt 4))

let suite =
  [
    Alcotest.test_case "certificate digests pinned" `Quick
      test_cert_digests_pinned;
    Alcotest.test_case "worker certificate after spawner reads theory" `Quick
      test_worker_cert_after_spawner_reads;
    Alcotest.test_case "round trip: refl/trans" `Quick test_roundtrip_basic;
    Alcotest.test_case "round trip: ground eval with imports" `Quick
      test_roundtrip_ground_eval;
    Alcotest.test_case "emission is deterministic" `Quick
      test_emit_deterministic;
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
    Alcotest.test_case "tamper: truncation" `Quick test_tamper_truncated;
    Alcotest.test_case "registry order is stable" `Quick
      test_registry_order_stable;
    Alcotest.test_case "fault campaign under recording" `Slow
      test_faults_with_recording;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xce27 |])
      prop_random_eval_roundtrip;
  ]
