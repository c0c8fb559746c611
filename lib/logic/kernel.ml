(* The kernel as the rest of the system calls it: Hol.Kernel's rules and
   theory, plus the proof recorder.  The recorder is untrusted producer
   code.  It plugs into the trusted kernel through the per-domain hook
   (Hol.Kernel.set_hook) and only reads the step indices the kernel
   stores for it, so a fault here can spoil a certificate, which the
   independent checker then rejects, but cannot forge a theorem. *)

open Hol
include Hol.Kernel

(* ------------------------------------------------------------------ *)
(* Proof traces                                                        *)
(* ------------------------------------------------------------------ *)

(* Filler for unused slots of the term-payload array (never read: the
   tag byte says which slots carry a term). *)
let dummy_tm = lazy (Term.mk_var "?trace" Ty.bool)

module Trace = struct
  (* One event per primitive inference, in derivation order.  Integer
     operands are indices of earlier events in the same trace.  The
     three reference events ([Axiom_ref], [Def_ref], [Import]) are not
     inferences: they pull a theorem of the ambient theory (an axiom, a
     definitional theorem, or a theorem registered with
     [register_theorem]) into the trace by name, so an independent
     checker can resolve it against its own theory and verify the
     sequent instead of trusting ours. *)
  type event =
    | Refl of Term.t
    | Trans of int * int
    | Mk_comb of int * int
    | Abs of Term.t * int
    | Beta of Term.t
    | Assume of Term.t
    | Eq_mp of int * int
    | Deduct of int * int
    | Inst of (Term.t * Term.t) list * int
    | Inst_type of (string * Ty.t) list * int
    | Axiom_ref of string
    | Def_ref of string
    | Import of string

  (* Stored as a struct of arrays — a tag byte and two integer
     operands per step, with a boxed payload slot only for the events
     that carry one (terms, substitutions, names).  The dominant
     events of a synthesis proof (trans / mk_comb / eq_mp / deduct)
     then record with three unboxed stores and no allocation, which is
     what keeps the recording overhead a few percent instead of
     tens. *)
  type payload =
    | P_none
    | P_subst of (Term.t * Term.t) list
    | P_tysubst of (string * Ty.t) list
    | P_name of string

  (* Term payloads (refl/abs/beta/assume — a third of a typical trace)
     live in their own [Term.t array] rather than behind a [payload]
     constructor: the per-event box would be promoted out of the minor
     heap on every collection, and that churn dominates recording cost.
     The remaining payload kinds are rare (substitutions, theory-ref
     names) and stay boxed. *)
  (* Complete once [stop_recording] returns it, except that [reference]
     may append a theory reference for a theorem the trace proves
     without a step of its own. *)
  type t = {
    t_epoch : int;
    mutable tags : Bytes.t;
    mutable opa : int array;
    mutable opb : int array;
    mutable tms : Term.t array;
    mutable pay : payload array;
  }

  let length tr = Bytes.length tr.tags

  let event tr k =
    let a = Array.unsafe_get tr.opa k and b = Array.unsafe_get tr.opb k in
    match (Bytes.get tr.tags k, Array.unsafe_get tr.pay k) with
    | 'r', _ -> Refl (Array.unsafe_get tr.tms k)
    | 't', _ -> Trans (a, b)
    | 'c', _ -> Mk_comb (a, b)
    | 'l', _ -> Abs (Array.unsafe_get tr.tms k, a)
    | 'b', _ -> Beta (Array.unsafe_get tr.tms k)
    | 'a', _ -> Assume (Array.unsafe_get tr.tms k)
    | 'm', _ -> Eq_mp (a, b)
    | 'd', _ -> Deduct (a, b)
    | 'i', P_subst s -> Inst (s, a)
    | 'y', P_tysubst s -> Inst_type (s, a)
    | 'A', P_name n -> Axiom_ref n
    | 'D', P_name n -> Def_ref n
    | 'I', P_name n -> Import n
    | _ -> assert false

  (* The index of a reference event [tag] naming [name], appended at the
     end unless the trace already holds one. *)
  let reference tr tag name =
    let n = length tr in
    let rec find k =
      if k = n then begin
        tr.tags <- Bytes.extend tr.tags 0 1;
        Bytes.set tr.tags n tag;
        tr.opa <- Array.append tr.opa [| -1 |];
        tr.opb <- Array.append tr.opb [| -1 |];
        tr.tms <- Array.append tr.tms [| Lazy.force dummy_tm |];
        tr.pay <- Array.append tr.pay [| P_name name |];
        n
      end
      else if Bytes.get tr.tags k = tag && tr.pay.(k) = P_name name then k
      else find (k + 1)
    in
    find 0
end

(* ------------------------------------------------------------------ *)
(* Per-domain recording state                                          *)
(* ------------------------------------------------------------------ *)

type rec_state = {
  mutable r_epoch : int;
  mutable r_tags : Bytes.t;
  mutable r_a : int array;
  mutable r_b : int array;
  mutable r_tm : Term.t array;
  mutable r_pay : Trace.payload array;
  mutable r_n : int;
  r_imports : (int * int, thm * int) Hashtbl.t;
      (* resolved theory refs, keyed by [import_key] (imports are closed
         theorems, so their hash-consed sides identify one; the stored
         thm re-checks physical equality on hit) *)
  mutable r_poison : string option; (* first unresolvable input, if any *)
}

type dstate = {
  mutable recb : rec_state option;
  mutable r_spare : rec_state option;
      (* retired recording buffers, reused by the next [start_recording]
         on this domain: repeated recordings (serve daemon, benchmarks)
         would otherwise re-grow multi-thousand-entry arrays each run,
         and the major-heap churn of that costs more than the recording
         itself *)
}

let d_key = Domain.DLS.new_key (fun () -> { recb = None; r_spare = None })

(* ------------------------------------------------------------------ *)
(* Recording plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let grow rs =
  let cap = if rs.r_n = 0 then 1024 else 2 * rs.r_n in
  let tags = Bytes.make cap ' ' in
  Bytes.blit rs.r_tags 0 tags 0 rs.r_n;
  let a = Array.make cap (-1) in
  Array.blit rs.r_a 0 a 0 rs.r_n;
  let b = Array.make cap (-1) in
  Array.blit rs.r_b 0 b 0 rs.r_n;
  let tm = Array.make cap (Lazy.force dummy_tm) in
  Array.blit rs.r_tm 0 tm 0 rs.r_n;
  let p = Array.make cap Trace.P_none in
  Array.blit rs.r_pay 0 p 0 rs.r_n;
  rs.r_tags <- tags;
  rs.r_a <- a;
  rs.r_b <- b;
  rs.r_tm <- tm;
  rs.r_pay <- p

(* The payload-free push: three unboxed stores and a counter bump.
   Trans/mk_comb/eq_mp/deduct — the bulk of a synthesis trace — go
   through here and never touch the payload arrays (their slots keep
   the filler values, which [Trace.event] never reads for these
   tags). *)
let push rs tag i j =
  if rs.r_n = Bytes.length rs.r_tags then grow rs;
  let k = rs.r_n in
  Bytes.unsafe_set rs.r_tags k tag;
  Array.unsafe_set rs.r_a k i;
  Array.unsafe_set rs.r_b k j;
  rs.r_n <- k + 1;
  k

let push_tm rs tag i tm =
  let k = push rs tag i (-1) in
  Array.unsafe_set rs.r_tm k tm;
  k

let push_pay rs tag i p =
  let k = push rs tag i (-1) in
  Array.unsafe_set rs.r_pay k p;
  k

(* The key of [th] in [r_imports]: the ids of the stored sides of an
   equation, or of the stored conclusion otherwise.  Those nodes live as
   long as [th] does, so the key is stable; a rebuilt conclusion node
   would not be. *)
let import_key th =
  match lhs th with
  | l -> (l.Term.id, (rhs th).Term.id)
  | exception Failure _ -> ((concl th).Term.id, -1)

(* Resolve a theorem proved outside the current trace: it must be an
   axiom, a definitional theorem, or a registered theorem — found by
   physical equality, which hash-consing makes equivalent to "the same
   theorem value the theory module exported". *)
let lookup_extension th =
  let find l = List.find_map (fun (n, t) -> if t == th then Some n else None) l in
  match find (axioms ()) with
  | Some n -> Some ('A', n)
  | None -> (
      match find (definitions ()) with
      | Some n -> Some ('D', n)
      | None -> Option.map (fun n -> ('I', n)) (find (registered_theorems ())))

(* The step index standing for input theorem [th], appending a
   reference event if it comes from the ambient theory.  Returns -1 and
   poisons the trace when [th] cannot be accounted for (e.g. it leaked
   out of a memo table populated before recording started): the proof
   itself proceeds untouched, but [stop_recording] reports the failure
   instead of emitting a bogus certificate. *)
let input rs th =
  let i = step_index rs.r_epoch th in
  if i >= 0 then i
  else if not (rs.r_poison == None) then -1
  else
    let key = import_key th in
    match Hashtbl.find_opt rs.r_imports key with
    | Some (t, i) when t == th -> i
    | _ -> (
        match lookup_extension th with
        | Some (tag, name) ->
            let i = push_pay rs tag (-1) (Trace.P_name name) in
            Hashtbl.replace rs.r_imports key (th, i);
            i
        | None ->
            rs.r_poison <-
              Some
                ("input theorem proved outside the trace and not in the \
                  theory: " ^ string_of_thm th);
            -1)

(* The recorders below append the event for one inference and return
   its step index, or -1 once the trace is poisoned. *)

let rec0_tm rs tag tm =
  if not (rs.r_poison == None) then -1 else push_tm rs tag (-1) tm

let rec0_pay rs tag p =
  if not (rs.r_poison == None) then -1 else push_pay rs tag (-1) p

let rec1_tm rs th tag tm =
  let i = input rs th in
  if i < 0 then -1 else push_tm rs tag i tm

let rec1_pay rs th tag p =
  let i = input rs th in
  if i < 0 then -1 else push_pay rs tag i p

let rec2_slow rs th1 th2 tag =
  let i = input rs th1 in
  let j = input rs th2 in
  if i < 0 || j < 0 then -1 else push rs tag i j

let step rs = function
  | Abs (v, th) -> rec1_tm rs th 'l' v
  | Inst (theta, th) -> rec1_pay rs th 'i' (Trace.P_subst theta)
  | Inst_type (tyin, th) -> rec1_pay rs th 'y' (Trace.P_tysubst tyin)
  | Axiom name -> rec0_pay rs 'A' (Trace.P_name name)
  | Definition name -> rec0_pay rs 'D' (Trace.P_name name)

(* The kernel hook recording into [rs].  [leaf] and [pair] store
   straight into the buffer in the common case (nothing poisoned, room
   left, and for [pair] both premises recorded in this trace), inside
   the closure the kernel calls, and fall back to the general path
   otherwise. *)
let hook rs =
  {
    epoch = rs.r_epoch;
    leaf =
      (fun rule tm ->
        let tag = match rule with Refl -> 'r' | Beta -> 'b' | Assume -> 'a' in
        let k = rs.r_n in
        if rs.r_poison == None && k < Bytes.length rs.r_tags then begin
          Bytes.unsafe_set rs.r_tags k tag;
          Array.unsafe_set rs.r_a k (-1);
          Array.unsafe_set rs.r_b k (-1);
          Array.unsafe_set rs.r_tm k tm;
          rs.r_n <- k + 1;
          k
        end
        else rec0_tm rs tag tm);
    pair =
      (fun rule i j th1 th2 ->
        let tag =
          match rule with
          | Trans -> 't'
          | Mk_comb -> 'c'
          | Eq_mp -> 'm'
          | Deduct -> 'd'
        in
        let k = rs.r_n in
        if i >= 0 && j >= 0 && k < Bytes.length rs.r_tags then begin
          Bytes.unsafe_set rs.r_tags k tag;
          Array.unsafe_set rs.r_a k i;
          Array.unsafe_set rs.r_b k j;
          rs.r_n <- k + 1;
          k
        end
        else rec2_slow rs th1 th2 tag);
    step = step rs;
  }

let epoch_ctr = Atomic.make 0

let start_recording () =
  let st = Domain.DLS.get d_key in
  (match st.recb with
  | Some _ -> failwith "Kernel.start_recording: already recording"
  | None -> ());
  (* Theorems memoised before this point would surface mid-proof as
     inputs with no recorded derivation; drop them now.  Any that slip
     through anyway (foreign epoch) poison the trace rather than
     corrupt it. *)
  Memo.release_domain ();
  let ep = 1 + Atomic.fetch_and_add epoch_ctr 1 in
  let rs =
    match st.r_spare with
    | Some rs ->
        st.r_spare <- None;
        rs.r_epoch <- ep;
        rs.r_n <- 0;
        (* drop payload pointers left over from the previous recording,
           so a reused buffer does not keep its terms alive *)
        Array.fill rs.r_pay 0 (Array.length rs.r_pay) Trace.P_none;
        Array.fill rs.r_tm 0 (Array.length rs.r_tm) (Lazy.force dummy_tm);
        Hashtbl.reset rs.r_imports;
        rs.r_poison <- None;
        rs
    | None ->
        {
          r_epoch = ep;
          r_tags = Bytes.empty;
          r_a = [||];
          r_b = [||];
          r_tm = [||];
          r_pay = [||];
          r_n = 0;
          r_imports = Hashtbl.create 64;
          r_poison = None;
        }
  in
  st.recb <- Some rs;
  set_hook (Some (hook rs))

let stop_recording () =
  let st = Domain.DLS.get d_key in
  match st.recb with
  | None -> failwith "Kernel.stop_recording: not recording"
  | Some rs -> (
      set_hook None;
      st.recb <- None;
      st.r_spare <- Some rs;
      match rs.r_poison with
      | Some msg -> Error msg
      | None ->
          Ok
            {
              Trace.t_epoch = rs.r_epoch;
              tags = Bytes.sub rs.r_tags 0 rs.r_n;
              opa = Array.sub rs.r_a 0 rs.r_n;
              opb = Array.sub rs.r_b 0 rs.r_n;
              tms = Array.sub rs.r_tm 0 rs.r_n;
              pay = Array.sub rs.r_pay 0 rs.r_n;
            })

(* A theory theorem can be the whole proof (a ground rewrite whose
   instantiation was the identity), so it has no step of its own:
   it gets one by reference. *)
let step_in (tr : Trace.t) th =
  let i = step_index tr.Trace.t_epoch th in
  if i >= 0 then Some i
  else
    Option.map
      (fun (tag, name) -> Trace.reference tr tag name)
      (lookup_extension th)
