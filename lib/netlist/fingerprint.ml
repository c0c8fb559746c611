(* Canonical structural fingerprint: a digest of a circuit that is
   invariant under renaming of nets and reordering of gates and
   registers, but sensitive to everything semantic (operators, wiring,
   widths, initial values, input order, output names).  The serve layer
   keys its cross-request proof cache on it, so the requirements are
   those of a cache key over untrusted input:

   - isomorphic circuits must collide (that is the point), and
   - a lookup must never equate semantically distinct circuits.

   Labels are refined Weisfeiler–Lehman style.  Every signal gets a
   label computed bottom-up over the combinational DAG from the labels
   of the primary inputs (which include the input index — input order is
   part of the interface) and the current register labels.  Register
   labels start from (width, initial value) and are re-derived from
   their data signal's label each round; rounds continue until the
   partition of registers by label stops refining (at most #registers
   rounds, so the cap below is never the binding constraint on
   distinguishing power).

   The canonical form is not just the final hash: it is a string listing
   the interface in order and the registers and gates as sorted
   multisets of label-entries.  Cache lookups compare the full canonical
   string on digest equality, so a hash collision can cause a spurious
   miss, never a wrong hit.  Labels are pairs of 63-bit lanes mixed with
   distinct multipliers; a label collision would have to hit both lanes
   at once.

   This runs on every service request (hit or miss), so the refinement
   loop is arrays-of-ints all the way: the topological order is computed
   once, per-gate operator hashes are precomputed, and the two label
   lanes live in twin int arrays (no tuple allocation per signal per
   round).

   The canon is built from text rendered once per signal.  A small
   decimal writer (no [string_of_int], no format interpretation) renders
   every signal's label "s1.s2," back to back into one string, with an
   offset table.  Each register entry "r:<init>d=<data label>;l=<own
   label>" and gate entry "g:<op>a=<operand labels>;l=<own label>" is
   then assembled in one shared buffer by copying those label texts, the
   entries are sorted, and the whole form is digested with MD5.  The
   format ("fp1") is fixed byte for byte: the decimal writer prints
   exactly what [string_of_int] would, since cache keys and recorded
   digests depend on it. *)

open Circuit

type t = { digest : string; canon : string }

let digest fp = fp.digest
let canon fp = fp.canon
let equal a b = String.equal a.digest b.digest && String.equal a.canon b.canon

(* ------------------------------------------------------------------ *)
(* Two independently mixed 63-bit label lanes                          *)
(* ------------------------------------------------------------------ *)

let mix1 h x =
  let h = (h lxor x) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let mix2 h x =
  let h = (h lxor (x lxor 0x9e3779b9)) * 0x27d4eb2f165667c5 in
  h lxor (h lsr 29)

let seed1 tag = mix1 0x51_7cc1b7 tag
let seed2 tag = mix2 0x6c_62272e tag

let fold1 h l = List.fold_left mix1 h l
let fold2 h l = List.fold_left mix2 h l

let ints_of_value = function
  | Bit b -> [ 0; (if b then 1 else 0) ]
  | Word (w, v) -> [ 1; w; v ]

let int_of_width = function B -> 0 | W n -> n

let op_code = function
  | Not -> 1
  | And -> 2
  | Or -> 3
  | Nand -> 4
  | Nor -> 5
  | Xor -> 6
  | Xnor -> 7
  | Buf -> 8
  | Mux -> 9
  | Constb _ -> 10
  | Winc -> 11
  | Wadd -> 12
  | Weq -> 13
  | Wmux -> 14
  | Wnot -> 15
  | Wand -> 16
  | Wor -> 17
  | Wxor -> 18
  | Wconst _ -> 19

(* an operator as ints: its code, then its parameters *)
let ints_of_op = function
  | Constb b -> [ 10; (if b then 1 else 0) ]
  | Wconst (w, v) -> [ 19; w; v ]
  | op -> [ op_code op ]

let parametric = function
  | Constb _ | Wconst _ -> true
  | Not | And | Or | Nand | Nor | Xor | Xnor | Buf | Mux | Winc | Wadd | Weq
  | Wmux | Wnot | Wand | Wor | Wxor ->
      false

(* For the operators without parameters, whose ints are just the code,
   per code: the operator part of a gate's label in each lane, and the
   head "g:<code>,a=" of its canon entry. *)
let plain_base1 = Array.init 20 (fun code -> fold1 (seed1 3) [ code ])
let plain_base2 = Array.init 20 (fun code -> fold2 (seed2 3) [ code ])
let plain_head = Array.init 20 (fun code -> "g:" ^ string_of_int code ^ ",a=")

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)
(* ------------------------------------------------------------------ *)

(* label pairs, hashed and compared as ints *)
module Labels = Hashtbl.Make (struct
  type t = int * int

  let equal ((a1 : int), (a2 : int)) (b1, b2) = a1 = b1 && a2 = b2
  let hash (l1, l2) = (l1 lxor (l2 * 0x9e3779b1)) land max_int
end)

(* Partition of the registers by label, as first-occurrence class ids:
   equal arrays on consecutive rounds = the refinement has stabilised. *)
let classes_of rl1 rl2 =
  let tbl = Labels.create 16 in
  Array.init (Array.length rl1) (fun r ->
      let l = (rl1.(r), rl2.(r)) in
      match Labels.find_opt tbl l with
      | Some id -> id
      | None ->
          let id = Labels.length tbl in
          Labels.add tbl l id;
          id)

let refine c =
  let nsig = Array.length c.drivers in
  let nregs = Array.length c.registers in
  let topo = topo_array c in
  (* per-gate operator base hashes, and per-register initial labels *)
  let gate_base1 = Array.make nsig 0 and gate_base2 = Array.make nsig 0 in
  Array.iteri
    (fun s d ->
      match d with
      | Gate (op, _) ->
          if parametric op then begin
            let ints = ints_of_op op in
            gate_base1.(s) <- fold1 (seed1 3) ints;
            gate_base2.(s) <- fold2 (seed2 3) ints
          end
          else begin
            gate_base1.(s) <- plain_base1.(op_code op);
            gate_base2.(s) <- plain_base2.(op_code op)
          end
      | Input _ | Reg_out _ -> ())
    c.drivers;
  let r0_1 =
    Array.init nregs (fun r ->
        let reg = c.registers.(r) in
        fold1 (seed1 2)
          (int_of_width c.widths.(reg.data) :: ints_of_value reg.init))
  and r0_2 =
    Array.init nregs (fun r ->
        let reg = c.registers.(r) in
        fold2 (seed2 2)
          (int_of_width c.widths.(reg.data) :: ints_of_value reg.init))
  in
  let sl1 = Array.make nsig 0 and sl2 = Array.make nsig 0 in
  (* input labels never change across rounds *)
  Array.iteri
    (fun s d ->
      match d with
      | Input i ->
          sl1.(s) <- fold1 (seed1 1) [ i; int_of_width c.widths.(s) ];
          sl2.(s) <- fold2 (seed2 1) [ i; int_of_width c.widths.(s) ]
      | Reg_out _ | Gate _ -> ())
    c.drivers;
  let rl1 = Array.copy r0_1 and rl2 = Array.copy r0_2 in
  (* the rounds run over flat int arrays: register outputs as (signal,
     register) pairs, and the gates in topological order with their
     operands flattened, gate topo.(k) reading
     operands.(first.(k) .. first.(k + 1) - 1) *)
  let n_ro =
    Array.fold_left
      (fun n d -> match d with Reg_out _ -> n + 1 | Input _ | Gate _ -> n)
      0 c.drivers
  in
  let ro_sig = Array.make n_ro 0 and ro_reg = Array.make n_ro 0 in
  let i = ref 0 in
  Array.iteri
    (fun s d ->
      match d with
      | Reg_out r ->
          ro_sig.(!i) <- s;
          ro_reg.(!i) <- r;
          incr i
      | Input _ | Gate _ -> ())
    c.drivers;
  let ngates = Array.length topo in
  let first = Array.make (ngates + 1) 0 in
  let arity s = match c.drivers.(s) with Gate (_, args) -> List.length args | Input _ | Reg_out _ -> 0 in
  for k = 0 to ngates - 1 do
    first.(k + 1) <- first.(k) + arity topo.(k)
  done;
  let operands = Array.make first.(ngates) 0 in
  let rec fill j = function
    | [] -> ()
    | a :: tl ->
        operands.(j) <- a;
        fill (j + 1) tl
  in
  for k = 0 to ngates - 1 do
    match c.drivers.(topo.(k)) with
    | Gate (_, args) -> fill first.(k) args
    | Input _ | Reg_out _ -> ()
  done;
  let pass () =
    for i = 0 to Array.length ro_sig - 1 do
      sl1.(ro_sig.(i)) <- rl1.(ro_reg.(i));
      sl2.(ro_sig.(i)) <- rl2.(ro_reg.(i))
    done;
    for k = 0 to ngates - 1 do
      let s = topo.(k) in
      let h1 = ref gate_base1.(s) and h2 = ref gate_base2.(s) in
      for j = first.(k) to first.(k + 1) - 1 do
        let a = operands.(j) in
        h1 := mix1 (mix1 !h1 sl1.(a)) sl2.(a);
        h2 := mix2 (mix2 !h2 sl1.(a)) sl2.(a)
      done;
      sl1.(s) <- !h1;
      sl2.(s) <- !h2
    done
  in
  if nregs > 0 then begin
    let classes = ref (classes_of rl1 rl2) in
    let stop = ref false in
    let round = ref 0 in
    while not !stop do
      pass ();
      for r = 0 to nregs - 1 do
        let d = c.registers.(r).data in
        rl1.(r) <- mix1 (mix1 r0_1.(r) sl1.(d)) sl2.(d);
        rl2.(r) <- mix2 (mix2 r0_2.(r) sl1.(d)) sl2.(d)
      done;
      let classes' = classes_of rl1 rl2 in
      incr round;
      if classes' = !classes || !round > nregs + 2 then stop := true;
      classes := classes'
    done
  end;
  pass ();
  (sl1, sl2, rl1, rl2)

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

(* "00" "01" .. "99", for two digits per division in [put_decimal] *)
let digit_pairs =
  String.init 200 (fun i ->
      let k = i / 2 in
      Char.chr (48 + if i mod 2 = 0 then k / 10 else k mod 10))

(* 10^k for k = 0 .. 18 *)
let pow10 =
  let a = Array.make 19 1 in
  for k = 1 to 18 do
    a.(k) <- 10 * a.(k - 1)
  done;
  a

(* The digit count of a negative [m]: 1 + the greatest k <= [k] with
   m <= -10^k, searched downwards from [k] = 18 since labels mostly have 18
   or 19 digits. *)
let rec digit_count m k =
  if k = 0 || m <= -pow10.(k) then k + 1 else digit_count m (k - 1)

(* Write the digits of a non-positive [m] to end just before [i], two
   per division ([r] is in 0..99, so the table reads are in range). *)
let rec put_digits buf m i =
  if m <= -10 then begin
    let q = m / 100 in
    let r = (q * 100) - m in
    Bytes.set buf (i - 2) (String.unsafe_get digit_pairs (2 * r));
    Bytes.set buf (i - 1) (String.unsafe_get digit_pairs ((2 * r) + 1));
    put_digits buf q (i - 2)
  end
  else if m < 0 then Bytes.set buf (i - 1) (Char.chr (48 - m))

(* Write the decimal text of [n] into [buf] at [pos], exactly as
   [string_of_int] prints it, and return the position after it.  Digits
   come from a non-positive copy of [n], so min_int needs no special
   case.  [buf] must have room for 20 bytes at [pos]. *)
let put_decimal buf pos n =
  if n = 0 then begin
    Bytes.set buf pos '0';
    pos + 1
  end
  else begin
    let m = if n < 0 then n else -n in
    let pos =
      if n < 0 then begin
        Bytes.set buf pos '-';
        pos + 1
      end
      else pos
    in
    let stop = pos + digit_count m 18 in
    put_digits buf m stop;
    stop
  end

let put_char buf pos ch =
  Bytes.set buf pos ch;
  pos + 1

let put_string buf pos str =
  Bytes.blit_string str 0 buf pos (String.length str);
  pos + String.length str

(* "i," *)
let put_int buf pos i = put_char buf (put_decimal buf pos i) ','

(* "s1.s2," *)
let put_label buf pos s1 s2 =
  put_char buf (put_decimal buf (put_char buf (put_decimal buf pos s1) '.') s2) ','

(* An upper bound on one label's text: two 20-byte ints and "." "," *)
let label_room = 42

let of_circuit c =
  validate c;
  let sl1, sl2, rl1, rl2 = refine c in
  (* every signal's label text rendered once, back to back: signal s owns
     labels.[off.(s) .. off.(s + 1) - 1] *)
  let nsig = Array.length c.drivers in
  let labels = Bytes.create (nsig * label_room) in
  let off = Array.make (nsig + 1) 0 in
  for s = 0 to nsig - 1 do
    off.(s + 1) <- put_label labels off.(s) sl1.(s) sl2.(s)
  done;
  let put_sig buf pos s =
    let len = off.(s + 1) - off.(s) in
    Bytes.blit labels off.(s) buf pos len;
    pos + len
  in
  let rec put_sigs buf pos = function
    | [] -> pos
    | s :: tl -> put_sigs buf (put_sig buf pos s) tl
  in
  (* each register and gate entry is assembled in one scratch buffer
     (operators have at most 3 operands and 3 ints) and copied out *)
  let eb = Bytes.create (16 * label_room) in
  let entry len = Bytes.sub_string eb 0 len in
  let regs =
    List.init (Array.length c.registers) (fun r ->
        let reg = c.registers.(r) in
        let p = put_string eb 0 "r:" in
        let p = List.fold_left (put_int eb) p (ints_of_value reg.init) in
        let p = put_string eb p "d=" in
        let p = put_sig eb p reg.data in
        let p = put_string eb p ";l=" in
        entry (put_label eb p rl1.(r) rl2.(r)))
  in
  let gates = ref [] in
  Array.iteri
    (fun s d ->
      match d with
      | Gate (op, args) ->
          let p =
            if parametric op then
              let p = put_string eb 0 "g:" in
              let p = List.fold_left (put_int eb) p (ints_of_op op) in
              put_string eb p "a="
            else put_string eb 0 plain_head.(op_code op)
          in
          let p = put_sigs eb p args in
          let p = put_string eb p ";l=" in
          gates := entry (put_sig eb p s) :: !gates
      | Input _ | Reg_out _ -> ())
    c.drivers;
  (* [List.sort] is a merge sort; on these lists it beats the array
     sorts *)
  let regs = List.sort String.compare regs in
  let gates = List.sort String.compare !gates in
  (* the interface, then both sorted entry lists, each entry followed by
     '|', in one string of exactly the right length *)
  let head = Buffer.create 256 in
  let scratch = Bytes.create label_room in
  let add_int i = Buffer.add_subbytes head scratch 0 (put_int scratch 0 i) in
  Buffer.add_string head "fp1;in:";
  Array.iter (fun w -> add_int (int_of_width w)) c.input_widths;
  Buffer.add_string head ";out:";
  Array.iter
    (fun (name, s) ->
      (* length-prefixed so no output name can fake the separators *)
      add_int (String.length name);
      Buffer.add_string head name;
      Buffer.add_char head '=';
      Buffer.add_subbytes head labels off.(s) (off.(s + 1) - off.(s)))
    c.outputs;
  let size tag entries =
    List.fold_left (fun n e -> n + String.length e + 1) (String.length tag) entries
  in
  let canon =
    Bytes.create (Buffer.length head + size ";regs:" regs + size ";gates:" gates)
  in
  let put_entries pos tag entries =
    List.fold_left
      (fun p e -> put_char canon (put_string canon p e) '|')
      (put_string canon pos tag) entries
  in
  Buffer.blit head 0 canon 0 (Buffer.length head);
  let p = put_entries (Buffer.length head) ";regs:" regs in
  ignore (put_entries p ";gates:" gates);
  let canon = Bytes.unsafe_to_string canon in
  { digest = Digest.to_hex (Digest.string canon); canon }
