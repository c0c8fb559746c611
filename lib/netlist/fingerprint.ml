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

   This runs on every service request that misses the exact-text cache,
   so the refinement loop is arrays-of-ints all the way: the topological
   order is the one [Circuit.validate_topo] computes while validating,
   per-gate operator hashes are precomputed, and the two label lanes
   live in twin int arrays (no tuple allocation per signal per round).

   The canon ("fp2") is binary: every int is one 8-byte little-endian
   lane, a label two lanes.  After the tag "fp2" come the input count
   and widths; the output count and, per output, the length of its name,
   the name's bytes and its signal's label; the register count and one
   fixed-width entry per register (own label, initial value as kind,
   width and value, data label); the gate count and one entry per gate
   (a lane [op code + 32 * arity], the operator's parameters, the
   operands' labels), whose first lane fixes its length.  The encoding
   is injective, so two canons are equal exactly when the interfaces and
   the entry multisets are.  Entries are sorted as rows of ints, keyed
   first by a label.  The digest is two lanes folded over the canon's
   8-byte words, printed as 32 hex digits.

   The previous canon ("fp1") printed every label in decimal, built one
   string per entry, sorted the strings and digested the result with
   MD5: it was 2.6 times the size of the BLIF text it described, and
   rendering, sorting and hashing it took most of a fingerprint.  The
   lanes carry the same labels, so both canons split circuits alike
   (test/fingerprint_ref.ml keeps fp1 as the reference of that check). *)

open Circuit

type t = { digest : string; canon : string }

let digest fp = fp.digest
let canon fp = fp.canon

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
   per code: the operator part of a gate's label in each lane. *)
let plain_base1 = Array.init 20 (fun code -> fold1 (seed1 3) [ code ])
let plain_base2 = Array.init 20 (fun code -> fold2 (seed2 3) [ code ])

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

let refine c topo =
  let nsig = Array.length c.drivers in
  let nregs = Array.length c.registers in
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

(* The row indices 0 .. n - 1 of [rows], [w] ints per row, in a
   canonical order: by the top bits of each row's first int (a label,
   so the n rows spread over about n buckets), then lexicographically
   over the whole row.  The order is total on entries, so the sorted
   sequence depends only on the multiset.  A counting pass places the
   rows in their buckets; a bucket of a few rows is insertion-sorted,
   a larger one merge-sorted. *)
let sorted_rows rows w n =
  let bits = ref 1 in
  while 1 lsl !bits < n do incr bits done;
  let shift = 63 - !bits in
  let bucket i = rows.(i * w) lsr shift in
  (* [ends.(b)]: first the start of bucket b, then its end *)
  let ends = Array.make ((1 lsl !bits) + 1) 0 in
  for i = 0 to n - 1 do
    let b = bucket i + 1 in
    ends.(b) <- ends.(b) + 1
  done;
  for b = 1 to 1 lsl !bits do
    ends.(b) <- ends.(b) + ends.(b - 1)
  done;
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let b = bucket i in
    order.(ends.(b)) <- i;
    ends.(b) <- ends.(b) + 1
  done;
  let cmp i j =
    let rec go k =
      if k = w then 0
      else
        let c = Int.compare rows.((i * w) + k) rows.((j * w) + k) in
        if c <> 0 then c else go (k + 1)
    in
    go 0
  in
  let start = ref 0 in
  for b = 0 to (1 lsl !bits) - 1 do
    let lo = !start and hi = ends.(b) in
    if hi - lo > 8 then begin
      let run = Array.sub order lo (hi - lo) in
      Array.stable_sort cmp run;
      Array.blit run 0 order lo (hi - lo)
    end
    else
      for k = lo + 1 to hi - 1 do
        let x = order.(k) in
        let j = ref k in
        while !j > lo && cmp order.(!j - 1) x > 0 do
          order.(!j) <- order.(!j - 1);
          decr j
        done;
        order.(!j) <- x
      done;
    start := hi
  done;
  order

(* A register row: its own label, its initial value as (kind, width,
   value), its data signal's label.  The canon writes all of it. *)
let reg_width = 7

(* A gate row: its own label, which is only the sort key (a function of
   the rest, so the canon leaves it out), then the entry: the lane
   [code + 32 * arity], the operator's parameters, two lanes per
   operand.  The first lane fixes the entry's length; the ints after it
   are 0. *)
let gate_width = 11

let entry_lanes code_lane =
  let params = match code_lane land 31 with 10 -> 1 | 19 -> 2 | _ -> 0 in
  1 + params + (2 * (code_lane lsr 5))

let put_lane buf pos x =
  Bytes.set_int64_le buf pos (Int64.of_int x);
  pos + 8

let put_lanes buf pos rows first n =
  for k = 0 to n - 1 do
    Bytes.set_int64_le buf (pos + (8 * k)) (Int64.of_int rows.(first + k))
  done;
  pos + (8 * n)

(* Two lanes folded over the canon's 8-byte words (the first lane reads
   a word's low 63 bits, the second its high 63), then its tail bytes,
   printed as 32 hex digits. *)
let digest_of canon =
  let n = String.length canon in
  let h1 = ref (seed1 n) and h2 = ref (seed2 n) in
  let words = n / 8 in
  for k = 0 to words - 1 do
    let w = String.get_int64_le canon (8 * k) in
    h1 := mix1 !h1 (Int64.to_int w);
    h2 := mix2 !h2 (Int64.to_int (Int64.shift_right_logical w 1))
  done;
  for i = 8 * words to n - 1 do
    h1 := mix1 !h1 (Char.code (String.unsafe_get canon i));
    h2 := mix2 !h2 (Char.code (String.unsafe_get canon i))
  done;
  Printf.sprintf "%016x%016x" (mix1 !h1 !h2) (mix2 !h2 !h1)

let of_circuit c =
  let topo = validate_topo c in
  let sl1, sl2, rl1, rl2 = refine c topo in
  let nregs = Array.length c.registers in
  let regs = Array.make (nregs * reg_width) 0 in
  Array.iteri
    (fun r reg ->
      let o = r * reg_width in
      regs.(o) <- rl1.(r);
      regs.(o + 1) <- rl2.(r);
      (match reg.init with
      | Bit b -> regs.(o + 4) <- Bool.to_int b
      | Word (w, v) ->
          regs.(o + 2) <- 1;
          regs.(o + 3) <- w;
          regs.(o + 4) <- v);
      regs.(o + 5) <- sl1.(reg.data);
      regs.(o + 6) <- sl2.(reg.data))
    c.registers;
  (* validation bounds the arity by 3 and the parameters by 2, so an
     entry fits its row *)
  let ngates = Array.length topo in
  let gates = Array.make (ngates * gate_width) 0 in
  let gate_lanes = ref 0 in
  Array.iteri
    (fun k s ->
      match c.drivers.(s) with
      | Gate (op, args) ->
          let o = k * gate_width in
          gates.(o) <- sl1.(s);
          gates.(o + 1) <- sl2.(s);
          let p =
            match op with
            | Constb b ->
                gates.(o + 3) <- Bool.to_int b;
                o + 4
            | Wconst (w, v) ->
                gates.(o + 3) <- w;
                gates.(o + 4) <- v;
                o + 5
            | Not | And | Or | Nand | Nor | Xor | Xnor | Buf | Mux | Winc
            | Wadd | Weq | Wmux | Wnot | Wand | Wor | Wxor ->
                o + 3
          in
          let rec operands p arity = function
            | [] ->
                gates.(o + 2) <- op_code op + (32 * arity);
                p
            | a :: tl ->
                gates.(p) <- sl1.(a);
                gates.(p + 1) <- sl2.(a);
                operands (p + 2) (arity + 1) tl
          in
          gate_lanes := !gate_lanes + operands p 0 args - (o + 2)
      | Input _ | Reg_out _ -> ())
    topo;
  (* "fp2", then lanes: the input count and widths; the output count
     and, per output, its name's length, the name's bytes and its
     signal's label; the register count and rows in order; the gate
     count and entries in order *)
  let n_in = Array.length c.input_widths in
  let outs =
    Array.fold_left (fun n (name, _) -> n + 24 + String.length name) 0 c.outputs
  in
  let buf =
    Bytes.create
      (3 + (8 * (n_in + 4 + (nregs * reg_width) + !gate_lanes)) + outs)
  in
  Bytes.blit_string "fp2" 0 buf 0 3;
  let p = put_lane buf 3 n_in in
  let p = Array.fold_left (fun p w -> put_lane buf p (int_of_width w)) p c.input_widths in
  let p = put_lane buf p (Array.length c.outputs) in
  let p =
    Array.fold_left
      (fun p (name, s) ->
        let len = String.length name in
        let p = put_lane buf p len in
        Bytes.blit_string name 0 buf p len;
        put_lane buf (put_lane buf (p + len) sl1.(s)) sl2.(s))
      p c.outputs
  in
  let p = put_lane buf p nregs in
  let p =
    Array.fold_left
      (fun p r -> put_lanes buf p regs (r * reg_width) reg_width)
      p (sorted_rows regs reg_width nregs)
  in
  let p = put_lane buf p ngates in
  ignore
    (Array.fold_left
       (fun p g ->
         let o = (g * gate_width) + 2 in
         put_lanes buf p gates o (entry_lanes gates.(o)))
       p (sorted_rows gates gate_width ngates));
  let canon = Bytes.unsafe_to_string buf in
  { digest = digest_of canon; canon }
