(* Immutable bitsets over small non-negative ints (compact variable
   indices).  Represented as little-endian arrays of 63-bit words with no
   trailing zero words, so the empty set is [||] and equal sets have equal
   representations.  [union] returns one of its arguments physically when
   the other is a subset, which keeps sharing high on dag-shaped terms. *)

type t = int array

let bits_per_word = 63
let empty : t = [||]
let is_empty (s : t) = Array.length s = 0

let singleton i =
  let w = i / bits_per_word in
  let s = Array.make (w + 1) 0 in
  s.(w) <- 1 lsl (i mod bits_per_word);
  s

let mem i (s : t) =
  let w = i / bits_per_word in
  w < Array.length s && s.(w) land (1 lsl (i mod bits_per_word)) <> 0

let union (a : t) (b : t) : t =
  if a == b then a
  else
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else
      let small, ls, big = if la <= lb then (a, la, b) else (b, lb, a) in
      let subset = ref true in
      for i = 0 to ls - 1 do
        if small.(i) land lnot big.(i) <> 0 then subset := false
      done;
      if !subset then big
      else begin
        let r = Array.copy big in
        for i = 0 to ls - 1 do
          r.(i) <- r.(i) lor small.(i)
        done;
        r
      end

let remove i (s : t) : t =
  let w = i / bits_per_word in
  if w >= Array.length s || s.(w) land (1 lsl (i mod bits_per_word)) = 0 then s
  else begin
    let r = Array.copy s in
    r.(w) <- r.(w) land lnot (1 lsl (i mod bits_per_word));
    let n = ref (Array.length r) in
    while !n > 0 && r.(!n - 1) = 0 do
      decr n
    done;
    if !n = Array.length r then r else Array.sub r 0 !n
  end

let iter f (s : t) =
  for w = 0 to Array.length s - 1 do
    let bits = ref s.(w) in
    while !bits <> 0 do
      let b = !bits land - !bits in
      (* lowest set bit *)
      let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
      f ((w * bits_per_word) + log2 b 0);
      bits := !bits lxor b
    done
  done

let elements (s : t) =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let choose (s : t) =
  if is_empty s then failwith "Bits.choose: empty set"
  else
    let rec word w = if s.(w) = 0 then word (w + 1) else w in
    let w = word 0 in
    let rec bit b = if s.(w) land (1 lsl b) = 0 then bit (b + 1) else b in
    (w * bits_per_word) + bit 0
