type t = int
(* 0 and 1 are the terminal nodes. *)

(* The manager stores nodes in parallel off-heap [Bigarray] buffers and
   interns them through an open-addressed unique table that also lives
   off-heap.  The OCaml GC never scans any of it: a 20M-node manager
   contributes zero words to the major heap's mark phase, which is what
   makes one manager per pool domain affordable (PR 3's term kernel got
   the same treatment; the s344 jobs=2 regression was the GC walking
   every domain's tables on every major slice).

   The ite computed table and the exists/compose memo table are
   direct-mapped lossy caches over packed int entries — a miss can
   recompute work, but no lookup ever allocates and the tables never
   trigger a full rehash pause.  Memo entries are validated against a
   per-call generation stamp instead of being cleared with
   [Hashtbl.reset].

   Variable order.  The order is fixed: a node's level is its variable
   id, so callers choose the order by choosing the numbering.  Nodes are
   append-only and never rewritten, so an id denotes one function for
   the manager's lifetime. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ( .%() ) (a : ba) i = Bigarray.Array1.unsafe_get a i
let ( .%()<- ) (a : ba) i v = Bigarray.Array1.unsafe_set a i v

let ba_create n : ba =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  a

type manager = {
  (* node store: variable and children *)
  mutable var_arr : ba;
  mutable low_arr : ba;
  mutable high_arr : ba;
  mutable next : int;
  (* unique table: open-addressed, power-of-two capacity, entries are node
     ids (0 = empty slot; real nodes start at id 2) *)
  mutable u_tab : ba;
  mutable u_mask : int;
  (* ite computed table: direct-mapped, 4 ints per entry (f, g, h, result);
     f = -1 marks an empty entry *)
  mutable c_tab : ba;
  mutable c_mask : int;  (* entry-count mask *)
  (* memo table for exists/compose: direct-mapped, 3 ints per
     entry (key node, generation stamp, result) *)
  mutable m_tab : ba;
  mutable m_mask : int;  (* entry-count mask *)
  mutable generation : int;
  (* scratch bitmask for the variable set of [exists] *)
  mutable vset : Bytes.t;
  counters : Obs.Counters.t;
}

let unique_init_bits = 12
let cache_init_bits = 12
let cache_max_bits = 20

let manager () =
  let n = 1024 in
  {
    var_arr = ba_create n;
    low_arr = ba_create n;
    high_arr = ba_create n;
    next = 2;
    u_tab = ba_create (1 lsl unique_init_bits);
    u_mask = (1 lsl unique_init_bits) - 1;
    c_tab =
      (let c = ba_create (4 lsl cache_init_bits) in
       Bigarray.Array1.fill c (-1);
       c);
    c_mask = (1 lsl cache_init_bits) - 1;
    m_tab =
      (let c = ba_create (3 lsl cache_init_bits) in
       Bigarray.Array1.fill c (-1);
       c);
    m_mask = (1 lsl cache_init_bits) - 1;
    generation = 0;
    vset = Bytes.empty;
    counters = Obs.Counters.create ();
  }

let zero _ = 0
let one _ = 1
let is_zero _ f = f = 0
let equal (a : t) (b : t) = a = b

(* Mix three ints into a well-spread non-negative hash without allocating.
   Multiplications wrap, which is fine for hashing. *)
let hash3 a b c =
  let h = a + (b * 0x2545f4914f6cdd1) + (c * 0x9e3779b9) in
  let h = (h lxor (h lsr 29)) * 0x85ebca6b in
  (h lxor (h lsr 16)) land max_int

(* ------------------------------------------------------------------ *)
(* Unique table                                                        *)
(* ------------------------------------------------------------------ *)

(* raw insert into a fresh table *)
let unique_insert_raw m id =
  let mask = m.u_mask and tab = m.u_tab in
  let h =
    hash3 m.var_arr.%(id) m.low_arr.%(id) m.high_arr.%(id) land mask
  in
  let i = ref h in
  while tab.%(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  tab.%(!i) <- id

(* Rebuild the table at twice the capacity from the node store. *)
let unique_grow m =
  let cap = (m.u_mask + 1) lsl 1 in
  m.u_tab <- ba_create cap;
  m.u_mask <- cap - 1;
  for id = 2 to m.next - 1 do
    unique_insert_raw m id
  done

let grow_nodes m =
  let n = Bigarray.Array1.dim m.var_arr in
  let extend (a : ba) =
    let a' = ba_create (2 * n) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub a' 0 n);
    a'
  in
  m.var_arr <- extend m.var_arr;
  m.low_arr <- extend m.low_arr;
  m.high_arr <- extend m.high_arr

(* Grow the lossy caches in step with the node population so recursions
   over large graphs keep their memoisation effective.  Entries are
   re-inserted at their new positions; clashes just overwrite. *)
let cache_grow m =
  let old_entries = m.c_mask + 1 in
  if old_entries lsl 1 <= 1 lsl cache_max_bits then begin
    let old_c = m.c_tab and old_m = m.m_tab in
    let entries = old_entries lsl 1 in
    let c = ba_create (4 * entries) in
    Bigarray.Array1.fill c (-1);
    m.c_tab <- c;
    m.c_mask <- entries - 1;
    let mm = ba_create (3 * entries) in
    Bigarray.Array1.fill mm (-1);
    m.m_tab <- mm;
    m.m_mask <- entries - 1;
    for e = 0 to old_entries - 1 do
      let s = 4 * e in
      let f = old_c.%(s) in
      if f >= 0 then begin
        let g = old_c.%(s + 1) and h = old_c.%(s + 2) in
        let s' = 4 * (hash3 f g h land m.c_mask) in
        m.c_tab.%(s') <- f;
        m.c_tab.%(s' + 1) <- g;
        m.c_tab.%(s' + 2) <- h;
        m.c_tab.%(s' + 3) <- old_c.%(s + 3)
      end;
      let s = 3 * e in
      let k = old_m.%(s) in
      if k >= 0 then begin
        let s' = 3 * ((k * 0x9e3779b9) land max_int land m.m_mask) in
        m.m_tab.%(s') <- k;
        m.m_tab.%(s' + 1) <- old_m.%(s + 1);
        m.m_tab.%(s' + 2) <- old_m.%(s + 2)
      end
    done
  end

(* Probe for [(v, lo, hi)]: returns the node id when interned already, or
   [-slot - 2] with [slot] the empty slot that ended the probe. *)
let rec u_probe m v lo hi i =
  let id = m.u_tab.%(i) in
  if id = 0 then -i - 2
  else if m.var_arr.%(id) = v && m.low_arr.%(id) = lo && m.high_arr.%(id) = hi
  then id
  else u_probe m v lo hi ((i + 1) land m.u_mask)

(* keep the load factor under ~0.7 *)
let check_load m =
  if 10 * (m.next - 2) >= 7 * (m.u_mask + 1) then begin
    unique_grow m;
    cache_grow m
  end

let mk m v lo hi =
  if lo = hi then lo
  else begin
    if v < 0 then invalid_arg "Bdd: negative variable";
    let cnt = m.counters in
    cnt.Obs.Counters.mk_calls <- cnt.Obs.Counters.mk_calls + 1;
    let p = u_probe m v lo hi (hash3 v lo hi land m.u_mask) in
    if p >= 0 then begin
      cnt.Obs.Counters.unique_hits <- cnt.Obs.Counters.unique_hits + 1;
      p
    end
    else begin
      cnt.Obs.Counters.unique_misses <- cnt.Obs.Counters.unique_misses + 1;
      if m.next >= Bigarray.Array1.dim m.var_arr then grow_nodes m;
      let id = m.next in
      m.next <- id + 1;
      m.var_arr.%(id) <- v;
      m.low_arr.%(id) <- lo;
      m.high_arr.%(id) <- hi;
      m.u_tab.%(-p - 2) <- id;
      check_load m;
      id
    end
  end

let var m i = mk m i 0 1

(* the variable a node branches on; terminals sit below every variable *)
let top_var m f = if f < 2 then max_int else m.var_arr.%(f)

let cofactors m f v =
  if f < 2 || m.var_arr.%(f) <> v then (f, f)
  else (m.low_arr.%(f), m.high_arr.%(f))

(* ------------------------------------------------------------------ *)
(* ite with argument normalization and a packed computed table          *)
(* ------------------------------------------------------------------ *)

let rec ite m f g h =
  (* [ite f f h = ite f 1 h] and [ite f g f = ite f g 0]: rewriting first
     lets the commutative canonicalization below see the simple form. *)
  let g = if g = f then 1 else g in
  let h = if h = f then 0 else h in
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else begin
    (* and/or are commutative: order the operands by node id so that
       [and_ f g] and [and_ g f] hit the same computed-table entry. *)
    let f, g, h =
      if h = 0 && g < f then (g, f, 0)
      else if g = 1 && h < f then (h, 1, f)
      else (f, g, h)
    in
    let cnt = m.counters in
    let s = 4 * (hash3 f g h land m.c_mask) in
    let c_tab = m.c_tab in
    if c_tab.%(s) = f && c_tab.%(s + 1) = g && c_tab.%(s + 2) = h then begin
      cnt.Obs.Counters.cache_hits <- cnt.Obs.Counters.cache_hits + 1;
      c_tab.%(s + 3)
    end
    else begin
      cnt.Obs.Counters.cache_misses <- cnt.Obs.Counters.cache_misses + 1;
      (* branch on the smallest variable, the earliest in the order *)
      let v = min (top_var m f) (min (top_var m g) (top_var m h)) in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let lo = ite m f0 g0 h0 in
      let hi = ite m f1 g1 h1 in
      let r = mk m v lo hi in
      (* m.c_tab may have been replaced by a grow during the recursion *)
      let s = 4 * (hash3 f g h land m.c_mask) in
      let c_tab = m.c_tab in
      c_tab.%(s) <- f;
      c_tab.%(s + 1) <- g;
      c_tab.%(s + 2) <- h;
      c_tab.%(s + 3) <- r;
      r
    end
  end

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor_ m f g = ite m f (not_ m g) g
let xnor_ m f g = ite m f g (not_ m g)

(* ------------------------------------------------------------------ *)
(* Generation-stamped memo for the traversing operations                *)
(* ------------------------------------------------------------------ *)

let new_generation m =
  m.generation <- m.generation + 1;
  m.generation

let memo_find m gen f =
  let s = 3 * ((f * 0x9e3779b9) land max_int land m.m_mask) in
  let m_tab = m.m_tab in
  if m_tab.%(s) = f && m_tab.%(s + 1) = gen then begin
    let cnt = m.counters in
    cnt.Obs.Counters.memo_hits <- cnt.Obs.Counters.memo_hits + 1;
    m_tab.%(s + 2)
  end
  else begin
    let cnt = m.counters in
    cnt.Obs.Counters.memo_misses <- cnt.Obs.Counters.memo_misses + 1;
    -1
  end

let memo_store m gen f r =
  let s = 3 * ((f * 0x9e3779b9) land max_int land m.m_mask) in
  let m_tab = m.m_tab in
  m_tab.%(s) <- f;
  m_tab.%(s + 1) <- gen;
  m_tab.%(s + 2) <- r

let exists m vars f =
  (* membership of the quantified set via a bitmask: O(1) per node with
     no per-node list traversal *)
  let maxv = List.fold_left max (-1) vars in
  let bytes = (maxv + 8) / 8 in
  if Bytes.length m.vset < bytes then m.vset <- Bytes.make (bytes + 16) '\000'
  else Bytes.fill m.vset 0 (Bytes.length m.vset) '\000';
  List.iter
    (fun v ->
      if v >= 0 then
        Bytes.unsafe_set m.vset (v lsr 3)
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get m.vset (v lsr 3))
             lor (1 lsl (v land 7)))))
    vars;
  let vset = m.vset in
  let nbits = 8 * Bytes.length vset in
  let in_set v =
    v < nbits
    && Char.code (Bytes.unsafe_get vset (v lsr 3)) land (1 lsl (v land 7))
       <> 0
  in
  let gen = new_generation m in
  let rec go f =
    if f < 2 then f
    else
      let r0 = memo_find m gen f in
      if r0 >= 0 then r0
      else
        let v = m.var_arr.%(f) in
        let lo = m.low_arr.%(f) and hi = m.high_arr.%(f) in
        let r =
          if in_set v then or_ m (go lo) (go hi) else mk m v (go lo) (go hi)
        in
        memo_store m gen f r;
        r
  in
  go f

let compose m f sigma =
  let gen = new_generation m in
  let rec go f =
    if f < 2 then f
    else
      let r0 = memo_find m gen f in
      if r0 >= 0 then r0
      else
        let v = m.var_arr.%(f) in
        let lo = go m.low_arr.%(f) and hi = go m.high_arr.%(f) in
        let fv = match sigma v with Some g -> g | None -> mk m v 0 1 in
        let r = ite m fv hi lo in
        memo_store m gen f r;
        r
  in
  go f

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let support m f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.replace seen f ();
      Hashtbl.replace vars m.var_arr.%(f) ();
      go m.low_arr.%(f);
      go m.high_arr.%(f)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let size m f =
  let seen = Hashtbl.create 64 in
  let rec go f acc =
    if f < 2 || Hashtbl.mem seen f then acc
    else begin
      Hashtbl.replace seen f ();
      go m.low_arr.%(f) (go m.high_arr.%(f) (acc + 1))
    end
  in
  go f 0

let node_count m = m.next

let stats m = { m.counters with Obs.Counters.peak_nodes = m.next }

let rec eval m f env =
  if f = 0 then false
  else if f = 1 then true
  else if env m.var_arr.%(f) then eval m m.high_arr.%(f) env
  else eval m m.low_arr.%(f) env
