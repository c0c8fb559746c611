(* Memo tables keyed on interned node ids.  Unlike the BDD engine's
   operation caches, entries are never evicted while a table is in use:
   the conversion memo protects against exponential re-expansion of
   shared dag spines, so a lossy direct-mapped cache would be unsound
   performance-wise.  Instead a table is released wholesale — back to its
   initial arrays, so no cached theorem stays reachable — when the HASH
   step that filled it returns (see [Conv.with_step]), or when it crosses
   its cap at a top-level call boundary.

   Releases must only happen between top-level calls of the memoised
   function, never mid-recursion. *)

(* Hit/miss counters across all memo tables, for Obs snapshots.  The
   counters are per-domain, like the tables themselves (every domain
   allocates its own via the DLS wrapper in Conv), so a table keeps the
   counters of the domain that created it and a lookup reads no DLS. *)
type counters = { mutable hits : int; mutable misses : int }

let c_key = Domain.DLS.new_key (fun () -> { hits = 0; misses = 0 })

type 'a t = {
  mutable keys : int array; (* -1 = empty *)
  mutable vals : 'a option array;
  mutable mask : int;
  mutable count : int;
  counters : counters;
}

let bits = 12 (* a table starts at 2^bits slots *)
let cap = 2_000_000 (* entries allowed before [new_call] releases a table *)

let release t =
  if t.count > 0 then begin
    let size = 1 lsl bits in
    t.keys <- Array.make size (-1);
    t.vals <- Array.make size None;
    t.mask <- size - 1;
    t.count <- 0
  end

(* Every table created on a domain registers its release closure in that
   domain's DLS list, so a HASH step can drop all its memoised theorems
   when it returns, and [Kernel.start_recording] can drop theorems proved
   before the trace began (a memo hit would otherwise hand back an
   unresolvable input). *)
let rel_key : (unit -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let on_release f =
  let rels = Domain.DLS.get rel_key in
  rels := f :: !rels

let release_domain () =
  List.iter (fun f -> f ()) !(Domain.DLS.get rel_key)

let hash_key k =
  let h = k * 0x9e3779b9 in
  let h = (h lxor (h lsr 16)) * 0x85ebca6b in
  (h lxor (h lsr 13)) land max_int

let create () =
  let size = 1 lsl bits in
  let t =
    {
      keys = Array.make size (-1);
      vals = Array.make size None;
      mask = size - 1;
      count = 0;
      counters = Domain.DLS.get c_key;
    }
  in
  on_release (fun () -> release t);
  t

let new_call t = if t.count > cap then release t

let find t id =
  let mask = t.mask and c = t.counters in
  let rec go i =
    let k = t.keys.(i) in
    if k < 0 then begin
      c.misses <- c.misses + 1;
      None
    end
    else if k = id then begin
      c.hits <- c.hits + 1;
      t.vals.(i)
    end
    else go ((i + 1) land mask)
  in
  go (hash_key id land mask)

let resize t =
  let old_keys = t.keys and old_vals = t.vals in
  let size = 2 * Array.length old_keys in
  let keys = Array.make size (-1) in
  let vals = Array.make size None in
  let mask = size - 1 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let rec place j =
          if keys.(j) < 0 then begin
            keys.(j) <- k;
            vals.(j) <- old_vals.(i)
          end
          else place ((j + 1) land mask)
        in
        place (hash_key k land mask)
      end)
    old_keys;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask

let add t id v =
  let rec go i =
    let k = t.keys.(i) in
    if k < 0 then begin
      t.keys.(i) <- id;
      t.vals.(i) <- Some v;
      t.count <- t.count + 1;
      if t.count * 10 > Array.length t.keys * 7 then resize t
    end
    else if k = id then t.vals.(i) <- Some v
    else go ((i + 1) land t.mask)
  in
  go (hash_key id land t.mask)

let stats () =
  let c = Domain.DLS.get c_key in
  (c.hits, c.misses)
