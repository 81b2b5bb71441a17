open Sim
open Packets

(* A flat open-addressing table over parallel arrays: linear probing,
   keys packed into one immediate int, expiry instants stored as
   immediate nanoseconds.  A lookup, an [add] on a present key and a
   [remove] allocate nothing (a hit in [find] allocates only its
   [Some]).

   Keys pack (origin, rreq_id) with the flood counter in the full 32
   bits it occupies on the wire and the node id in the 30 bits above
   them, disjoint — injective over the whole wire domain, with a guard
   on the (physically implausible) node ids that would overflow a 63-bit
   immediate.  Every key is non-negative, so [-1] marks an empty slot.

   An entry is live iff its expiry is after the current instant.  Dead
   entries stay in place until a lookup meets one (it is deleted then),
   a [remove] names one, or a purge deletes them all: a new key
   triggers one when a quarter-table of new keys has gone in since the
   last, or when the table would pass three-quarters full, and the
   arrays double if the survivors still fill half of them.  Deletion
   shifts the following probe run back (no tombstones), so purging
   allocates nothing either.

   The arrays are created at the first [add], and dropped by [clear]: a
   node that never sees a flood holds none.  [values] has one slot more
   than [keys]: the last holds the value the arrays were created with,
   which overwrites every vacated value slot.  So the cache keeps at
   most one value alive beyond its entries: that one.

   Against the same interface over [Hashtbl] (find-with-exception
   lookups, mutable entries, [filter_map_inplace] purges), this table
   allocates nothing per new key where [Hashtbl] allocates a bucket and
   an entry; on the 1000-node churn-agg benchmark that was 13.6 against
   15.3 minor words per event, with less promoted and live heap. *)

type 'a t = {
  engine : Engine.t;
  ttl : Time.t;
  mutable keys : int array;  (* [||] until the first add *)
  mutable expires : int array;  (* ns *)
  mutable values : 'a array;  (* [Array.length keys + 1]: filler last *)
  mutable size : int;  (* occupied slots, live or dead *)
  mutable inserts : int;  (* since the last purge *)
}

let empty = -1
let initial_capacity = 16

let key ~origin ~rreq_id =
  let o = Node_id.to_int origin in
  if o lsr 30 <> 0 then
    invalid_arg (Printf.sprintf "Rreq_cache.key: node id %d >= 2^30" o);
  (o lsl 32) lor (rreq_id land 0xffff_ffff)

(* Home slot: a multiplicative mix, then the product's upper half —
   where the origin's bits land, starting at bit 32 — folded onto the
   low bits the mask keeps. *)
let home k mask =
  let h = k * 0x2545_F491_4F6C_DD1D in
  (h lxor (h lsr 32)) land mask

let create ~engine ~ttl =
  {
    engine;
    ttl;
    keys = [||];
    expires = [||];
    values = [||];
    size = 0;
    inserts = 0;
  }

let now t = (Engine.now t.engine :> int)

(* Slot holding [k], or -1. *)
let slot t k =
  let keys = t.keys in
  let cap = Array.length keys in
  if cap = 0 then -1
  else begin
    let mask = cap - 1 in
    let i = ref (home k mask) in
    while
      let x = Array.unsafe_get keys !i in
      x <> k && x <> empty
    do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get keys !i = k then !i else -1
  end

(* Empty slot [i], then close the gap: walk the probe run after it and
   move back every entry whose home does not lie cyclically in
   (hole, j] — the ones the hole would otherwise cut off. *)
let delete t i =
  let keys = t.keys and expires = t.expires and values = t.values in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) <> empty do
    let k = keys.(!j) in
    let h = home k mask in
    let reachable =
      if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j
    in
    if not reachable then begin
      keys.(!hole) <- k;
      expires.(!hole) <- expires.(!j);
      values.(!hole) <- values.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- empty;
  values.(!hole) <- values.(mask + 1);
  t.size <- t.size - 1

(* Delete every dead entry.  A deletion only moves entries into the
   slot it vacated or later, so re-examining the current slot until it
   holds a live entry or nothing visits every entry. *)
let purge t =
  t.inserts <- 0;
  let cutoff = now t in
  for i = 0 to Array.length t.keys - 1 do
    while t.keys.(i) <> empty && t.expires.(i) <= cutoff do
      delete t i
    done
  done

(* Place [k] (known absent) without any load check. *)
let place t k ~expires v =
  t.inserts <- t.inserts + 1;
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home k mask) in
  while keys.(!i) <> empty do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- k;
  t.expires.(!i) <- expires;
  t.values.(!i) <- v;
  t.size <- t.size + 1

(* Make room for one more entry: purge every quarter-table of inserts
   (or sooner, at three-quarters load), and double the arrays when the
   survivors fill more than half. *)
let reserve t v =
  let cap = Array.length t.keys in
  if cap = 0 then begin
    t.keys <- Array.make initial_capacity empty;
    t.expires <- Array.make initial_capacity 0;
    t.values <- Array.make (initial_capacity + 1) v
  end
  else if 4 * t.inserts >= cap || 4 * (t.size + 1) > 3 * cap then begin
    purge t;
    if 2 * (t.size + 1) > cap then begin
      let keys = t.keys and expires = t.expires and values = t.values in
      t.keys <- Array.make (2 * cap) empty;
      t.expires <- Array.make (2 * cap) 0;
      t.values <- Array.make ((2 * cap) + 1) v;
      t.size <- 0;
      for i = 0 to cap - 1 do
        if keys.(i) <> empty then
          place t keys.(i) ~expires:expires.(i) values.(i)
      done;
      t.inserts <- 0
    end
  end

(* Slot of the live entry for the key, or -1; a dead one met on the way
   is deleted. *)
let live_slot t ~origin ~rreq_id =
  let i = slot t (key ~origin ~rreq_id) in
  if i < 0 then -1
  else if t.expires.(i) > now t then i
  else begin
    delete t i;
    -1
  end

let find t ~origin ~rreq_id =
  let i = live_slot t ~origin ~rreq_id in
  if i < 0 then None else Some t.values.(i)

let mem t ~origin ~rreq_id = live_slot t ~origin ~rreq_id >= 0

let add t ~origin ~rreq_id value =
  let k = key ~origin ~rreq_id in
  let expires = now t + (t.ttl :> int) in
  let i = slot t k in
  if i >= 0 then begin
    t.values.(i) <- value;
    t.expires.(i) <- expires
  end
  else begin
    reserve t value;
    place t k ~expires value
  end

let remove t ~origin ~rreq_id =
  let i = slot t (key ~origin ~rreq_id) in
  if i >= 0 then delete t i

let clear t =
  t.keys <- [||];
  t.expires <- [||];
  t.values <- [||];
  t.size <- 0;
  t.inserts <- 0

let length t =
  purge t;
  t.size
