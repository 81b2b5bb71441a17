(* Incremental uniform-cell membership index over a fixed arena.

   Membership is maintained incrementally — [update] moves a node
   between cells only when its cell actually changed, which on a
   position refresh sweep is O(changed) instead of an O(n) rebuild.  It stores
   no coordinates: the owner walks the cells overlapping a query disk's
   bounding box itself, visiting a superset of the true disk population,
   and filters against live positions (Net.Channel does exactly that, so
   any candidate superset yields identical outcomes).  Queries are
   int-only so that no float crosses into this module per query: under
   the dev profile's [-opaque] every float argument of a cross-module
   call is boxed.

   Per-cell member lists are growable int arrays with swap-removal;
   [cell_of]/[slot_of] back-pointers make update and removal O(1). *)

type t = {
  cell : float;
  cols : int;
  rows : int;
  items : int array array; (* per-cell member ids *)
  len : int array; (* per-cell live count *)
  cell_of : int array; (* id -> cell, -1 when absent *)
  slot_of : int array; (* id -> slot in items.(cell_of id) *)
  mutable population : int;
}

let create ~cell ~width ~height ~ids =
  if not (cell > 0.) then
    invalid_arg "Cell_index.create: cell size must be positive";
  if width <= 0. || height <= 0. then
    invalid_arg "Cell_index.create: non-positive arena";
  let cols = int_of_float (Float.floor (width /. cell)) + 1 in
  let rows = int_of_float (Float.floor (height /. cell)) + 1 in
  {
    cell;
    cols;
    rows;
    items = Array.make (cols * rows) [||];
    len = Array.make (cols * rows) 0;
    cell_of = Array.make ids (-1);
    slot_of = Array.make ids 0;
    population = 0;
  }

let population t = t.population

let clamp_i v lo hi = if v < lo then lo else if v > hi then hi else v

(* Positions outside the arena (float dust from clamped mobility) land in
   the nearest border cell; queries are filtered by the owner anyway. *)
let cell_at t x y =
  let cx = clamp_i (int_of_float (Float.floor (x /. t.cell))) 0 (t.cols - 1) in
  let cy = clamp_i (int_of_float (Float.floor (y /. t.cell))) 0 (t.rows - 1) in
  (cy * t.cols) + cx

let push t c i =
  let arr = t.items.(c) in
  let n = t.len.(c) in
  let arr =
    if Array.length arr > n then arr
    else begin
      let bigger = Array.make (if n = 0 then 8 else 2 * n) (-1) in
      Array.blit arr 0 bigger 0 n;
      t.items.(c) <- bigger;
      bigger
    end
  in
  arr.(n) <- i;
  t.len.(c) <- n + 1;
  t.cell_of.(i) <- c;
  t.slot_of.(i) <- n

let remove t i =
  let c = t.cell_of.(i) in
  if c >= 0 then begin
    let arr = t.items.(c) in
    let n = t.len.(c) - 1 in
    let s = t.slot_of.(i) in
    let last = arr.(n) in
    arr.(s) <- last;
    t.slot_of.(last) <- s;
    t.len.(c) <- n;
    t.cell_of.(i) <- -1;
    t.population <- t.population - 1
  end

let update t i ~x ~y =
  let c = cell_at t x y in
  let old = t.cell_of.(i) in
  if c <> old then begin
    if old >= 0 then begin
      (* inline removal that keeps the population count *)
      let arr = t.items.(old) in
      let n = t.len.(old) - 1 in
      let s = t.slot_of.(i) in
      let last = arr.(n) in
      arr.(s) <- last;
      t.slot_of.(last) <- s;
      t.len.(old) <- n
    end
    else t.population <- t.population + 1;
    push t c i
  end

let mem t i = t.cell_of.(i) >= 0

let cols t = t.cols
let rows t = t.rows
let members t c = t.items.(c)
let count t c = t.len.(c)

type stats = { cells : int; occupied : int; max_occupancy : int }

let stats t =
  let occupied = ref 0 and max_occ = ref 0 in
  for c = 0 to (t.cols * t.rows) - 1 do
    let k = t.len.(c) in
    if k > 0 then incr occupied;
    if k > !max_occ then max_occ := k
  done;
  { cells = t.cols * t.rows; occupied = !occupied; max_occupancy = !max_occ }
