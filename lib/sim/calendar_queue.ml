(* Calendar queue (Brown, CACM '88) with an ordered far tier.  Pending
   events near the front live on a wheel of [nbuckets] buckets, each
   covering a [width]-wide slice of time, [width] a power of two.  The
   wheel rolls: bucket [s land mask] holds the events of absolute slot
   [s = time lsr shift] for the [nbuckets] slots from [cur], the window
   whose last instant is [horizon].  Events due after [horizon] wait in
   a binary min-heap on time and migrate onto the wheel once, when the
   window reaches them.  Schedule and cancel of a wheel event are O(1);
   pop scans forward from [cur] and min-scans the first non-empty
   bucket, which is O(1) while the width matches the spacing of the
   events at the front — the retune below keeps it there.

   Event slots are pooled in parallel arrays and addressed by int
   handles packing (generation, index).  Freed slots bump their
   generation, so a stale cancel — after the event fired, or after the
   slot was recycled — is detected and ignored, preserving the
   "cancel after fire is a no-op" contract without tombstones.  The
   per-slot callback is stored as an untyped (fn, arg) pair so the hot
   schedulers need not allocate a closure per event; [schedule] wraps a
   [unit -> unit] for callers that do not care. *)

(* 22 bits of slot index leaves 40 generation bits on 63-bit ints; the
   pool asserts it never outgrows the index space (4M concurrent
   events — two orders of magnitude above the paper-scale workloads). *)
let idx_bits = 22
let idx_mask = (1 lsl idx_bits) - 1
let max_slots = 1 lsl idx_bits
let no_slot = -1

(* [wheres.(i)]: bucket index while the slot is on the wheel, [w_free]
   while it is free, and [-2 - p] while it sits at position [p] of the
   far heap. *)
let w_free = -1

let dummy_fn : Obj.t -> unit = fun _ -> ()
let unit_arg = Obj.repr 0

type t = {
  (* Slot pool: parallel arrays, one entry per event.  [nexts]/[prevs]
     doubly link slots within a bucket (and thread the free list through
     [nexts]); keeping links as plain ints avoids both allocation and
     GC write barriers on the hot path. *)
  mutable times : int array;  (* (Time.t :> int) *)
  mutable seqs : int array;  (* global schedule order; FIFO tie-break *)
  mutable gens : int array;  (* bumped on free; start at 1 *)
  mutable fns : (Obj.t -> unit) array;
  mutable args : Obj.t array;
  mutable nexts : int array;
  mutable prevs : int array;
  mutable wheres : int array;
  mutable free_head : int;
  (* Wheel.  Buckets past [mask] stay empty, so a retune can shrink or
     regrow the wheel within the arrays without clearing them. *)
  mutable buckets : int array;  (* head slot per bucket, or no_slot *)
  mutable btails : int array;
  mutable mask : int;  (* nbuckets - 1 *)
  mutable shift : int;  (* width = 1 lsl shift ns *)
  mutable cur : int;  (* no wheel event sits in a slot below this *)
  mutable horizon : int;  (* last instant of the window *)
  mutable near : int;  (* events on the wheel *)
  (* Far tier: binary min-heap of slots keyed on time. *)
  mutable far : int array;
  mutable far_size : int;
  mutable live : int;
  mutable next_seq : int;
  (* Staged pop: [pop_staged] unlinks the due event and parks its slot
     index here; [staged_time]/[run_staged] read the slot in place, so
     a pop allocates nothing and — the slot index being an immediate
     int — writes through no GC barrier. *)
  mutable staged_slot : int;
  mutable examined : int;  (* bucket entries examined by every pop *)
  mutable pops : int;
  (* Pop cost beyond [cost_bound] per pop, summed since it last fell
     to zero. *)
  mutable excess : int;
  front : int array;  (* retune workspace: the earliest live times *)
}

let min_buckets = 64

(* Pop cost is counted in empty buckets skipped — one load and compare
   each in the scan loop — and an entry examined, a dependent load
   through the bucket chain plus a (time, seq) comparison, weighs
   [entry_cost] of them.  Pops may cost [cost_bound] each; a retune is
   due once the cost beyond that adds up to the wheel size in entries,
   the order of a retune's own cost. *)
let entry_cost = 4
let cost_bound = 6 * entry_cost

(* A retune sets the width to the mean spacing of the [front_k]
   earliest live events, rounded down to a power of two, and sizes the
   wheel to at least twice the live count. *)
let front_k = 8

let create () =
  let cap = 256 in
  let nexts = Array.init cap (fun i -> if i = cap - 1 then no_slot else i + 1) in
  {
    times = Array.make cap 0;
    seqs = Array.make cap (-1);
    gens = Array.make cap 1;
    fns = Array.make cap dummy_fn;
    args = Array.make cap unit_arg;
    nexts;
    prevs = Array.make cap no_slot;
    wheres = Array.make cap w_free;
    free_head = 0;
    buckets = Array.make min_buckets no_slot;
    btails = Array.make min_buckets no_slot;
    mask = min_buckets - 1;
    shift = 20 (* ~1 ms until the first retune *);
    cur = 0;
    horizon = (min_buckets lsl 20) - 1;
    near = 0;
    far = Array.make 16 no_slot;
    far_size = 0;
    live = 0;
    next_seq = 0;
    staged_slot = no_slot;
    examined = 0;
    pops = 0;
    excess = 0;
    front = Array.make front_k 0;
  }

let live_count t = t.live
let near_count t = t.near
let is_empty t = t.live = 0
let capacity t = Array.length t.times
let num_buckets t = t.mask + 1
let entries_examined t = t.examined
let pops t = t.pops
let handle_of t i = (t.gens.(i) lsl idx_bits) lor i

(* ---- Slot pool --------------------------------------------------------- *)

let grow_pool t =
  let old = Array.length t.times in
  let cap = 2 * old in
  if cap > max_slots then failwith "Calendar_queue: event pool exhausted";
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 old;
    a'
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs (-1);
  t.gens <- extend t.gens 1;
  t.fns <- extend t.fns dummy_fn;
  t.args <- extend t.args unit_arg;
  t.nexts <- extend t.nexts no_slot;
  t.prevs <- extend t.prevs no_slot;
  t.wheres <- extend t.wheres w_free;
  for i = old to cap - 1 do
    t.nexts.(i) <- (if i = cap - 1 then t.free_head else i + 1)
  done;
  t.free_head <- old

let alloc_slot t =
  if t.free_head = no_slot then grow_pool t;
  let i = t.free_head in
  t.free_head <- t.nexts.(i);
  i

(* Bumping the generation invalidates every outstanding handle to this
   slot.  The stale fn/arg refs are deliberately left in place: clearing
   them would cost two GC write barriers per fired or cancelled event,
   and the free list is LIFO so a freed slot is the next one reused —
   at most [capacity] dead (fn, arg) pairs are ever retained, the same
   bounded-staleness trade [Ifq] makes. *)
let free_slot t i =
  t.gens.(i) <- t.gens.(i) + 1;
  t.wheres.(i) <- w_free;
  t.nexts.(i) <- t.free_head;
  t.prevs.(i) <- no_slot;
  t.free_head <- i;
  t.live <- t.live - 1

(* ---- Bucket lists ------------------------------------------------------ *)

(* Buckets are unsorted doubly-linked lists: insert is an O(1) tail
   append and cancel an O(1) unlink.  Ordering is resolved at pop time
   by a min-scan of the first non-empty bucket — each event's (time,
   seq) key is unique, so the scan is deterministic whatever order the
   list is in.  This trades a per-pop scan for free inserts, which pays
   off because most scheduled events (MAC ack/access timers, protocol
   retransmits) are cancelled before they fire and never get popped at
   all. *)
let bucket_insert t i =
  let b = (t.times.(i) lsr t.shift) land t.mask in
  t.wheres.(i) <- b;
  let tl = t.btails.(b) in
  t.prevs.(i) <- tl;
  t.nexts.(i) <- no_slot;
  if tl = no_slot then t.buckets.(b) <- i else t.nexts.(tl) <- i;
  t.btails.(b) <- i;
  t.near <- t.near + 1

let bucket_remove t b i =
  let p = t.prevs.(i) and n = t.nexts.(i) in
  if p = no_slot then t.buckets.(b) <- n else t.nexts.(p) <- n;
  if n = no_slot then t.btails.(b) <- p else t.prevs.(n) <- p;
  t.near <- t.near - 1

(* ---- Far tier ---------------------------------------------------------- *)

(* Keyed on time alone: the heap only decides when an event enters the
   window, and the bucket min-scan orders ties. *)
let far_set t p i =
  t.far.(p) <- i;
  t.wheres.(i) <- -2 - p

let rec sift_up t p i tm =
  let q = (p - 1) / 2 in
  if p > 0 && t.times.(t.far.(q)) > tm then begin
    far_set t p t.far.(q);
    sift_up t q i tm
  end
  else far_set t p i

let rec sift_down t p i tm =
  let l = (2 * p) + 1 in
  if l >= t.far_size then far_set t p i
  else begin
    let c =
      if l + 1 < t.far_size && t.times.(t.far.(l + 1)) < t.times.(t.far.(l))
      then l + 1
      else l
    in
    let j = t.far.(c) in
    if t.times.(j) < tm then begin
      far_set t p j;
      sift_down t c i tm
    end
    else far_set t p i
  end

let far_push t i =
  let p = t.far_size in
  if p = Array.length t.far then begin
    let far' = Array.make (2 * p) no_slot in
    Array.blit t.far 0 far' 0 p;
    t.far <- far'
  end;
  t.far_size <- p + 1;
  sift_up t p i t.times.(i)

let far_remove t p =
  let n = t.far_size - 1 in
  t.far_size <- n;
  if p < n then begin
    let last = t.far.(n) in
    let tm = t.times.(last) in
    if p > 0 && t.times.(t.far.((p - 1) / 2)) > tm then sift_up t p last tm
    else sift_down t p last tm
  end

(* Move every far event the window now covers onto the wheel. *)
let migrate t =
  while t.far_size > 0 && t.times.(t.far.(0)) <= t.horizon do
    let i = t.far.(0) in
    far_remove t 0;
    bucket_insert t i
  done

let place t i =
  if t.times.(i) <= t.horizon then bucket_insert t i else far_push t i

(* Start the window at slot [c].  [horizon] saturates: when the window
   would end past [max_int], every representable time lies inside it. *)
let set_window t c =
  t.cur <- c;
  let nb = t.mask + 1 in
  t.horizon <-
    (if c + nb > max_int lsr t.shift then max_int
     else ((c + nb) lsl t.shift) - 1)

(* ---- Retune ------------------------------------------------------------ *)

let rec log2_floor x = if x <= 1 then 0 else 1 + log2_floor (x lsr 1)

(* Keep the [front_k] smallest times seen in [front.(0 .. nf-1)],
   ascending; returns the new count. *)
let note_front t nf tm =
  let f = t.front in
  if nf < front_k || tm < f.(front_k - 1) then begin
    let j = ref (Int.min nf (front_k - 1)) in
    while !j > 0 && f.(!j - 1) > tm do
      f.(!j) <- f.(!j - 1);
      decr j
    done;
    f.(!j) <- tm;
    Int.min (nf + 1) front_k
  end
  else nf

(* Re-lay the wheel from the events at the front: unlink every wheel
   event into one chain, size the wheel to twice the live count, set the
   width from the earliest [front_k] live events, anchor the window at
   the earliest of them (or at [anchor], if earlier) and reinsert.  Far
   events stay in the heap unless the new window reaches them.
   O(nbuckets + near); allocates only when the wheel grows past every
   earlier size. *)
let retune t anchor =
  let chain = ref no_slot and nf = ref 0 in
  for b = 0 to t.mask do
    let h = t.buckets.(b) in
    if h <> no_slot then begin
      let i = ref h in
      while !i <> no_slot do
        nf := note_front t !nf t.times.(!i);
        i := t.nexts.(!i)
      done;
      t.nexts.(t.btails.(b)) <- !chain;
      chain := h;
      t.buckets.(b) <- no_slot;
      t.btails.(b) <- no_slot
    end
  done;
  if t.far_size > 0 then nf := note_front t !nf t.times.(t.far.(0));
  let nf = !nf in
  let nb = ref min_buckets in
  while !nb < 2 * t.live do nb := 2 * !nb done;
  let nb = !nb in
  if nb > Array.length t.buckets then begin
    t.buckets <- Array.make nb no_slot;
    t.btails <- Array.make nb no_slot
  end;
  t.mask <- nb - 1;
  if nf >= 2 && t.front.(nf - 1) > t.front.(0) then
    t.shift <- log2_floor ((t.front.(nf - 1) - t.front.(0)) / (nf - 1));
  let lo = if nf > 0 then Int.min anchor t.front.(0) else anchor in
  set_window t (lo lsr t.shift);
  t.near <- 0;
  let i = ref !chain in
  while !i <> no_slot do
    let next = t.nexts.(!i) in
    place t !i;
    i := next
  done;
  migrate t

(* ---- Schedule / cancel ------------------------------------------------- *)

let schedule_raw t (time : Time.t) fn arg =
  let tm = (time :> int) in
  let i = alloc_slot t in
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  t.times.(i) <- tm;
  t.seqs.(i) <- sq;
  t.fns.(i) <- fn;
  t.args.(i) <- arg;
  t.live <- t.live + 1;
  (* Before the window (possible after a bounded run parked the queue
     and a caller scheduled relative to an earlier clock, never in the
     engine's own stepping): an empty wheel just rolls back, since
     moving [horizon] down keeps every far event beyond it; otherwise
     re-lay the wheel from this instant. *)
  if tm lsr t.shift < t.cur then
    if t.near = 0 then set_window t (tm lsr t.shift) else retune t tm;
  place t i;
  handle_of t i

let schedule t time (f : unit -> unit) =
  schedule_raw t time (Obj.magic f : Obj.t -> unit) unit_arg

(* Physical cancellation: unlink and recycle the slot now, rather than
   leaving a tombstone to surface at pop time — O(1) on the wheel,
   O(log far) in the heap.  The generation check makes a handle to a
   fired/cancelled/recycled event a no-op. *)
let cancel t h =
  let i = h land idx_mask in
  let g = h lsr idx_bits in
  if g > 0 && i < Array.length t.gens && t.gens.(i) = g then begin
    let w = t.wheres.(i) in
    if w >= 0 then begin
      bucket_remove t w i;
      free_slot t i
    end
    else if w < w_free then begin
      far_remove t (-2 - w);
      free_slot t i
    end
  end

(* ---- Pop --------------------------------------------------------------- *)

(* Earliest live slot, or [no_slot].  The window holds one slot per
   bucket and every far event lies beyond it, so the minimum of the
   first non-empty bucket from [cur] is the global minimum.  Buckets are
   unsorted, so that minimum is found by a scan over the bucket's list,
   keyed on (time, seq).  Each bucket the scan steps past rolls the
   window on by one slot, which may bring far events in; an empty wheel
   jumps the window straight to the far minimum. *)
let rec find_min t =
  if t.near = 0 then
    if t.far_size = 0 then no_slot
    else begin
      set_window t (t.times.(t.far.(0)) lsr t.shift);
      migrate t;
      find_min t
    end
  else begin
    let c = ref t.cur in
    while t.buckets.(!c land t.mask) = no_slot do incr c done;
    let skipped = !c - t.cur in
    if skipped > 0 then begin
      (* Far events brought in land beyond the old window, so after the
         bucket just found. *)
      set_window t !c;
      migrate t
    end;
    let best = ref t.buckets.(t.cur land t.mask) in
    let bt = ref t.times.(!best) and bs = ref t.seqs.(!best) in
    let i = ref t.nexts.(!best) and n = ref 1 in
    while !i <> no_slot do
      let ti = t.times.(!i) in
      if ti < !bt || (ti = !bt && t.seqs.(!i) < !bs) then begin
        best := !i;
        bt := ti;
        bs := t.seqs.(!i)
      end;
      incr n;
      i := t.nexts.(!i)
    done;
    t.examined <- t.examined + !n;
    t.excess <-
      Int.max 0 (t.excess + skipped + (entry_cost * !n) - cost_bound);
    !best
  end

(* The retune check runs after the due event is unlinked, anchored at
   its time — the clock it is about to set — so every later schedule
   lands at or after [cur]. *)
let pop_staged t limit =
  let i = find_min t in
  if i = no_slot then false
  else if t.times.(i) > limit then false
  else begin
    bucket_remove t t.wheres.(i) i;
    t.staged_slot <- i;
    t.pops <- t.pops + 1;
    if t.excess > entry_cost * t.mask then begin
      t.excess <- 0;
      retune t t.times.(i)
    end;
    true
  end

let staged_time t = Time.unsafe_of_ns t.times.(t.staged_slot)
let staged_slot t = t.staged_slot

(* Free before invoking: the callback may reschedule and is entitled to
   reuse the slot it just vacated. *)
let run_staged t =
  let i = t.staged_slot in
  let fn = t.fns.(i) and arg = t.args.(i) in
  free_slot t i;
  fn arg

let next_time_ns t =
  let i = find_min t in
  if i = no_slot then max_int else t.times.(i)

(* Exposed so [Engine.Trace] can unpack handles it records. *)
let handle_idx_bits = idx_bits
let handle_idx_mask = idx_mask
