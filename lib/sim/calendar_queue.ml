(* Calendar queue (Brown, CACM '88): pending events live in an array of
   buckets, each covering a [width]-wide slice of time; bucket [b] holds
   events in [base + b*width, base + (b+1)*width).  The whole calendar
   spans one "year" [nbuckets * width]; events due beyond the current
   year wait in an unordered overflow tier and migrate into the calendar
   when it is rebuilt.  Schedule and cancel are O(1); pop scans forward
   from the bucket of the last popped event, which is O(1) amortized
   when the bucket width tracks the mean inter-event gap — the resize
   policy below keeps it there.

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

(* [wheres.(i)]: bucket index when the slot is linked into the calendar,
   or one of these sentinels. *)
let w_free = -2
let w_overflow = -3

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
  (* Calendar proper. *)
  mutable buckets : int array;  (* head slot per bucket, or no_slot *)
  mutable btails : int array;
  mutable width : int;  (* ns per bucket *)
  mutable cal_base : int;  (* time at the start of bucket 0 *)
  mutable cur_bucket : int;  (* min live event is at or after this bucket *)
  mutable cal_count : int;
  (* Overflow tier: unordered array of slots due beyond the current
     year.  [ov_seqs] snapshots each slot's seq so entries whose slot
     was cancelled (and possibly recycled) are recognised as stale when
     the tier is collected. *)
  mutable ov_slots : int array;
  mutable ov_seqs : int array;
  mutable ov_size : int;
  mutable ov_live : int;
  mutable live : int;
  mutable next_seq : int;
  (* Staged pop: [pop_staged] unlinks the due event and parks its slot
     index here; [staged_time]/[run_staged] read the slot in place, so
     a pop allocates nothing and — the slot index being an immediate
     int — writes through no GC barrier. *)
  mutable staged_slot : int;
  mutable scratch : int array;  (* rebuild workspace *)
}

let init_buckets = 64
let min_buckets = 64

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
    buckets = Array.make init_buckets no_slot;
    btails = Array.make init_buckets no_slot;
    width = 1_000_000 (* 1 ms; retuned at the first resize *);
    cal_base = 0;
    cur_bucket = 0;
    cal_count = 0;
    ov_slots = Array.make 16 no_slot;
    ov_seqs = Array.make 16 (-1);
    ov_size = 0;
    ov_live = 0;
    live = 0;
    next_seq = 0;
    staged_slot = no_slot;
    scratch = [||];
  }

let live_count t = t.live
let is_empty t = t.live = 0
let capacity t = Array.length t.times
let num_buckets t = Array.length t.buckets
let bucket_width t = t.width
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
let bucket_insert t b i =
  t.wheres.(i) <- b;
  let tl = t.btails.(b) in
  t.prevs.(i) <- tl;
  t.nexts.(i) <- no_slot;
  if tl = no_slot then t.buckets.(b) <- i else t.nexts.(tl) <- i;
  t.btails.(b) <- i;
  t.cal_count <- t.cal_count + 1

let bucket_remove t b i =
  let p = t.prevs.(i) and n = t.nexts.(i) in
  if p = no_slot then t.buckets.(b) <- n else t.nexts.(p) <- n;
  if n = no_slot then t.btails.(b) <- p else t.prevs.(n) <- p;
  t.cal_count <- t.cal_count - 1

(* ---- Overflow tier ----------------------------------------------------- *)

let ov_push t i =
  if t.ov_size = Array.length t.ov_slots then begin
    let cap = 2 * t.ov_size in
    let slots' = Array.make cap no_slot and seqs' = Array.make cap (-1) in
    Array.blit t.ov_slots 0 slots' 0 t.ov_size;
    Array.blit t.ov_seqs 0 seqs' 0 t.ov_size;
    t.ov_slots <- slots';
    t.ov_seqs <- seqs'
  end;
  t.ov_slots.(t.ov_size) <- i;
  t.ov_seqs.(t.ov_size) <- t.seqs.(i);
  t.ov_size <- t.ov_size + 1;
  t.wheres.(i) <- w_overflow

(* An overflow entry is live iff its slot still holds the same event:
   still marked overflow and the seq matches (a recycled slot gets a
   fresh, globally unique seq). *)
let ov_entry_live t k =
  let s = t.ov_slots.(k) in
  t.wheres.(s) = w_overflow && t.seqs.(s) = t.ov_seqs.(k)

(* ---- Resize / rebase --------------------------------------------------- *)

(* Cap the year below 2^60 ns so [cal_base + year] cannot overflow. *)
let max_width nbuckets = (1 lsl 60) / nbuckets

(* Pick a bucket width from the live events: sample up to 64 times,
   take the median non-zero inter-sample gap, and cover ~3 events per
   bucket.  The median is robust against the far-future outliers
   (flow restarts, long protocol timers) that skew a mean gap. *)
let choose_width t n =
  if n < 3 then t.width
  else begin
    let k = Stdlib.min 64 n in
    let sample = Array.init k (fun j -> t.times.(t.scratch.(j * n / k))) in
    Array.sort (fun (a : int) b -> Stdlib.compare a b) sample;
    let gaps = Array.init (k - 1) (fun j -> sample.(j + 1) - sample.(j)) in
    Array.sort (fun (a : int) b -> Stdlib.compare a b) gaps;
    let nz = ref 0 in
    while !nz < k - 1 && gaps.(!nz) = 0 do incr nz done;
    if !nz = k - 1 then t.width (* all samples coincide *)
    else
      let med = gaps.(!nz + ((k - 1 - !nz) / 2)) in
      Stdlib.max 1 med
  end

(* Snapshot resize: collect every live slot (buckets and overflow,
   skipping stale overflow entries), retune the width, and reinsert
   against a new base.  Also serves as the rebase when the calendar
   drains into the overflow tier, and as the below-base rescue when a
   bounded [run] left the clock behind a later event.  O(live), and
   rare by construction. *)
let rebuild t ?(base = max_int) ~nbuckets () =
  if Array.length t.scratch < t.live then
    t.scratch <- Array.make (Stdlib.max 64 (2 * t.live)) 0;
  let n = ref 0 in
  let min_time = ref base in
  let nb = Array.length t.buckets in
  for b = 0 to nb - 1 do
    let i = ref t.buckets.(b) in
    while !i <> no_slot do
      t.scratch.(!n) <- !i;
      incr n;
      if t.times.(!i) < !min_time then min_time := t.times.(!i);
      i := t.nexts.(!i)
    done
  done;
  for k = 0 to t.ov_size - 1 do
    if ov_entry_live t k then begin
      let s = t.ov_slots.(k) in
      t.scratch.(!n) <- s;
      incr n;
      if t.times.(s) < !min_time then min_time := t.times.(s)
    end
  done;
  t.ov_size <- 0;
  t.ov_live <- 0;
  t.cal_count <- 0;
  let n = !n in
  if nbuckets <> nb then begin
    t.buckets <- Array.make nbuckets no_slot;
    t.btails <- Array.make nbuckets no_slot
  end
  else begin
    Array.fill t.buckets 0 nb no_slot;
    Array.fill t.btails 0 nb no_slot
  end;
  t.width <- Stdlib.min (choose_width t n) (max_width nbuckets);
  t.cal_base <- (if n = 0 then 0 else !min_time);
  t.cur_bucket <- 0;
  let year = t.width * nbuckets in
  for j = 0 to n - 1 do
    let i = t.scratch.(j) in
    let off = t.times.(i) - t.cal_base in
    if off >= year then begin
      ov_push t i;
      t.ov_live <- t.ov_live + 1
    end
    else bucket_insert t (off / t.width) i
  done

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
  if t.live = 0 then begin
    (* Empty queue: re-anchor the calendar at this event.  Any stale
       overflow entries are dead weight — drop them. *)
    t.cal_base <- tm;
    t.cur_bucket <- 0;
    t.ov_size <- 0
  end
  else if tm < t.cal_base then
    (* Below the calendar's base (possible after a bounded run parked
       the queue and a caller scheduled relative to an earlier clock).
       Re-anchor so the bucket index stays non-negative. *)
    rebuild t ~base:tm ~nbuckets:(Array.length t.buckets) ();
  t.live <- t.live + 1;
  let nb = Array.length t.buckets in
  let off = tm - t.cal_base in
  if off >= t.width * nb then begin
    ov_push t i;
    t.ov_live <- t.ov_live + 1
  end
  else begin
    let b = off / t.width in
    bucket_insert t b i;
    (* Keep the pop scan's invariant — no live event below
       [cur_bucket] — even for callers that schedule before the current
       minimum (the engine never does, but the queue does not rely on
       that). *)
    if b < t.cur_bucket then t.cur_bucket <- b
  end;
  if t.cal_count > 2 * nb then rebuild t ~nbuckets:(2 * nb) ();
  handle_of t i

let schedule t time (f : unit -> unit) =
  schedule_raw t time (Obj.magic f : Obj.t -> unit) unit_arg

(* O(1) physical cancellation: unlink and recycle the slot now, rather
   than leaving a tombstone to surface at pop time.  The generation
   check makes a handle to a fired/cancelled/recycled event a no-op. *)
let cancel t h =
  let i = h land idx_mask in
  let g = h lsr idx_bits in
  if g > 0 && i < Array.length t.gens && t.gens.(i) = g then begin
    let w = t.wheres.(i) in
    if w >= 0 then begin
      bucket_remove t w i;
      free_slot t i
    end
    else if w = w_overflow then begin
      (* The overflow array entry goes stale and is skipped at the next
         rebuild; the slot itself is recycled immediately. *)
      t.ov_live <- t.ov_live - 1;
      free_slot t i
    end
  end

(* ---- Pop --------------------------------------------------------------- *)

(* Earliest live slot, or [no_slot].  Every bucketed event sorts before
   every overflow event (overflow means "beyond the current year"), and
   buckets partition a single year in increasing time order with no
   wrap-around — so the minimum of the first non-empty bucket is the
   global minimum.  Buckets are unsorted, so that minimum is found by a
   scan over the bucket's list, keyed on (time, seq).  When the
   calendar has drained but overflow events remain, rebuild: that
   re-anchors the year at the overflow minimum and migrates it into a
   bucket. *)
let rec find_min t =
  if t.live = 0 then no_slot
  else if t.cal_count > 0 then begin
    let nb = Array.length t.buckets in
    let b = ref t.cur_bucket in
    while !b < nb && t.buckets.(!b) = no_slot do incr b done;
    if !b = nb then b := 0;
    while t.buckets.(!b) = no_slot do incr b done;
    t.cur_bucket <- !b;
    let best = ref t.buckets.(!b) in
    let bt = ref t.times.(!best) and bs = ref t.seqs.(!best) in
    let i = ref t.nexts.(!best) in
    while !i <> no_slot do
      let ti = t.times.(!i) in
      if ti < !bt || (ti = !bt && t.seqs.(!i) < !bs) then begin
        best := !i;
        bt := ti;
        bs := t.seqs.(!i)
      end;
      i := t.nexts.(!i)
    done;
    !best
  end
  else begin
    rebuild t ~nbuckets:(Array.length t.buckets) ();
    find_min t
  end

let pop_staged t limit =
  let i = find_min t in
  if i = no_slot then false
  else if t.times.(i) > limit then false
  else begin
    bucket_remove t t.wheres.(i) i;
    t.staged_slot <- i;
    (* The staged slot is unlinked but not yet freed, so a shrink
       rebuild here never sees it: [rebuild] collects only linked
       slots. *)
    let nb = Array.length t.buckets in
    if nb > min_buckets && t.cal_count < nb / 2 then
      rebuild t ~nbuckets:(nb / 2) ();
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
