open Sim
open Packets

(* Link geometry of one reception.  All-float, so OCaml stores the
   fields flat and writing them never boxes. *)
type geo = {
  mutable dist : float;
      (** receiver-to-transmitter distance, for capture (transiently
          holds the squared distance between candidate collection and
          the delivery pass) *)
  mutable gain : float;
      (** shadowing range factor of this link; exactly [1.] without a
          link model, in which case the delivery pass is bit-identical
          to the plain unit disk *)
}

(* Per-receiver reception state.  Records are pooled inside [tx_job]s
   and reused across transmissions; a transmission writes only their
   ints, floats and flags, so touching a radio costs no write barrier
   and allocates nothing.  [rx_id] is the record's index in the
   channel's [rx_all], by which a radio names the reception it is
   locked to. *)
type rx = {
  rx_id : int;
  geo : geo;
  mutable rx_seq : int;  (** attach seq of the radio receiving it *)
  mutable corrupted : bool;
  mutable locked : bool;  (** this arrival captured the receiver *)
}

type radio = {
  id : Node_id.t;
  seq : int;  (** attach order: the radio's index in [t.radios] *)
  idx : int;  (** store slot *)
  mutable attached : bool;
      (** false while the node is down (churn): the radio is out of the
          spatial index, so no transmission touches it *)
  mutable receive : Frame.t -> unit;
  mutable medium : bool -> unit;
  mutable contending : bool;
      (** [medium] hears carrier-sense edges only while this is set *)
  mutable busy_count : int;  (** in-range transmissions currently in the air *)
  mutable tx_count : int;  (** own transmissions in the air (0 or 1) *)
  mutable lock : int;  (** [rx_id] of the frame being decoded; -1 when none *)
  mutable nbrs : int array;
      (** neighbour list: attach seqs of the radios within [reach] of
          this one when it was built, descending; [0, nbr_n) are live *)
  mutable nbr_n : int;
  mutable nbr_at : Time.t;  (** when the list was built *)
  mutable nbr_epoch : int;  (** channel epoch it was built in; -1: never *)
}

let dummy_frame =
  { Frame.src = Node_id.of_int 0; dst = Frame.Broadcast; body = Frame.Ack }

let new_radio ~id ~seq ~idx =
  {
    id;
    seq;
    idx;
    attached = true;
    receive = ignore;
    medium = ignore;
    contending = true;
    busy_count = 0;
    tx_count = 0;
    lock = -1;
    nbrs = [||];
    nbr_n = 0;
    nbr_at = Time.zero;
    nbr_epoch = -1;
  }

(* Filler for unattached store slots and idle jobs, compared physically. *)
let dummy_radio =
  let r = new_radio ~id:(Node_id.of_int 0) ~seq:(-1) ~idx:(-1) in
  r.attached <- false;
  r

let no_rx =
  {
    rx_id = -1;
    geo = { dist = 0.; gain = 1. };
    rx_seq = -1;
    corrupted = true;
    locked = false;
  }

(* How far a radio's true position may drift from the cell it is indexed
   under before the index is resynced.  Queries are inflated by the
   current drift bound, so any margin is exact; smaller margins resync
   more often, larger ones scan more cells. *)
let slack_margin_m = 25.

(* Verlet skin of the neighbour lists: a list holds the radios within
   [cs_range * f_max + neighbour_margin_m] of its owner, and stays exact
   while neither end of a pair can have closed the margin, i.e. while
   [2 * max_speed * age <= neighbour_margin_m].  Smaller margins rebuild
   more often, larger ones scan more entries per transmission. *)
let neighbour_margin_m = 50.

(* One in-flight transmission: the source, the frame and the touched
   radios' receptions, alive from [transmit] to its end-of-transmission
   event.  Slot j of [job_rxs] over [0, job_n) is the j-th reception in
   delivery order.  Jobs are pooled on a free stack; the job itself is
   the argument of the closure-free end-of-tx event, so a transmission
   schedules without allocating. *)
type tx_job = {
  mutable job_src : radio;
  mutable job_frame : Frame.t;
  mutable job_rxs : rx array;
  mutable job_n : int;
  job_owner : t;
}

and t = {
  engine : Engine.t;
  params : Params.t;
  max_speed : float option;
      (* [Some v]: no radio moves faster than [v] m/s, so neighbour
         lists and indexed positions age at a known rate.  [None]:
         unknown speeds — lists are rebuilt and the index resynced
         whenever the clock has advanced, which is exact for any
         mobility. *)
  (* Positions come from the shared [Pos_store] planes (fetched once;
     the store never reallocates them) and cell membership is maintained
     incrementally (ids only; the exact filter reads live positions).
     The index holds exactly the attached radios and is read only to
     rebuild a neighbour list; lists may still name radios detached
     since, which collection skips.  [slots] maps a store slot back to
     its radio — [dummy_radio] until that slot attaches. *)
  store : Mobility.Pos_store.t;
  xs : float array;
  ys : float array;
  index : Geom.Cell_index.t;
  cell : float;  (* the index's cell side, for the query's cell box *)
  slots : radio array;
  mutable radios : radio array;  (* by seq; [0, next_seq) are live *)
  mutable next_seq : int;
  link : Link_model.t option;
      (* None on the classic unit disk — the collect fast path then
         skips every per-candidate gain/wall lookup *)
  reach : float;
      (* neighbour-list radius: the farthest any pair can touch
         ([cs_range * f_max]) plus [neighbour_margin_m] *)
  mutable epoch : int;
      (* bumped whenever a radio attaches or re-attaches: a list built
         in an earlier epoch may miss it *)
  mutable build : int array;  (* buffer for the list being rebuilt *)
  mutable index_at : Time.t;
  mutable index_fresh : bool;
  mutable hooks : (Node_id.t -> Frame.t -> unit) list;
  mutable tx_total : int;
  mutable job_pool : tx_job array;
  mutable job_free : int;  (* jobs [0, job_free) are free *)
  mutable rx_all : rx array;  (* every pooled rx, by [rx_id] *)
  mutable rx_count : int;
  obs : Obs.Bus.t;
}

let create ~engine ?max_speed ?obs ~store ~terrain ?link ~params () =
  (* Cell side = half the carrier-sense range: a CS-disk query scans
     ~25 cells, but the cells hug the disk, so the candidate superset
     is ~1.7x the true disk population (a full-range cell side gives
     9 coarse cells and a ~2.9x superset — more wasted exact distance
     checks per query). *)
  let cell = params.Params.cs_range_m /. 2. in
  let n = Mobility.Pos_store.length store in
  {
    engine;
    params;
    max_speed;
    store;
    xs = Mobility.Pos_store.xs store;
    ys = Mobility.Pos_store.ys store;
    index =
      Geom.Cell_index.create ~cell ~width:terrain.Geom.Terrain.width
        ~height:terrain.Geom.Terrain.height ~ids:n;
    cell;
    slots = Array.make n dummy_radio;
    radios = [||];
    next_seq = 0;
    link;
    reach =
      (params.cs_range_m
      *. match link with None -> 1. | Some l -> Link_model.f_max l)
      +. neighbour_margin_m;
    epoch = 0;
    build = [||];
    index_at = Time.zero;
    index_fresh = false;
    hooks = [];
    tx_total = 0;
    job_pool = [||];
    job_free = 0;
    rx_all = [||];
    rx_count = 0;
    obs = (match obs with Some b -> b | None -> Obs.Bus.create ());
  }

let params t = t.params
let obs t = t.obs

let frame_dst_int (f : Frame.t) =
  match f.dst with Frame.Broadcast -> -1 | Frame.Unicast d -> Node_id.to_int d

(* Double [a] (at least to [min]), filling new cells with [fill]. *)
let grow a ~min fill =
  let bigger = Array.make (Stdlib.max min (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let attach t ~slot ~id =
  let r = new_radio ~id ~seq:t.next_seq ~idx:slot in
  if t.next_seq = Array.length t.radios then
    t.radios <- grow t.radios ~min:8 dummy_radio;
  t.radios.(t.next_seq) <- r;
  t.next_seq <- t.next_seq + 1;
  t.slots.(slot) <- r;
  t.index_fresh <- false;
  t.epoch <- t.epoch + 1;
  r

let set_receiver r f = r.receive <- f
let set_medium_listener r f = r.medium <- f
let set_contending r v = r.contending <- v
let radio_id r = r.id
let transmitting r = r.tx_count > 0

let carrier_busy r = r.busy_count > 0 || r.tx_count > 0

let busy _t r = carrier_busy r

(* ---- Transmission-job pool --------------------------------------------- *)

let new_rx t =
  let rx =
    {
      rx_id = t.rx_count;
      geo = { dist = 0.; gain = 1. };
      rx_seq = -1;
      corrupted = false;
      locked = false;
    }
  in
  if t.rx_count = Array.length t.rx_all then
    t.rx_all <- grow t.rx_all ~min:64 no_rx;
  t.rx_all.(t.rx_count) <- rx;
  t.rx_count <- t.rx_count + 1;
  rx

let new_job owner =
  {
    job_src = dummy_radio;
    job_frame = dummy_frame;
    job_rxs = Array.init 8 (fun _ -> new_rx owner);
    job_n = 0;
    job_owner = owner;
  }

let alloc_job t =
  if t.job_free = 0 then begin
    let extra = Stdlib.max 4 (Array.length t.job_pool) in
    t.job_pool <-
      Array.append (Array.init extra (fun _ -> new_job t)) t.job_pool;
    t.job_free <- extra
  end;
  t.job_free <- t.job_free - 1;
  let job = t.job_pool.(t.job_free) in
  job.job_n <- 0;
  job

let free_job t job =
  t.job_pool.(t.job_free) <- job;
  t.job_free <- t.job_free + 1

let grow_job job =
  let n = Array.length job.job_rxs in
  job.job_rxs <-
    Array.append job.job_rxs (Array.init n (fun _ -> new_rx job.job_owner))

(* Append radio [r]'s reception to the delivery order and return its
   link geometry for the caller to fill in. *)
let job_add job r =
  let n = job.job_n in
  if n = Array.length job.job_rxs then grow_job job;
  job.job_n <- n + 1;
  let rx = Array.unsafe_get job.job_rxs n in
  rx.rx_seq <- r.seq;
  rx.corrupted <- false;
  rx.locked <- false;
  rx.geo

(* ---- Spatial index ----------------------------------------------------- *)

(* Resync: refresh every attached slot's store position in place (a
   scalar lerp unless the leg advanced) and move it between cells only
   when its cell changed — O(n) float work, no rebuild. *)
let sweep t =
  let now = Engine.now t.engine in
  for i = 0 to Array.length t.slots - 1 do
    if (Array.unsafe_get t.slots i).attached then begin
      Mobility.Pos_store.refresh t.store i now;
      Geom.Cell_index.update t.index i ~x:t.xs.(i) ~y:t.ys.(i)
    end
  done;
  t.index_at <- now;
  t.index_fresh <- true

(* Churn: a detached radio leaves the index immediately, and the
   neighbour lists that still name it skip it, so no later transmission
   touches it; frames already locked on it are discarded by the
   down-gated MAC.  Reattaching re-inserts it at its current position
   and opens a new epoch, so every list built without it is rebuilt
   before its next use. *)
let set_attached t r v =
  if r.attached <> v then begin
    r.attached <- v;
    if v then begin
      Mobility.Pos_store.refresh t.store r.idx (Engine.now t.engine);
      Geom.Cell_index.update t.index r.idx ~x:t.xs.(r.idx) ~y:t.ys.(r.idx);
      t.epoch <- t.epoch + 1
    end
    else Geom.Cell_index.remove t.index r.idx
  end

let attached r = r.attached

(* Spatial-index health gauges (Obs.Telemetry). *)
let index_stats t =
  let s = Geom.Cell_index.stats t.index in
  (s.Geom.Cell_index.cells, s.occupied, s.max_occupancy)

let add_transmit_hook t f = t.hooks <- t.hooks @ [ f ]
let transmissions t = t.tx_total

(* Allocated jobs live in [job_pool.(job_free..)]; each is one
   transmission still in the air. *)
let in_flight t = Array.length t.job_pool - t.job_free

(* Carrier-sense edges reach the listener only while the radio
   contends: the MAC clears [contending] outside its access phase, where
   it would ignore them. *)
let mark_busy r =
  let was = carrier_busy r in
  r.busy_count <- r.busy_count + 1;
  if (not was) && r.contending then r.medium true

let mark_idle r =
  r.busy_count <- r.busy_count - 1;
  assert (r.busy_count >= 0);
  if (not (carrier_busy r)) && r.contending then r.medium false

(* End of transmission: release the medium, deliver surviving locked
   frames in delivery order, and recycle the job.  Clearing the frame
   drops the job's reference into live simulation state between
   transmissions. *)
let end_of_tx job =
  let t = job.job_owner in
  let src = job.job_src in
  src.tx_count <- src.tx_count - 1;
  if (not (carrier_busy src)) && src.contending then src.medium false;
  let frame = job.job_frame in
  for j = 0 to job.job_n - 1 do
    let rx = Array.unsafe_get job.job_rxs j in
    let r = t.radios.(rx.rx_seq) in
    mark_idle r;
    if rx.locked then begin
      (* Only clear the lock if it is still ours (a corrupting overlap
         never replaces the lock, so it is). *)
      if r.lock = rx.rx_id then r.lock <- -1;
      (* Starting to transmit mid-reception also kills it. *)
      if (not rx.corrupted) && r.tx_count = 0 then r.receive frame
      else if Obs.Bus.on t.obs then
        (* A locked frame the radio would have decoded, lost to an
           overlapping transmission (or its own). *)
        Obs.Bus.collision t.obs
          ~time:(Engine.now t.engine)
          ~node:(Node_id.to_int r.id)
          ~cls:(Obs.Bus.intern t.obs (Frame.class_name frame))
          ~from:(Node_id.to_int frame.Frame.src)
    end
  done;
  job.job_src <- dummy_radio;
  job.job_frame <- dummy_frame;
  free_job t job

let clamp_cell v hi = if v < 0 then 0 else if v > hi then hi else v

(* Insert attach seq [seq] into the first [n] entries of the channel's
   build buffer, keeping them descending. *)
let build_insert t n seq =
  if n = Array.length t.build then t.build <- grow t.build ~min:64 0;
  let b = t.build in
  let i = ref n in
  while !i > 0 && Array.unsafe_get b (!i - 1) < seq do
    Array.unsafe_set b !i (Array.unsafe_get b (!i - 1));
    decr i
  done;
  Array.unsafe_set b !i seq

(* Rebuild [src]'s neighbour list at [now] from the cell index: every
   attached radio but [src] within [t.reach] of it, newest attach first.
   [src]'s store position must already be refreshed to [now].  The index
   is resynced first if stale; the query box is inflated by the drift
   bound so it covers radios that left their indexed cell, and each
   candidate is then filtered exactly against its live position. *)
let rebuild t src now =
  let store = t.store and xs = t.xs and ys = t.ys in
  if not t.index_fresh then sweep t;
  let drift =
    match t.max_speed with
    | None ->
        if Time.(now > t.index_at) then sweep t;
        0.
    | Some v ->
        let age = Time.diff now t.index_at in
        let b =
          if Time.equal age Time.zero then 0.
          else v *. (float_of_int (age :> int) /. 1e9)
        in
        if b > slack_margin_m then begin
          sweep t;
          0.
        end
        else b
  in
  let sx = Array.unsafe_get xs src.idx and sy = Array.unsafe_get ys src.idx in
  let reach = t.reach in
  let reach2 = reach *. reach in
  let radius = reach +. drift in
  let index = t.index and cell = t.cell in
  let cols = Geom.Cell_index.cols index in
  let rows = Geom.Cell_index.rows index in
  let cx0 =
    clamp_cell (int_of_float (Float.floor ((sx -. radius) /. cell))) (cols - 1)
  and cx1 =
    clamp_cell (int_of_float (Float.floor ((sx +. radius) /. cell))) (cols - 1)
  and cy0 =
    clamp_cell (int_of_float (Float.floor ((sy -. radius) /. cell))) (rows - 1)
  and cy1 =
    clamp_cell (int_of_float (Float.floor ((sy +. radius) /. cell))) (rows - 1)
  in
  let n = ref 0 in
  for cy = cy0 to cy1 do
    for cx = cx0 to cx1 do
      let c = (cy * cols) + cx in
      let members = Geom.Cell_index.members index c in
      for k = 0 to Geom.Cell_index.count index c - 1 do
        let i = Array.unsafe_get members k in
        let r = Array.unsafe_get t.slots i in
        if r != src then begin
          Mobility.Pos_store.refresh store i now;
          let dx = Array.unsafe_get xs i -. sx
          and dy = Array.unsafe_get ys i -. sy in
          if (dx *. dx) +. (dy *. dy) <= reach2 then begin
            build_insert t !n r.seq;
            incr n
          end
        end
      done
    done
  done;
  (* Lists are built in the shared buffer and copied out, so each
     radio's array is sized to its own neighbourhood (with headroom),
     not grown by doubling. *)
  let n = !n in
  if n > Array.length src.nbrs then src.nbrs <- Array.make (n + (n / 4)) 0;
  Array.blit t.build 0 src.nbrs 0 n;
  src.nbr_n <- n;
  src.nbr_at <- now;
  src.nbr_epoch <- t.epoch

(* Collect into the empty [job] every radio a transmission by [src]
   starting now touches, in delivery order.  Touched radios are fixed at
   transmission start: node movement within one frame airtime (~2 ms)
   is a fraction of a millimetre.  Radios out to the carrier-sense range
   defer and suffer interference; a shadowed pair's ranges are scaled by
   its gain; the partition wall absorbs the crossing frame entirely.

   Candidates are [src]'s neighbour list, rebuilt first if it may have
   gone stale: when a radio has (re-)attached since it was built, when
   either end of a pair may have closed the margin
   ([2 * max_speed * age > neighbour_margin_m]), or, with no speed
   bound, at any later instant.  A valid list is a superset of the
   touched radios already in delivery order, so each attached entry is
   filtered by the exact predicate and appended: no cell walk, no sort.
   One distance computation per candidate, stashed squared in the
   reception's [geo]; the delivery pass replaces it with [sqrt d2],
   which equals [Vec2.dist] bit-for-bit, so caching cannot change
   outcomes.

   Every float here is a local of this one function body — the source
   position, the list's age — so none is boxed: a float passed to or
   returned from any non-inlined call (this module's included, under
   the dev profile's [-opaque]) would be.  Only the link-model arm calls
   out with floats. *)
let collect t job src =
  let now = Engine.now t.engine in
  let store = t.store and xs = t.xs and ys = t.ys in
  Mobility.Pos_store.refresh store src.idx now;
  let stale =
    src.nbr_epoch <> t.epoch
    ||
    match t.max_speed with
    | None -> Time.(now > src.nbr_at)
    | Some v ->
        (* [Time.to_sec], inlined: its float return would box. *)
        let age = Time.diff now src.nbr_at in
        2. *. v *. (float_of_int (age :> int) /. 1e9) > neighbour_margin_m
  in
  if stale then rebuild t src now;
  let sx = Array.unsafe_get xs src.idx and sy = Array.unsafe_get ys src.idx in
  let cs2 = t.params.cs_range_m *. t.params.cs_range_m in
  let link = t.link in
  let src_int = Node_id.to_int src.id in
  let radios = t.radios and nbrs = src.nbrs in
  for k = 0 to src.nbr_n - 1 do
    let r = Array.unsafe_get radios (Array.unsafe_get nbrs k) in
    if r.attached then begin
      let i = r.idx in
      Mobility.Pos_store.refresh store i now;
      let ox = Array.unsafe_get xs i in
      let dx = ox -. sx and dy = Array.unsafe_get ys i -. sy in
      let d2 = (dx *. dx) +. (dy *. dy) in
      match link with
      | None ->
          if d2 <= cs2 then begin
            let g = job_add job r in
            g.dist <- d2;
            g.gain <- 1.
          end
      | Some l ->
          if not (Link_model.blocked l ~now ~x1:sx ~x2:ox) then begin
            let gain = Link_model.gain l src_int (Node_id.to_int r.id) in
            if d2 <= cs2 *. (gain *. gain) then begin
              let g = job_add job r in
              g.dist <- d2;
              g.gain <- gain
            end
          end
    end
  done

let fanout t r =
  let job = alloc_job t in
  collect t job r;
  let ids =
    List.init job.job_n (fun j -> t.radios.(job.job_rxs.(j).rx_seq).id)
  in
  free_job t job;
  ids

let rec run_hooks hooks id frame =
  match hooks with
  | [] -> ()
  | hook :: rest ->
      hook id frame;
      run_hooks rest id frame

(* Run the hooks, collect the touched radios, resolve capture, and arm
   the end-of-transmission event.  Only radios within decode range can
   receive the frame. *)
let transmit t src frame ~duration =
  t.tx_total <- t.tx_total + 1;
  run_hooks t.hooks src.id frame;
  if Obs.Bus.on t.obs then
    Obs.Bus.tx t.obs
      ~time:(Engine.now t.engine)
      ~node:(Node_id.to_int src.id)
      ~cls:(Obs.Bus.intern t.obs (Frame.class_name frame))
      ~dst:(frame_dst_int frame) ~bytes:(Frame.encoded_length frame);
  let rng2 = t.params.range_m *. t.params.range_m in
  let job = alloc_job t in
  job.job_src <- src;
  job.job_frame <- frame;
  collect t job src;
  let was_busy_src = carrier_busy src in
  src.tx_count <- src.tx_count + 1;
  if (not was_busy_src) && src.contending then src.medium true;
  let ratio = t.params.capture_distance_ratio in
  for j = 0 to job.job_n - 1 do
    let rx = Array.unsafe_get job.job_rxs j in
    let r = t.radios.(rx.rx_seq) in
    mark_busy r;
    let geo = rx.geo in
    let d2 = geo.dist and g = geo.gain in
    (* Effective distance folds the shadowing gain in: capture compares
       effective signal strengths.  [g = 1.] (no link model) leaves
       every float untouched. *)
    let dist = sqrt d2 in
    let dist = if g = 1. then dist else dist /. g in
    geo.dist <- dist;
    let decodable = if g = 1. then d2 <= rng2 else d2 <= rng2 *. (g *. g) in
    (* A radio that is transmitting decodes nothing.  An overlap is
       resolved by the capture effect: the markedly closer (stronger)
       transmitter wins; comparable powers corrupt both frames. *)
    if r.tx_count > 0 then ()
    else if r.lock >= 0 then begin
      let cur = t.rx_all.(r.lock) in
      if dist >= ratio *. cur.geo.dist then
        (* New arrival too weak to disturb the locked frame. *)
        ()
      else if cur.geo.dist >= ratio *. dist && decodable then begin
        (* New arrival captures the receiver. *)
        cur.corrupted <- true;
        rx.locked <- true;
        r.lock <- rx.rx_id
      end
      else cur.corrupted <- true
    end
    else if decodable then begin
      rx.locked <- true;
      r.lock <- rx.rx_id
    end
  done;
  ignore (Engine.after_fn t.engine duration end_of_tx job)

