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
   floats and flags, so touching a radio costs no write barrier and
   allocates nothing.  [rx_id] is the record's index in the channel's
   [rx_all], by which a radio names the reception it is locked to. *)
type rx = {
  rx_id : int;
  geo : geo;
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
  mutable busy_count : int;  (** in-range transmissions currently in the air *)
  mutable tx_count : int;  (** own transmissions in the air (0 or 1) *)
  mutable lock : int;  (** [rx_id] of the frame being decoded; -1 when none *)
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
    busy_count = 0;
    tx_count = 0;
    lock = -1;
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
    corrupted = true;
    locked = false;
  }

(* Receptions are ordered by an int permutation rather than by moving
   records: a key packs the touched radio's attach seq above the job slot
   holding its [rx], so keys sorted descending list receptions newest
   radio first: the order of a scan over radios newest attach first. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* How far a radio's true position may drift from the cell it is indexed
   under before the index is resynced.  Queries are inflated by the
   current drift bound, so any margin is exact; smaller margins resync
   more often, larger ones scan more cells. *)
let slack_margin_m = 25.

(* One in-flight transmission: the source, the frame and the touched
   radios' receptions, alive from [transmit] to its end-of-transmission
   event.  Slot k of [job_rxs] is the k-th radio collected (in index
   order); [job_keys] over [0, job_n) is the delivery order.  Jobs are
   pooled on a free stack; the job itself is the argument of the
   closure-free end-of-tx event, so a transmission schedules without
   allocating. *)
type tx_job = {
  mutable job_src : radio;
  mutable job_frame : Frame.t;
  mutable job_rxs : rx array;
  mutable job_keys : int array;
  mutable job_n : int;
  job_owner : t;
}

and t = {
  engine : Engine.t;
  params : Params.t;
  max_speed : float option;
      (* [Some v]: no radio moves faster than [v] m/s, so indexed
         positions age at a known rate.  [None]: unknown speeds — the
         index is resynced whenever the clock has advanced, which is
         exact for any mobility. *)
  (* Positions come from the shared [Pos_store] planes (fetched once;
     the store never reallocates them) and cell membership is maintained
     incrementally (ids only; the exact filter reads live positions).
     The index holds exactly the attached radios — candidate collection
     relies on it and filters nothing else out.  [slots] maps a store
     slot back to its radio — [dummy_radio] until that slot attaches. *)
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
  r

let set_receiver r f = r.receive <- f
let set_medium_listener r f = r.medium <- f
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
    job_keys = Array.make 8 0;
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
  let t = job.job_owner in
  let n = Array.length job.job_rxs in
  if 2 * n > slot_mask then
    failwith "Channel: too many receivers for one frame";
  job.job_rxs <- Array.append job.job_rxs (Array.init n (fun _ -> new_rx t));
  job.job_keys <- grow job.job_keys ~min:0 0

(* Take the next slot's [rx] for radio [r] and insert its key into the
   delivery order; the caller fills in the returned link geometry.
   Index candidates arrive in cell order and insertion-sort into place —
   plain int moves, no records shifted. *)
let job_add job r =
  let n = job.job_n in
  if n = Array.length job.job_rxs then grow_job job;
  let keys = job.job_keys in
  let key = (r.seq lsl slot_bits) lor n in
  let i = ref n in
  while !i > 0 && Array.unsafe_get keys (!i - 1) < key do
    Array.unsafe_set keys !i (Array.unsafe_get keys (!i - 1));
    decr i
  done;
  Array.unsafe_set keys !i key;
  job.job_n <- n + 1;
  let rx = Array.unsafe_get job.job_rxs n in
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

(* Churn: a detached radio leaves the index immediately, so no later
   transmission touches it; frames already locked on it are discarded
   by the down-gated MAC.  Reattaching re-inserts it at its current
   position. *)
let set_attached t r v =
  if r.attached <> v then begin
    r.attached <- v;
    if v then begin
      Mobility.Pos_store.refresh t.store r.idx (Engine.now t.engine);
      Geom.Cell_index.update t.index r.idx ~x:t.xs.(r.idx) ~y:t.ys.(r.idx)
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

let mark_busy r =
  let was = carrier_busy r in
  r.busy_count <- r.busy_count + 1;
  if not was then r.medium true

let mark_idle r =
  r.busy_count <- r.busy_count - 1;
  assert (r.busy_count >= 0);
  if not (carrier_busy r) then r.medium false

(* End of transmission: release the medium, deliver surviving locked
   frames in delivery order, and recycle the job.  Clearing the frame
   drops the job's reference into live simulation state between
   transmissions. *)
let end_of_tx job =
  let t = job.job_owner in
  let src = job.job_src in
  src.tx_count <- src.tx_count - 1;
  if not (carrier_busy src) then src.medium false;
  let frame = job.job_frame in
  for j = 0 to job.job_n - 1 do
    let key = Array.unsafe_get job.job_keys j in
    let r = t.radios.(key lsr slot_bits) in
    let rx = job.job_rxs.(key land slot_mask) in
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

(* Collect into the empty [job] every radio a transmission by [src]
   starting now touches, in delivery order.  Touched radios are fixed at
   transmission start: node movement within one frame airtime (~2 ms)
   is a fraction of a millimetre.  Radios out to the carrier-sense range
   defer and suffer interference; a shadowed pair's ranges are scaled by
   its gain; the partition wall absorbs the crossing frame entirely.
   One distance computation per candidate, stashed squared in the
   reception's [geo]; the delivery pass replaces it with [sqrt d2],
   which equals [Vec2.dist] bit-for-bit, so caching cannot change
   outcomes.

   Every float here is a local of this one function body — the source
   position, the drift bound, the query box — so none is boxed: a float
   passed to or returned from any non-inlined call (this module's
   included, under the dev profile's [-opaque]) would be.  The cell box
   is walked in place, with no closure; only the link-model arm calls
   out with floats. *)
let collect t job src =
  let now = Engine.now t.engine in
  let store = t.store and xs = t.xs and ys = t.ys in
  Mobility.Pos_store.refresh store src.idx now;
  let sx = Array.unsafe_get xs src.idx and sy = Array.unsafe_get ys src.idx in
  (* Resync the index if stale; [drift] bounds how far any radio may be
     from its indexed cell. *)
  if not t.index_fresh then sweep t;
  let drift =
    match t.max_speed with
    | None ->
        if Time.(now > t.index_at) then sweep t;
        0.
    | Some v ->
        let age = Time.diff now t.index_at in
        (* [Time.to_sec], inlined: its float return would box. *)
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
  let cs2 = t.params.cs_range_m *. t.params.cs_range_m in
  let link = t.link in
  let src_int = Node_id.to_int src.id in
  (* Candidate query disks are inflated by the largest possible gain
     so the superset covers every shadowed-but-decodable pair, and by
     the drift bound so it covers radios that left their indexed cell;
     the exact per-pair predicate below then decides.  Positions are
     read straight from the store's float planes: a few unboxed loads
     per candidate. *)
  let inflate = match link with None -> 1. | Some l -> Link_model.f_max l in
  let radius = (t.params.cs_range_m *. inflate) +. drift in
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
  for cy = cy0 to cy1 do
    for cx = cx0 to cx1 do
      let c = (cy * cols) + cx in
      let members = Geom.Cell_index.members index c in
      for k = 0 to Geom.Cell_index.count index c - 1 do
        let i = Array.unsafe_get members k in
        let r = Array.unsafe_get t.slots i in
        if r != src then begin
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
    done
  done

let fanout t r =
  let job = alloc_job t in
  collect t job r;
  let ids =
    List.init job.job_n (fun j ->
        t.radios.(job.job_keys.(j) lsr slot_bits).id)
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
  if not was_busy_src then src.medium true;
  let ratio = t.params.capture_distance_ratio in
  for j = 0 to job.job_n - 1 do
    let key = Array.unsafe_get job.job_keys j in
    let r = t.radios.(key lsr slot_bits) in
    let rx = job.job_rxs.(key land slot_mask) in
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

