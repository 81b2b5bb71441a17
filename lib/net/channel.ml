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
   floats and flags, so touching a radio costs no write barrier and no
   allocation.  [rx_id] is the record's index in the channel's
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
  idx : int;  (** store slot (node id); unused on a naive channel *)
  position : unit -> Geom.Vec2.t;
  mutable attached : bool;
      (** false while the node is down (churn): the radio is skipped as
          a reception candidate and dropped from the spatial index *)
  mutable receive : Frame.t -> unit;
  mutable medium : bool -> unit;
  mutable busy_count : int;  (** in-range transmissions currently in the air *)
  mutable tx_count : int;  (** own transmissions in the air (0 or 1) *)
  mutable lock : int;  (** [rx_id] of the frame being decoded; -1 when none *)
  mutable crossed : bool;
      (** last transmission was forwarded cross-shard (PDES): its remote
          copies arrive one delivery latency late, so unicast senders
          must extend their ACK wait by the round-trip grace *)
}

let dummy_frame =
  { Frame.src = Node_id.of_int 0; dst = Frame.Broadcast; body = Frame.Ack }

let dummy_pos = Geom.Vec2.v 0. 0.

let new_radio ~id ~seq ~idx ~position =
  {
    id;
    seq;
    idx;
    position;
    attached = true;
    receive = ignore;
    medium = ignore;
    busy_count = 0;
    tx_count = 0;
    lock = -1;
    crossed = false;
  }

(* Filler for unattached store slots and idle jobs, compared physically. *)
let dummy_radio =
  let r =
    new_radio ~id:(Node_id.of_int 0) ~seq:(-1) ~idx:(-1)
      ~position:(fun () -> dummy_pos)
  in
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
   radio first — the order a naive scan produces. *)
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
  mutable radios : radio array;  (* by seq; [0, next_seq) are live *)
  mutable next_seq : int;
  world : world option;  (* None: naive scan of [radios] *)
  link : Link_model.t option;
      (* None on the classic unit disk — the propagate fast path then
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
  (* PDES hook: decides whether a transmission concerns other shards and
     posts remote copies; returns true when it did (see [radio.crossed]).
     [remote_grace] is the extra unicast ACK wait a crossed transmission
     needs (two crossings: data out, ACK back). *)
  mutable remote : (Frame.t -> src:radio -> duration:Time.t -> bool) option;
  mutable remote_grace : Time.t;
}

(* Store backing: positions come from the shared [Pos_store] planes
   (fetched once; the store never reallocates them) and cell membership
   is maintained incrementally (ids only; the exact filter reads live
   positions).  [w_radios] maps a store slot back to its radio —
   [dummy_radio] until that slot attaches. *)
and world = {
  w_store : Mobility.Pos_store.t;
  w_xs : float array;
  w_ys : float array;
  w_index : Geom.Cell_index.t;
  w_radios : radio array;
}

let create ~engine ?max_speed ?obs ?world ?link ~params () =
  (* Cell side = half the carrier-sense range: a CS-disk query scans
     ~25 cells, but the cells hug the disk, so the candidate superset
     is ~1.7x the true disk population (a full-range cell side gives
     9 coarse cells and a ~2.9x superset — more wasted exact distance
     checks per query). *)
  let cell = params.Params.cs_range_m /. 2. in
  let world =
    Option.map
      (fun nodes ->
        let store = Nodes.store nodes in
        let n = Mobility.Pos_store.length store in
        {
          w_store = store;
          w_xs = Mobility.Pos_store.xs store;
          w_ys = Mobility.Pos_store.ys store;
          w_index =
            Geom.Cell_index.create ~cell ~width:(Nodes.width nodes)
              ~height:(Nodes.height nodes) ~ids:n;
          w_radios = Array.make n dummy_radio;
        })
      world
  in
  {
    engine;
    params;
    max_speed;
    radios = [||];
    next_seq = 0;
    world;
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
    remote = None;
    remote_grace = Time.zero;
  }

let set_remote t ~grace fn =
  t.remote <- Some fn;
  t.remote_grace <- grace

let remote_grace t = t.remote_grace
let crossed r = r.crossed

let params t = t.params
let obs t = t.obs

let frame_dst_int (f : Frame.t) =
  match f.dst with Frame.Broadcast -> -1 | Frame.Unicast d -> Node_id.to_int d

(* Double [a] (at least to [min]), filling new cells with [fill]. *)
let grow a ~min fill =
  let bigger = Array.make (Stdlib.max min (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let attach t ?(idx = -1) ~id ~position () =
  let position =
    match t.world with
    | None -> position
    | Some w ->
        if idx < 0 then
          invalid_arg
            "Channel.attach: a store-backed channel needs a slot (idx)";
        fun () ->
          Mobility.Pos_store.position w.w_store idx (Engine.now t.engine)
  in
  let r = new_radio ~id ~seq:t.next_seq ~idx ~position in
  if t.next_seq = Array.length t.radios then
    t.radios <- grow t.radios ~min:8 dummy_radio;
  t.radios.(t.next_seq) <- r;
  t.next_seq <- t.next_seq + 1;
  (match t.world with Some w -> w.w_radios.(idx) <- r | None -> ());
  t.index_fresh <- false;
  r

let set_receiver r f = r.receive <- f
let set_medium_listener r f = r.medium <- f
let radio_id r = r.id
let radio_pos r = r.position ()
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
   delivery order; the caller fills in the returned link geometry.  The
   naive scan collects in already-descending seq order (zero shifts);
   index candidates arrive in cell order and insertion-sort into place —
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
let sweep t w =
  let now = Engine.now t.engine in
  for i = 0 to Array.length w.w_radios - 1 do
    if (Array.unsafe_get w.w_radios i).attached then begin
      Mobility.Pos_store.refresh w.w_store i now;
      Geom.Cell_index.update w.w_index i ~x:w.w_xs.(i) ~y:w.w_ys.(i)
    end
  done;
  t.index_at <- now;
  t.index_fresh <- true

(* Resync the index if stale; returns the post-resync drift bound (how
   far any radio may be from its indexed cell) so queries pay for at
   most one clock-to-seconds conversion. *)
let refresh t w =
  if not t.index_fresh then sweep t w;
  match t.max_speed with
  | None ->
      if Time.(Engine.now t.engine > t.index_at) then sweep t w;
      0.
  | Some v ->
      let age = Time.diff (Engine.now t.engine) t.index_at in
      let b = if Time.equal age Time.zero then 0. else v *. Time.to_sec age in
      if b > slack_margin_m then begin
        sweep t w;
        0.
      end
      else b

(* Churn: a detached radio stops being a reception candidate and is
   dropped from the index immediately; frames already locked on it are
   discarded by the down-gated MAC.  Reattaching re-inserts it at its
   current position. *)
let set_attached t r v =
  if r.attached <> v then begin
    r.attached <- v;
    match t.world with
    | Some w ->
        if v then begin
          Mobility.Pos_store.refresh w.w_store r.idx (Engine.now t.engine);
          Geom.Cell_index.update w.w_index r.idx ~x:w.w_xs.(r.idx)
            ~y:w.w_ys.(r.idx)
        end
        else Geom.Cell_index.remove w.w_index r.idx
    | None -> ()
  end

let attached r = r.attached

(* Spatial-index health gauges (Obs.Telemetry); a naive channel has no
   index. *)
let index_stats t =
  match t.world with
  | Some w ->
      let s = Geom.Cell_index.stats w.w_index in
      (s.Geom.Cell_index.cells, s.occupied, s.max_occupancy)
  | None -> (0, 0, 0)

(* Radios within decode range of [r], newest attach first — the order a
   naive scan produces.  Index queries are inflated by the drift bound,
   so the candidate superset covers the true disk population. *)
let neighbors_in_range t r =
  let rng2 = t.params.range_m *. t.params.range_m in
  match t.world with
  | None ->
      let center = r.position () in
      let acc = ref [] in
      for s = 0 to t.next_seq - 1 do
        let other = t.radios.(s) in
        if
          other != r && other.attached
          && Geom.Vec2.dist2 center (other.position ()) <= rng2
        then acc := other :: !acc
      done;
      List.map (fun o -> o.id) !acc
  | Some w ->
      let radius = t.params.range_m +. refresh t w in
      let now = Engine.now t.engine in
      Mobility.Pos_store.refresh w.w_store r.idx now;
      let cx = w.w_xs.(r.idx) and cy = w.w_ys.(r.idx) in
      let acc = ref [] in
      Geom.Cell_index.iter_disk w.w_index ~x:cx ~y:cy ~radius (fun i ->
          let other = w.w_radios.(i) in
          if other != r && other.attached then begin
            Mobility.Pos_store.refresh w.w_store i now;
            let dx = w.w_xs.(i) -. cx and dy = w.w_ys.(i) -. cy in
            if (dx *. dx) +. (dy *. dy) <= rng2 then acc := other :: !acc
          end);
      List.sort (fun a b -> Int.compare b.seq a.seq) !acc
      |> List.map (fun o -> o.id)

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

(* Shared propagation body: collect the touched radios around the
   source position, resolve capture, and arm the end-of-transmission
   event.  [transmit] runs it for a local transmission; [transmit_from]
   for the remote copy of a cross-shard one (a phantom source radio
   standing in for a node homed on another shard). *)
let propagate t src ~sx ~sy frame ~duration =
  (* Touched radios are fixed at transmission start: node movement within
     one frame airtime (~2 ms) is a fraction of a millimetre.  Radios out
     to the carrier-sense range defer and suffer interference; only those
     within decode range can receive the frame.  A shadowed pair's
     ranges are both scaled by its gain; the partition wall absorbs the
     crossing frame entirely. *)
  let cs2 = t.params.cs_range_m *. t.params.cs_range_m in
  let rng2 = t.params.range_m *. t.params.range_m in
  let job = alloc_job t in
  job.job_src <- src;
  job.job_frame <- frame;
  let link = t.link in
  let now = Engine.now t.engine in
  let src_int = Node_id.to_int src.id in
  (* One distance computation per candidate, stashed squared in the
     reception's [geo]; the delivery pass replaces it with [sqrt d2],
     which equals [Vec2.dist] bit-for-bit, so caching cannot change
     outcomes. *)
  (match t.world with
  | None ->
      for s = t.next_seq - 1 downto 0 do
        let r = t.radios.(s) in
        if r != src && r.attached then begin
          let p = r.position () in
          let dx = p.Geom.Vec2.x -. sx and dy = p.Geom.Vec2.y -. sy in
          let d2 = (dx *. dx) +. (dy *. dy) in
          match link with
          | None ->
              if d2 <= cs2 then begin
                let g = job_add job r in
                g.dist <- d2;
                g.gain <- 1.
              end
          | Some l ->
              if not (Link_model.blocked l ~now ~x1:sx ~x2:p.Geom.Vec2.x)
              then begin
                let gain = Link_model.gain l src_int (Node_id.to_int r.id) in
                if d2 <= cs2 *. (gain *. gain) then begin
                  let g = job_add job r in
                  g.dist <- d2;
                  g.gain <- gain
                end
              end
        end
      done
  | Some w ->
      (* Candidate query disks are inflated by the largest possible gain
         so the superset covers every shadowed-but-decodable pair; the
         exact per-pair predicate below then decides.  Positions are read
         straight from the store's float planes: a few unboxed loads per
         candidate. *)
      let inflate = match link with None -> 1. | Some l -> Link_model.f_max l in
      let radius = (t.params.cs_range_m *. inflate) +. refresh t w in
      let store = w.w_store and xs = w.w_xs and ys = w.w_ys in
      Geom.Cell_index.iter_disk w.w_index ~x:sx ~y:sy ~radius (fun i ->
          let r = Array.unsafe_get w.w_radios i in
          if r != src && r.attached then begin
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
          end));
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

let transmit t src frame ~duration =
  t.tx_total <- t.tx_total + 1;
  List.iter (fun hook -> hook src.id frame) t.hooks;
  if Obs.Bus.on t.obs then
    Obs.Bus.tx t.obs
      ~time:(Engine.now t.engine)
      ~node:(Node_id.to_int src.id)
      ~cls:(Obs.Bus.intern t.obs (Frame.class_name frame))
      ~dst:(frame_dst_int frame) ~bytes:(Frame.encoded_length frame);
  src.crossed <-
    (match t.remote with None -> false | Some fn -> fn frame ~src ~duration);
  match t.world with
  | Some w ->
      Mobility.Pos_store.refresh w.w_store src.idx (Engine.now t.engine);
      propagate t src ~sx:w.w_xs.(src.idx) ~sy:w.w_ys.(src.idx) frame
        ~duration
  | None ->
      let p = src.position () in
      propagate t src ~sx:p.Geom.Vec2.x ~sy:p.Geom.Vec2.y frame ~duration

(* Remote copy of a transmission whose source is homed on another shard.
   The phantom radio carries the source's id and position snapshot; it
   is not attached, so it never appears as a reception candidate, and
   nothing global is counted again here — the home shard already paid
   [tx_total], the transmit hooks and the obs Tx event. *)
let transmit_from t ~src_id ~pos frame ~duration =
  let phantom =
    new_radio ~id:src_id ~seq:(-2) ~idx:(-1) ~position:(fun () -> pos)
  in
  propagate t phantom ~sx:pos.Geom.Vec2.x ~sy:pos.Geom.Vec2.y frame ~duration
