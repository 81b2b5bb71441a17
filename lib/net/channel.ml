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
      (** false while the node is down (churn): no transmission touches
          the radio, though neighbour lists still name it *)
  mutable receive : Frame.t -> unit;
  mutable medium : bool -> unit;
  mutable contending : bool;
      (** [medium] hears carrier-sense edges only while this is set *)
  mutable busy_count : int;  (** in-range transmissions currently in the air *)
  mutable tx_count : int;  (** own transmissions in the air (0 or 1) *)
  mutable lock : int;  (** [rx_id] of the frame being decoded; -1 when none *)
  mutable nbrs : int array;
      (** neighbour list: attach seqs of the radios within [reach] of
          this one at the last rebuild, descending; [0, nbr_n) are live *)
  mutable nbr_n : int;
  mutable cell : int;  (** the cell the last rebuild binned it in *)
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
    cell = 0;
  }

(* Filler for the radio table and idle jobs. *)
let dummy_radio = new_radio ~id:(Node_id.of_int 0) ~seq:(-1) ~idx:(-1)

let no_rx =
  {
    rx_id = -1;
    geo = { dist = 0.; gain = 1. };
    rx_seq = -1;
    corrupted = true;
    locked = false;
  }

(* Verlet skin of the neighbour lists: a list holds the radios within
   [cs_range * f_max + neighbour_margin_m] of its owner, and stays exact
   while neither end of a pair can have closed the margin, i.e. while
   [2 * v_max * age <= neighbour_margin_m].  Smaller margins rebuild
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
  v_max : float;
      (* the fastest any store process moves (m/s): lists age at
         [2 * v_max] per second at most *)
  (* Positions come from the shared [Pos_store] planes (fetched once;
     the store never reallocates them). *)
  store : Mobility.Pos_store.t;
  xs : float array;
  ys : float array;
  (* The rebuild's cell grid: square cells of side [cell] over the
     terrain, [cols] by [rows].  After a rebuild, [cell_seqs] holds the
     attach seqs of cell [c] over [cell_start.(c), cell_start.(c + 1)),
     ascending. *)
  cell : float;
  cols : int;
  rows : int;
  cell_start : int array;  (* [cols * rows + 1] entries *)
  cell_seqs : int array;  (* one entry per store slot *)
  mutable radios : radio array;  (* by seq; [0, next_seq) are live *)
  mutable next_seq : int;
  link : Link_model.t option;
      (* None on the classic unit disk — the collect fast path then
         skips every per-candidate gain/wall lookup *)
  reach : float;
      (* neighbour-list radius: the farthest any pair can touch
         ([cs_range * f_max]) plus [neighbour_margin_m] *)
  mutable built_n : int;  (* radios attached at the last rebuild *)
  mutable built_at : Time.t;  (* when the last rebuild ran *)
  mutable hooks : (Node_id.t -> Frame.t -> unit) list;
  mutable tx_total : int;
  mutable job_pool : tx_job array;
  mutable job_free : int;  (* jobs [0, job_free) are free *)
  mutable rx_all : rx array;  (* every pooled rx, by [rx_id] *)
  mutable rx_count : int;
  obs : Obs.Bus.t;
}

let create ~engine ?obs ~store ~terrain ?link ~params () =
  (* Cell side = half the carrier-sense range: the cells a radio's
     neighbourhood overlaps hug its disk, so the candidate superset is
     ~1.7x the true population (a full-range cell side gives 9 coarse
     cells and a ~2.9x superset — more wasted exact distance checks). *)
  let cell = params.Params.cs_range_m /. 2. in
  let cols = int_of_float (Float.floor (terrain.Geom.Terrain.width /. cell)) + 1
  and rows =
    int_of_float (Float.floor (terrain.Geom.Terrain.height /. cell)) + 1
  in
  let n = Mobility.Pos_store.length store in
  let v_max = ref 0. in
  for i = 0 to n - 1 do
    v_max :=
      Float.max !v_max (Mobility.max_speed (Mobility.Pos_store.proc store i))
  done;
  {
    engine;
    params;
    v_max = !v_max;
    store;
    xs = Mobility.Pos_store.xs store;
    ys = Mobility.Pos_store.ys store;
    cell;
    cols;
    rows;
    cell_start = Array.make ((cols * rows) + 1) 0;
    cell_seqs = Array.make n 0;
    radios = [||];
    next_seq = 0;
    link;
    reach =
      (params.cs_range_m
      *. match link with None -> 1. | Some l -> Link_model.f_max l)
      +. neighbour_margin_m;
    built_n = 0;
    built_at = Time.zero;
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
  if slot < 0 || slot >= Array.length t.xs then
    invalid_arg "Channel.attach: no such store slot";
  let r = new_radio ~id ~seq:t.next_seq ~idx:slot in
  if t.next_seq = Array.length t.radios then
    t.radios <- grow t.radios ~min:8 dummy_radio;
  t.radios.(t.next_seq) <- r;
  t.next_seq <- t.next_seq + 1;
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

(* Churn: a detached radio stays in the neighbour lists, which
   collection filters by [attached], so no later transmission touches
   it; frames already locked on it are discarded by the down-gated MAC.
   Lists name every radio that has ever attached, so a re-attach
   invalidates none of them. *)
let set_attached _t r v = r.attached <- v

let attached r = r.attached

(* Spatial-index health gauges (Obs.Telemetry), as of the last rebuild. *)
let index_stats t =
  let cells = t.cols * t.rows in
  let occupied = ref 0 and max_occ = ref 0 in
  for c = 0 to cells - 1 do
    let k = t.cell_start.(c + 1) - t.cell_start.(c) in
    if k > 0 then incr occupied;
    if k > !max_occ then max_occ := k
  done;
  (cells, !occupied, !max_occ)

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

(* Rebuild every radio's neighbour list at [now]: each radio that has
   ever attached, detached ones included, gets the others within
   [t.reach] of it, newest attach first.  The radios' positions are
   refreshed and counting-sorted into cells (a position outside the
   terrain lands in the nearest border cell).  Two walks over each
   radio's cell box follow: the first counts its neighbours and grows
   its list to fit, the second takes radios in descending attach seq and
   appends each to the list of every radio within [t.reach], so every
   list comes out sorted (distances are symmetric, so it fills each list
   exactly).  Lists only grow, so once they are sized a rebuild
   allocates nothing. *)
let rebuild t now =
  let n = t.next_seq and radios = t.radios in
  let xs = t.xs and ys = t.ys and store = t.store in
  let cell = t.cell and cols = t.cols and rows = t.rows in
  let start = t.cell_start and seqs = t.cell_seqs in
  Array.fill start 0 (Array.length start) 0;
  for s = 0 to n - 1 do
    let r = Array.unsafe_get radios s in
    let i = r.idx in
    Mobility.Pos_store.refresh store i now;
    let cx = int_of_float (Float.floor (Array.unsafe_get xs i /. cell))
    and cy = int_of_float (Float.floor (Array.unsafe_get ys i /. cell)) in
    let c = (clamp_cell cy (rows - 1) * cols) + clamp_cell cx (cols - 1) in
    r.cell <- c;
    start.(c) <- start.(c) + 1;
    r.nbr_n <- 0
  done;
  (* [start.(c)] counts cell [c]; running sums make it the cell's end,
     and placing each seq, highest first, walks its cell's end back one,
     to the cell's start once the cell is placed. *)
  for c = 1 to Array.length start - 1 do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  for s = n - 1 downto 0 do
    let c = (Array.unsafe_get radios s).cell in
    start.(c) <- start.(c) - 1;
    seqs.(start.(c)) <- s
  done;
  let reach = t.reach in
  let reach2 = reach *. reach in
  for pass = 0 to 1 do
    for s = n - 1 downto 0 do
      let r = Array.unsafe_get radios s in
      let x = Array.unsafe_get xs r.idx and y = Array.unsafe_get ys r.idx in
      let cx0 = int_of_float (Float.floor ((x -. reach) /. cell))
      and cx1 = int_of_float (Float.floor ((x +. reach) /. cell))
      and cy0 = int_of_float (Float.floor ((y -. reach) /. cell))
      and cy1 = int_of_float (Float.floor ((y +. reach) /. cell)) in
      let cx0 = clamp_cell cx0 (cols - 1) and cx1 = clamp_cell cx1 (cols - 1) in
      for cy = clamp_cell cy0 (rows - 1) to clamp_cell cy1 (rows - 1) do
        for c = (cy * cols) + cx0 to (cy * cols) + cx1 do
          for k = start.(c) to start.(c + 1) - 1 do
            let o = Array.unsafe_get radios (Array.unsafe_get seqs k) in
            if o != r then begin
              let dx = Array.unsafe_get xs o.idx -. x
              and dy = Array.unsafe_get ys o.idx -. y in
              if (dx *. dx) +. (dy *. dy) <= reach2 then
                if pass = 0 then r.nbr_n <- r.nbr_n + 1
                else begin
                  o.nbrs.(o.nbr_n) <- s;
                  o.nbr_n <- o.nbr_n + 1
                end
            end
          done
        done
      done;
      if pass = 0 then begin
        let m = r.nbr_n in
        if m > Array.length r.nbrs then r.nbrs <- Array.make (m + (m / 4)) 0;
        r.nbr_n <- 0
      end
    done
  done;
  t.built_n <- n;
  t.built_at <- now

(* Collect into the empty [job] every radio a transmission by [src]
   starting now touches, in delivery order.  Touched radios are fixed at
   transmission start: node movement within one frame airtime (~2 ms)
   is a fraction of a millimetre.  Radios out to the carrier-sense range
   defer and suffer interference; a shadowed pair's ranges are scaled by
   its gain; the partition wall absorbs the crossing frame entirely.

   Candidates are [src]'s neighbour list; every list is rebuilt first if
   a radio has attached for the first time since the last rebuild, or if
   either end of a pair may have closed the margin since
   ([2 * v_max * age > neighbour_margin_m]).  A valid list is a superset of the
   touched radios already in delivery order, so each attached entry is
   filtered by the exact predicate and appended: no cell walk, no sort.
   One distance computation per candidate, stashed squared in the
   reception's [geo]; the delivery pass replaces it with [sqrt d2],
   which equals [Vec2.dist] bit-for-bit, so caching cannot change
   outcomes.

   Every float here is a local of this one function body — the source
   position, the lists' age — so none is boxed: a float passed to or
   returned from any non-inlined call (this module's included, under
   the dev profile's [-opaque]) would be.  Only the link-model arm calls
   out with floats. *)
let collect t job src =
  let now = Engine.now t.engine in
  let store = t.store and xs = t.xs and ys = t.ys in
  Mobility.Pos_store.refresh store src.idx now;
  (* [Time.to_sec], inlined: its float return would box. *)
  let age = float_of_int (Time.diff now t.built_at :> int) /. 1e9 in
  if t.built_n < t.next_seq || 2. *. t.v_max *. age > neighbour_margin_m
  then rebuild t now;
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

