open Sim
open Packets

type radio = {
  id : Node_id.t;
  slot : int;  (** store slot: the radio's index in the channel's arrays *)
  mutable receive : Frame.t -> unit;
  mutable overhear : bool;  (** [receive] hears data unicasts for others too *)
  mutable medium : bool -> unit;
  mutable nbrs : int array;
      (** neighbour list: slots of the radios within [reach] of this one
          at the last rebuild, newest attach first; [0, nbr_n) are live *)
  mutable nbr_n : int;
  mutable cell : int;  (** the cell the last rebuild binned it in *)
}

let dummy_frame =
  { Frame.src = Node_id.of_int 0; dst = Frame.Broadcast; body = Frame.Ack }

(* Filler for the by-slot radio table. *)
let dummy_radio =
  {
    id = Node_id.of_int 0;
    slot = -1;
    receive = ignore;
    overhear = true;
    medium = ignore;
    nbrs = [||];
    nbr_n = 0;
    cell = 0;
  }

(* Unit-disk decode range: the paper's 275 m nominal transmission
   range. *)
let range_m = 275.

(* Capture effect: a reception survives an interferer whose distance to
   the receiver is at least this factor times the wanted transmitter's
   distance (10 dB SIR under a path-loss exponent of 4 gives 1.78).  Two
   comparable-power overlaps corrupt both frames. *)
let capture_distance_ratio = 1.78

(* Verlet skin of the neighbour lists: a list holds the radios within
   [cs_range * f_max + neighbour_margin_m] of its owner, and stays exact
   while neither end of a pair can have closed the margin, i.e. while
   [2 * v_max * age <= neighbour_margin_m].  Smaller margins rebuild
   more often, larger ones scan more entries per transmission. *)
let neighbour_margin_m = 50.

(* Bits of a reception's [job_flags] byte. *)
let locked = 1 (* this arrival captured the receiver *)
let corrupted = 2

(* One in-flight transmission, alive from [transmit] to its
   end-of-transmission event: the source, the frame and, over
   [0, job_n) in delivery order, each touched radio's slot, link
   distance and gain, and flags.  These parallel arrays hold ints,
   unboxed floats and bytes, so touching a radio writes no pointer (no
   [caml_modify]) and allocates nothing; a radio names the reception it
   is locked to by (job id, index).  Jobs are pooled on a free stack;
   the job is the argument of the closure-free end-of-tx event, so a
   transmission schedules without allocating. *)
type tx_job = {
  job_id : int;  (** index in the channel's [jobs] *)
  mutable job_src : int;  (** slot of the transmitting radio *)
  mutable job_frame : Frame.t;
  mutable job_n : int;
  mutable job_slots : int array;
  mutable job_dist : float array;
      (** receiver-to-transmitter distance, for capture (squared until
          the delivery pass) *)
  mutable job_gain : float array;
      (** shadowing range factor of the link; exactly [1.] without a
          link model, as on the plain unit disk *)
  mutable job_flags : Bytes.t;
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
     terrain, [cols] by [rows].  After a rebuild, [cell_slots] holds the
     slots of the radios in cell [c] over
     [cell_start.(c), cell_start.(c + 1)]. *)
  cell : float;
  cols : int;
  rows : int;
  cell_start : int array;  (* [cols * rows + 1] entries *)
  cell_slots : int array;  (* one entry per store slot *)
  (* Per-radio state by store slot, sized once: a slot holds at most
     one radio.  A transmission loads a radio record only to call its
     listeners. *)
  radios : radio array;  (* [dummy_radio] where no radio attached *)
  busy_n : int array;  (* in-range transmissions currently in the air *)
  tx_n : int array;  (* own transmissions in the air (0 or 1) *)
  lock_job : int array;  (* job of the frame being decoded; -1: none *)
  lock_ix : int array;  (* its index in that job *)
  contending : bool array;  (* the medium listener hears edges only then *)
  attached : bool array;
      (* false while the node is down (churn): no transmission touches
         the radio, though neighbour lists still name it *)
  order : int array;  (* slots in attach order; [0, next_seq) are live *)
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
  mutable jobs : tx_job array;  (* every job, by [job_id] *)
  mutable job_pool : tx_job array;
  mutable job_free : int;  (* jobs [0, job_free) of the pool are free *)
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
    cell_slots = Array.make n 0;
    radios = Array.make n dummy_radio;
    busy_n = Array.make n 0;
    tx_n = Array.make n 0;
    lock_job = Array.make n (-1);
    lock_ix = Array.make n 0;
    contending = Array.make n true;
    attached = Array.make n false;
    order = Array.make n 0;
    next_seq = 0;
    link;
    reach =
      (params.cs_range_m
      *. match link with None -> 1. | Some l -> Link_model.f_max l)
      +. neighbour_margin_m;
    built_n = 0;
    built_at = Time.zero;
    hooks = [];
    jobs = [||];
    job_pool = [||];
    job_free = 0;
    obs = (match obs with Some b -> b | None -> Obs.Bus.create ());
  }

let params t = t.params
let obs t = t.obs

let attach t ~slot ~id =
  if slot < 0 || slot >= Array.length t.xs then
    invalid_arg "Channel.attach: no such store slot";
  if t.radios.(slot) != dummy_radio then
    invalid_arg "Channel.attach: store slot already has a radio";
  let r = { dummy_radio with id; slot } in
  t.radios.(slot) <- r;
  t.attached.(slot) <- true;
  t.order.(t.next_seq) <- slot;
  t.next_seq <- t.next_seq + 1;
  r

let set_receiver r ~overhear f =
  r.receive <- f;
  r.overhear <- overhear

let set_medium_listener r f = r.medium <- f
let set_contending t r v = t.contending.(r.slot) <- v
let radio_id r = r.id
let transmitting t r = t.tx_n.(r.slot) > 0
let busy t r = t.busy_n.(r.slot) > 0 || t.tx_n.(r.slot) > 0

(* ---- Transmission-job pool --------------------------------------------- *)

let new_job owner job_id =
  {
    job_id;
    job_src = -1;
    job_frame = dummy_frame;
    job_n = 0;
    job_slots = Array.make 8 0;
    job_dist = Array.make 8 0.;
    job_gain = Array.make 8 1.;
    job_flags = Bytes.make 8 '\000';
    job_owner = owner;
  }

let alloc_job t =
  if t.job_free = 0 then begin
    let have = Array.length t.jobs in
    let extra = Stdlib.max 4 have in
    let fresh = Array.init extra (fun k -> new_job t (have + k)) in
    t.jobs <- Array.append t.jobs fresh;
    t.job_pool <- Array.append fresh t.job_pool;
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
  let n = Array.length job.job_slots in
  let widen a = Array.append a a in
  job.job_slots <- widen job.job_slots;
  job.job_dist <- widen job.job_dist;
  job.job_gain <- widen job.job_gain;
  job.job_flags <- Bytes.extend job.job_flags 0 n

(* Append the radio in [slot] to the delivery order, flags clear, and
   return its index; the caller stores its distance and gain there
   (floats stay out of the call, which would box them). *)
let job_push job slot =
  let j = job.job_n in
  if j = Array.length job.job_slots then grow_job job;
  job.job_n <- j + 1;
  Array.unsafe_set job.job_slots j slot;
  Bytes.unsafe_set job.job_flags j '\000';
  j

(* Churn: a detached radio stays in the neighbour lists, which
   collection filters by [attached], so no later transmission touches
   it; frames already locked on it are discarded by the down-gated MAC.
   Lists name every radio that has ever attached, so a re-attach
   invalidates none of them. *)
let set_attached t r v = t.attached.(r.slot) <- v

let attached t r = t.attached.(r.slot)

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

(* Every job off the free stack is a transmission still in the air. *)
let in_flight t = Array.length t.job_pool - t.job_free

(* End of transmission: release the medium, deliver surviving locked
   frames in delivery order (a data unicast for another node only to a
   radio that overhears, an ACK for another node to none), and recycle
   the job.  Medium listeners hear edges only while their radio
   contends.  Clearing the frame drops the job's reference into live
   simulation state between transmissions. *)
let end_of_tx job =
  let t = job.job_owner in
  let busy_n = t.busy_n and tx_n = t.tx_n and contending = t.contending in
  let radios = t.radios and lock_job = t.lock_job in
  let src = job.job_src in
  tx_n.(src) <- tx_n.(src) - 1;
  if tx_n.(src) = 0 && busy_n.(src) = 0 && contending.(src) then
    radios.(src).medium false;
  let frame = job.job_frame in
  let dst = Frame.dst_int frame.dst in
  let slots = job.job_slots and flags = job.job_flags in
  for j = 0 to job.job_n - 1 do
    let s = Array.unsafe_get slots j in
    let b = busy_n.(s) - 1 in
    assert (b >= 0);
    busy_n.(s) <- b;
    if b = 0 && tx_n.(s) = 0 && contending.(s) then radios.(s).medium false;
    let f = Char.code (Bytes.unsafe_get flags j) in
    if f land locked <> 0 then begin
      (* Only clear the lock if it is still ours (a corrupting overlap
         never replaces the lock, so it is). *)
      if lock_job.(s) = job.job_id then lock_job.(s) <- -1;
      (* Starting to transmit mid-reception also kills it. *)
      if f land corrupted = 0 && tx_n.(s) = 0 then begin
        let r = radios.(s) in
        if
          dst < 0
          || dst = Node_id.to_int r.id
          || (r.overhear
             && match frame.body with Frame.Payload _ -> true | Ack -> false)
        then r.receive frame
      end
      else if Obs.Bus.on t.obs then
        (* A locked frame the radio would have decoded, lost to an
           overlapping transmission (or its own). *)
        Obs.Bus.collision t.obs
          ~time:(Engine.now t.engine)
          ~node:(Node_id.to_int radios.(s).id)
          ~cls:(Obs.Bus.intern t.obs (Frame.class_name frame))
          ~from:(Node_id.to_int frame.Frame.src)
    end
  done;
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
  let n = t.next_seq and radios = t.radios and order = t.order in
  let xs = t.xs and ys = t.ys in
  let cell = t.cell and cols = t.cols and rows = t.rows in
  let start = t.cell_start and slots = t.cell_slots in
  Array.fill start 0 (Array.length start) 0;
  Mobility.Pos_store.refresh_slots t.store order n now;
  for s = 0 to n - 1 do
    let i = Array.unsafe_get order s in
    let r = Array.unsafe_get radios i in
    let cx = int_of_float (Float.floor (Array.unsafe_get xs i /. cell))
    and cy = int_of_float (Float.floor (Array.unsafe_get ys i /. cell)) in
    let c = (clamp_cell cy (rows - 1) * cols) + clamp_cell cx (cols - 1) in
    r.cell <- c;
    start.(c) <- start.(c) + 1;
    r.nbr_n <- 0
  done;
  (* [start.(c)] counts cell [c]; running sums make it the cell's end,
     and placing each radio walks its cell's end back one, to the cell's
     start once the cell is placed. *)
  for c = 1 to Array.length start - 1 do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  for s = 0 to n - 1 do
    let i = Array.unsafe_get order s in
    let c = (Array.unsafe_get radios i).cell in
    start.(c) <- start.(c) - 1;
    slots.(start.(c)) <- i
  done;
  let reach = t.reach in
  let reach2 = reach *. reach in
  for pass = 0 to 1 do
    for s = n - 1 downto 0 do
      let i = Array.unsafe_get order s in
      let r = Array.unsafe_get radios i in
      let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
      let cx0 = int_of_float (Float.floor ((x -. reach) /. cell))
      and cx1 = int_of_float (Float.floor ((x +. reach) /. cell))
      and cy0 = int_of_float (Float.floor ((y -. reach) /. cell))
      and cy1 = int_of_float (Float.floor ((y +. reach) /. cell)) in
      let cx0 = clamp_cell cx0 (cols - 1) and cx1 = clamp_cell cx1 (cols - 1) in
      for cy = clamp_cell cy0 (rows - 1) to clamp_cell cy1 (rows - 1) do
        for c = (cy * cols) + cx0 to (cy * cols) + cx1 do
          for k = start.(c) to start.(c + 1) - 1 do
            let o = Array.unsafe_get slots k in
            if o <> i then begin
              let dx = Array.unsafe_get xs o -. x
              and dy = Array.unsafe_get ys o -. y in
              if (dx *. dx) +. (dy *. dy) <= reach2 then
                if pass = 0 then r.nbr_n <- r.nbr_n + 1
                else begin
                  let o = Array.unsafe_get radios o in
                  o.nbrs.(o.nbr_n) <- i;
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
   ([2 * v_max * age > neighbour_margin_m]).  A valid list is a superset
   of the touched radios already in delivery order, so each attached
   entry is filtered by the exact predicate and appended: no cell walk,
   no sort.  The whole list's positions are refreshed by one store call.
   One distance computation per candidate, stashed squared in the job's
   [job_dist]; the delivery pass replaces it with [sqrt d2], which
   equals [Vec2.dist] bit-for-bit, so caching cannot change outcomes.

   Every float here is a local of this one function body — the source
   position, the lists' age — so none is boxed, whatever the inliner
   decides: a float passed to or returned from a call that is not
   inlined (this module's included) would be.  Only the link-model arm
   calls out with floats. *)
let collect t job src =
  let now = Engine.now t.engine in
  let store = t.store and xs = t.xs and ys = t.ys in
  let si = src.slot in
  Mobility.Pos_store.refresh store si now;
  (* [Time.to_sec], inlined: its float return would box. *)
  let age = float_of_int (Time.diff now t.built_at :> int) /. 1e9 in
  if t.built_n < t.next_seq || 2. *. t.v_max *. age > neighbour_margin_m
  then rebuild t now;
  let nbrs = src.nbrs and m = src.nbr_n in
  Mobility.Pos_store.refresh_slots store nbrs m now;
  let sx = Array.unsafe_get xs si and sy = Array.unsafe_get ys si in
  let cs2 = t.params.cs_range_m *. t.params.cs_range_m in
  let link = t.link and attached = t.attached in
  let src_int = Node_id.to_int src.id in
  for k = 0 to m - 1 do
    let i = Array.unsafe_get nbrs k in
    if Array.unsafe_get attached i then begin
      let ox = Array.unsafe_get xs i in
      let dx = ox -. sx and dy = Array.unsafe_get ys i -. sy in
      let d2 = (dx *. dx) +. (dy *. dy) in
      (* A pair the wall parts straddles it, so [d2 > 0] rules it out. *)
      let gain =
        match link with
        | None -> 1.
        | Some l when Link_model.blocked l ~now ~x1:sx ~x2:ox -> 0.
        | Some l -> Link_model.gain l src_int (Node_id.to_int t.radios.(i).id)
      in
      if d2 <= cs2 *. (gain *. gain) then begin
        let j = job_push job i in
        Array.unsafe_set job.job_dist j d2;
        Array.unsafe_set job.job_gain j gain
      end
    end
  done

let fanout t r =
  let job = alloc_job t in
  collect t job r;
  let ids =
    List.init job.job_n (fun j -> t.radios.(job.job_slots.(j)).id)
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
  run_hooks t.hooks src.id frame;
  if Obs.Bus.on t.obs then
    Obs.Bus.tx t.obs
      ~time:(Engine.now t.engine)
      ~node:(Node_id.to_int src.id)
      ~cls:(Obs.Bus.intern t.obs (Frame.class_name frame))
      ~dst:(Frame.dst_int frame.dst) ~bytes:(Frame.encoded_length frame);
  let rng2 = range_m *. range_m in
  let job = alloc_job t in
  job.job_src <- src.slot;
  job.job_frame <- frame;
  collect t job src;
  let busy_n = t.busy_n and tx_n = t.tx_n and contending = t.contending in
  let radios = t.radios and lock_job = t.lock_job and lock_ix = t.lock_ix in
  let si = src.slot in
  let was_busy = tx_n.(si) > 0 || busy_n.(si) > 0 in
  tx_n.(si) <- tx_n.(si) + 1;
  if (not was_busy) && contending.(si) then src.medium true;
  let ratio = capture_distance_ratio in
  let slots = job.job_slots and dists = job.job_dist
  and gains = job.job_gain and flags = job.job_flags in
  for j = 0 to job.job_n - 1 do
    let s = Array.unsafe_get slots j in
    let b = busy_n.(s) in
    busy_n.(s) <- b + 1;
    if b = 0 && tx_n.(s) = 0 && contending.(s) then radios.(s).medium true;
    let d2 = Array.unsafe_get dists j and g = Array.unsafe_get gains j in
    (* Effective distance folds the shadowing gain in: capture compares
       effective signal strengths.  [g = 1.] (no link model) leaves
       every float untouched. *)
    let dist = sqrt d2 in
    let dist = if g = 1. then dist else dist /. g in
    Array.unsafe_set dists j dist;
    let decodable = if g = 1. then d2 <= rng2 else d2 <= rng2 *. (g *. g) in
    (* A radio that is transmitting decodes nothing.  An overlap is
       resolved by the capture effect: the markedly closer (stronger)
       transmitter wins; comparable powers corrupt both frames. *)
    if tx_n.(s) = 0 then begin
      let lj = lock_job.(s) in
      let captures =
        if lj < 0 then decodable
        else begin
          let cur = t.jobs.(lj) and ci = lock_ix.(s) in
          let cur_dist = cur.job_dist.(ci) in
          (* An arrival this weak leaves the locked frame intact. *)
          if dist >= ratio *. cur_dist then false
          else begin
            let cf = Char.code (Bytes.get cur.job_flags ci) in
            Bytes.set cur.job_flags ci (Char.unsafe_chr (cf lor corrupted));
            cur_dist >= ratio *. dist && decodable
          end
        end
      in
      if captures then begin
        Bytes.unsafe_set flags j (Char.unsafe_chr locked);
        lock_job.(s) <- job.job_id;
        lock_ix.(s) <- j
      end
    end
  done;
  ignore (Engine.after_fn t.engine duration end_of_tx job)
