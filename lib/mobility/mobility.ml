open Sim

(* A leg is one linear motion (or pause, when [from = dest]) starting at
   [depart] and ending at [arrive].  Models generate legs on demand.

   Legs used to be produced by a per-node [next_leg : leg -> leg] closure
   chain; generation is now a variant dispatch ([gen]) so that the hot
   per-node state can live in flat arrays ({!Pos_store}) while the cold
   leg-generation path — which draws RNG in exactly the same order as
   before — stays here. *)
type leg = {
  depart : Time.t;
  arrive : Time.t;
  from_pos : Geom.Vec2.t;
  dest : Geom.Vec2.t;
}

type gen =
  | Static
  | Waypoint of {
      terrain : Geom.Terrain.t;
      rng : Rng.t;
      speed_min : float;
      speed_max : float;
      pause : Time.t;
    }
  | Scripted of {
      mutable remaining : (Time.t * Geom.Vec2.t) list;
      top : float; (* fastest segment, m/s *)
    }
  | Manhattan of {
      terrain : Geom.Terrain.t;
      rng : Rng.t;
      spacing : float;
      speed_min : float;
      speed_max : float;
      pause : Time.t;
      mutable dir : int; (* 0 = +x, 1 = +y, 2 = -x, 3 = -y *)
    }
  | Rpgm of { group : group; ox : float; oy : float }

and t = {
  mutable leg : leg;
  mutable leg_ix : int; (* index of [leg] in the model's leg sequence *)
  mutable last_query : Time.t;
  gen : gen;
}

(* An RPGM group's virtual reference point: a random-waypoint process
   whose legs are memoized in index order, so members at different leg
   indices (refreshed at different times) can each fetch leg [k]
   without querying a shared process non-monotonically. *)
and group = {
  g_terrain : Geom.Terrain.t;
  g_rng : Rng.t;
  g_speed_min : float;
  g_speed_max : float;
  g_pause : Time.t;
  mutable g_legs : leg array;
  mutable g_len : int;
}

let position_on leg t =
  if Time.(t <= leg.depart) then leg.from_pos
  else if Time.(t >= leg.arrive) then leg.dest
  else begin
    let total = Time.to_sec (Time.diff leg.arrive leg.depart) in
    let gone = Time.to_sec (Time.diff t leg.depart) in
    Geom.Vec2.lerp leg.from_pos leg.dest (gone /. total)
  end

let forever = Time.sec 1e9
let travel_time a b speed = Time.sec (Geom.Vec2.dist a b /. speed)

let waypoint_next ~terrain ~rng ~speed_min ~speed_max ~pause prev =
  if Geom.Vec2.equal prev.from_pos prev.dest then begin
    (* Pause done: move to a fresh waypoint. *)
    let dest = Geom.Terrain.random_point terrain rng in
    let speed = Rng.float_in rng speed_min speed_max in
    {
      depart = prev.arrive;
      arrive = Time.add prev.arrive (travel_time prev.dest dest speed);
      from_pos = prev.dest;
      dest;
    }
  end
  else
    (* Arrived: pause in place. *)
    {
      depart = prev.arrive;
      arrive = Time.add prev.arrive pause;
      from_pos = prev.dest;
      dest = prev.dest;
    }

let manhattan_step spacing (p : Geom.Vec2.t) = function
  | 0 -> Geom.Vec2.v (p.x +. spacing) p.y
  | 1 -> Geom.Vec2.v p.x (p.y +. spacing)
  | 2 -> Geom.Vec2.v (p.x -. spacing) p.y
  | _ -> Geom.Vec2.v p.x (p.y -. spacing)

let manhattan_next ~terrain ~rng ~spacing ~speed_min ~speed_max ~pause
    ~set_dir ~dir prev =
  if
    (not (Geom.Vec2.equal prev.from_pos prev.dest))
    && Time.(pause > Time.zero)
  then
    {
      depart = prev.arrive;
      arrive = Time.add prev.arrive pause;
      from_pos = prev.dest;
      dest = prev.dest;
    }
  else begin
    (* At an intersection: keep straight with probability 1/2, else turn
       left or right with probability 1/4 each; a move that would leave
       the terrain rotates left until one fits. *)
    let u = Rng.float rng 1. in
    let want =
      if u < 0.5 then dir
      else if u < 0.75 then (dir + 1) land 3
      else (dir + 3) land 3
    in
    let rec pick d k =
      if k = 4 then prev.dest (* boxed in: stay put *)
      else
        let q = manhattan_step spacing prev.dest d in
        if Geom.Terrain.contains terrain q then begin
          set_dir d;
          q
        end
        else pick ((d + 1) land 3) (k + 1)
    in
    let dest = pick want 0 in
    let speed = Rng.float_in rng speed_min speed_max in
    if Geom.Vec2.equal dest prev.dest then
      (* Degenerate terrain smaller than one block: idle a second. *)
      {
        depart = prev.arrive;
        arrive = Time.add prev.arrive (Time.sec 1.);
        from_pos = prev.dest;
        dest = prev.dest;
      }
    else
      {
        depart = prev.arrive;
        arrive = Time.add prev.arrive (travel_time prev.dest dest speed);
        from_pos = prev.dest;
        dest;
      }
  end

let group_leg g k =
  while g.g_len <= k do
    let prev = g.g_legs.(g.g_len - 1) in
    let next =
      waypoint_next ~terrain:g.g_terrain ~rng:g.g_rng
        ~speed_min:g.g_speed_min ~speed_max:g.g_speed_max ~pause:g.g_pause
        prev
    in
    if g.g_len = Array.length g.g_legs then begin
      let bigger = Array.make (2 * Array.length g.g_legs) next in
      Array.blit g.g_legs 0 bigger 0 g.g_len;
      g.g_legs <- bigger
    end;
    g.g_legs.(g.g_len) <- next;
    g.g_len <- g.g_len + 1
  done;
  g.g_legs.(k)

let rpgm_translate ~terrain ~ox ~oy (l : leg) =
  let shift (p : Geom.Vec2.t) =
    Geom.Terrain.clamp terrain (Geom.Vec2.v (p.x +. ox) (p.y +. oy))
  in
  { l with from_pos = shift l.from_pos; dest = shift l.dest }

(* Generate the leg after [t.leg] and install it.  Must keep legs
   contiguous: the new leg departs where and when the previous arrived. *)
let advance t =
  let prev = t.leg in
  let next =
    match t.gen with
    | Static -> { prev with depart = prev.arrive; arrive = forever }
    | Waypoint { terrain; rng; speed_min; speed_max; pause } ->
        waypoint_next ~terrain ~rng ~speed_min ~speed_max ~pause prev
    | Scripted s -> (
        match s.remaining with
        | [] ->
            {
              depart = prev.arrive;
              arrive = forever;
              from_pos = prev.dest;
              dest = prev.dest;
            }
        | (time, p) :: tl ->
            s.remaining <- tl;
            { depart = prev.arrive; arrive = time; from_pos = prev.dest; dest = p })
    | Manhattan m ->
        manhattan_next ~terrain:m.terrain ~rng:m.rng ~spacing:m.spacing
          ~speed_min:m.speed_min ~speed_max:m.speed_max ~pause:m.pause
          ~set_dir:(fun d -> m.dir <- d)
          ~dir:m.dir prev
    | Rpgm { group; ox; oy } ->
        rpgm_translate ~terrain:group.g_terrain ~ox ~oy
          (group_leg group (t.leg_ix + 1))
  in
  t.leg <- next;
  t.leg_ix <- t.leg_ix + 1

(* Queries may repeat or go back within the current leg (answered
   exactly from the leg), but never before its departure: the legs
   before it are gone. *)
let position t time =
  if Time.(time >= t.last_query) then begin
    t.last_query <- time;
    while Time.(time > t.leg.arrive) do
      advance t
    done;
    position_on t.leg time
  end
  else if Time.(time >= t.leg.depart) then position_on t.leg time
  else invalid_arg "Mobility.position: query precedes the current leg"

let static pos =
  let leg =
    { depart = Time.zero; arrive = forever; from_pos = pos; dest = pos }
  in
  { leg; leg_ix = 0; last_query = Time.zero; gen = Static }

let waypoint ~terrain ~rng ~speed_min ~speed_max ~pause ~start =
  if speed_min <= 0. || speed_min > speed_max then
    invalid_arg "Mobility.waypoint: need 0 < speed_min <= speed_max";
  (* Pause legs (from = dest) and motion legs take turns. *)
  let first =
    { depart = Time.zero; arrive = pause; from_pos = start; dest = start }
  in
  {
    leg = first;
    leg_ix = 0;
    last_query = Time.zero;
    gen = Waypoint { terrain; rng; speed_min; speed_max; pause };
  }

let scripted points =
  let rec check = function
    | [] | [ _ ] -> ()
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if Time.(t2 <= t1) then
          invalid_arg "Mobility.scripted: times must increase";
        check rest
  in
  match points with
  | [] -> invalid_arg "Mobility.scripted: empty trajectory"
  | (t0, p0) :: rest ->
      check points;
      let rec top = function
        | (t1, p1) :: ((t2, p2) :: _ as rest) ->
            Float.max
              (Geom.Vec2.dist p1 p2 /. Time.to_sec (Time.diff t2 t1))
              (top rest)
        | _ -> 0.
      in
      let first =
        { depart = Time.zero; arrive = t0; from_pos = p0; dest = p0 }
      in
      {
        leg = first;
        leg_ix = 0;
        last_query = Time.zero;
        gen = Scripted { remaining = rest; top = top points };
      }

let manhattan ~terrain ~rng ~spacing ~speed_min ~speed_max ~pause ~start =
  if spacing <= 0. then invalid_arg "Mobility.manhattan: non-positive spacing";
  if speed_min <= 0. || speed_min > speed_max then
    invalid_arg "Mobility.manhattan: need 0 < speed_min <= speed_max";
  (* Snap the start onto the street lattice. *)
  let snap v lim =
    Float.max 0. (Float.min lim (Float.round (v /. spacing) *. spacing))
  in
  let start =
    Geom.Vec2.v
      (snap start.Geom.Vec2.x terrain.Geom.Terrain.width)
      (snap start.Geom.Vec2.y terrain.Geom.Terrain.height)
  in
  let dir = Rng.int rng 4 in
  let first =
    { depart = Time.zero; arrive = pause; from_pos = start; dest = start }
  in
  {
    leg = first;
    leg_ix = 0;
    last_query = Time.zero;
    gen = Manhattan { terrain; rng; spacing; speed_min; speed_max; pause; dir };
  }

let rpgm_group ~terrain ~rng ~speed_min ~speed_max ~pause ~start =
  if speed_min <= 0. || speed_min > speed_max then
    invalid_arg "Mobility.rpgm_group: need 0 < speed_min <= speed_max";
  let first =
    { depart = Time.zero; arrive = pause; from_pos = start; dest = start }
  in
  {
    g_terrain = terrain;
    g_rng = rng;
    g_speed_min = speed_min;
    g_speed_max = speed_max;
    g_pause = pause;
    g_legs = Array.make 8 first;
    g_len = 1;
  }

let rpgm_member group ~ox ~oy =
  let first =
    rpgm_translate ~terrain:group.g_terrain ~ox ~oy (group_leg group 0)
  in
  {
    leg = first;
    leg_ix = 0;
    last_query = Time.zero;
    gen = Rpgm { group; ox; oy };
  }

(* A member's leg is its group's leg translated and clamped to the
   terrain; clamping is a projection onto a box, which never lengthens a
   move, so a member is no faster than its group. *)
let max_speed t =
  match t.gen with
  | Static -> 0.
  | Waypoint { speed_max; _ } | Manhattan { speed_max; _ } -> speed_max
  | Scripted { top; _ } -> top
  | Rpgm { group; _ } -> group.g_speed_max

(* [speed * dt] widened by a relative 1e-9 for the rounding of the
   conversion to seconds and of the products, and by an absolute
   micrometre for the rounding of interpolated coordinates. *)
let move_bound ~speed = (speed *. 1e-9 *. (1. +. 1e-9), 1e-6)

(* Struct-of-arrays position store: the per-node hot state (cached
   position + current leg window) lives in flat unboxed float/int arrays
   indexed by node id.  The common query — interpolate inside the current
   leg — runs entirely on scalars with zero allocation; only when a query
   passes the cached leg's arrival does it fall back to the underlying
   process, which advances legs and draws RNG in exactly the record
   path's per-node order.  Values are bit-identical to {!position} by
   construction: the scalar fast path replicates [position_on] +
   [Vec2.lerp] term for term. *)
module Pos_store = struct
  type process = t

  type t = {
    mob : process array;
    x : float array; (* cached position at [last_t] *)
    y : float array;
    depart : int array; (* current leg window, ns *)
    arrive : int array;
    total : float array; (* its duration, s: [Time.to_sec (arrive - depart)] *)
    fx : float array; (* leg endpoints *)
    fy : float array;
    dx : float array;
    dy : float array;
    last_t : int array; (* last refreshed query time, ns *)
  }

  let cache_leg s i =
    let l = s.mob.(i).leg in
    s.depart.(i) <- (l.depart :> int);
    s.arrive.(i) <- (l.arrive :> int);
    s.total.(i) <- float_of_int ((l.arrive :> int) - (l.depart :> int)) /. 1e9;
    s.fx.(i) <- l.from_pos.Geom.Vec2.x;
    s.fy.(i) <- l.from_pos.Geom.Vec2.y;
    s.dx.(i) <- l.dest.Geom.Vec2.x;
    s.dy.(i) <- l.dest.Geom.Vec2.y

  let of_array mobs ~(at : Time.t) =
    let n = Array.length mobs in
    let s =
      {
        mob = mobs;
        x = Array.make n 0.;
        y = Array.make n 0.;
        depart = Array.make n 0;
        arrive = Array.make n 0;
        total = Array.make n 0.;
        fx = Array.make n 0.;
        fy = Array.make n 0.;
        dx = Array.make n 0.;
        dy = Array.make n 0.;
        last_t = Array.make n (at :> int);
      }
    in
    for i = 0 to n - 1 do
      let p = position mobs.(i) at in
      cache_leg s i;
      s.x.(i) <- p.Geom.Vec2.x;
      s.y.(i) <- p.Geom.Vec2.y
    done;
    s

  let length s = Array.length s.mob
  let proc s i = s.mob.(i)

  let[@inline] refresh s i time =
    let tn = (time : Time.t :> int) in
    if tn <> s.last_t.(i) then begin
      if tn > s.arrive.(i) then begin
        (* Leg exhausted: advance the underlying process (RNG draws in
           the record path's per-node order) and re-cache its leg. *)
        let p = position s.mob.(i) time in
        cache_leg s i;
        s.x.(i) <- p.Geom.Vec2.x;
        s.y.(i) <- p.Geom.Vec2.y
      end
      else if tn <= s.depart.(i) then begin
        (* Only a backwards query can precede the current leg, and like
           the record path the store cannot answer it. *)
        if tn < s.depart.(i) then
          invalid_arg
            "Mobility.Pos_store.refresh: query precedes the current leg";
        s.x.(i) <- s.fx.(i);
        s.y.(i) <- s.fy.(i)
      end
      else begin
        (* Scalar replica of [position_on] + [Vec2.lerp].  Spelled as
           local float arithmetic rather than [Time.to_sec]/[Time.diff]:
           a float returned from a call the compiler does not inline is
           boxed, and this is the hottest loop in the SoA sweep, so it
           allocates nothing whatever the inliner decides.  [to_sec] is
           [float_of_int ns /. 1e9], so the rounding is term-for-term
           identical ([total] included). *)
        let gone = float_of_int (tn - s.depart.(i)) /. 1e9 in
        let u = gone /. s.total.(i) in
        s.x.(i) <- s.fx.(i) +. ((s.dx.(i) -. s.fx.(i)) *. u);
        s.y.(i) <- s.fy.(i) +. ((s.dy.(i) -. s.fy.(i)) *. u)
      end;
      s.last_t.(i) <- tn
    end

  (* One call per list: [refresh] inlines into the loop. *)
  let refresh_slots s slots n time =
    for k = 0 to n - 1 do
      refresh s slots.(k) time
    done

  let xs s = s.x
  let ys s = s.y
  let last_ts s = s.last_t

  let position s i time =
    refresh s i time;
    Geom.Vec2.v s.x.(i) s.y.(i)
end
