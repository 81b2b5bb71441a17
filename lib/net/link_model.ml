(* Deterministic per-link propagation perturbations layered on the unit
   disk: log-normal shadowing and a time-windowed partition barrier.

   Shadowing draws one gain per unordered node pair from a seeded hash —
   no run-order dependence, so the same pair sees the same gain in every
   channel mode and every replay.  The draw is a
   Box-Muller normal in dB clamped to +-3 sigma; dividing by the path
   loss exponent converts the dB offset into a range factor, so a pair's
   effective disk radius is [range * gain].  [f_max] bounds the factor,
   letting the channel inflate its candidate queries so the superset
   still covers every decodable pair.

   The partition wall is a stateless predicate — a vertical barrier at
   [x] absorbing everything that would cross it inside [at, heal),
   evaluated per transmission rather than by mutating topology. *)

open Sim

type t = {
  shadow_seed : int;
  sigma_db : float;
  eta : float;
  f_max : float;
  has_shadow : bool;
  gains : (int, float) Hashtbl.t;
  wall_at : Time.t;
  wall_heal : Time.t;
  wall_x : float;
  has_wall : bool;
}

let create ?shadowing ?partition () =
  let shadow_seed, sigma_db, eta, has_shadow =
    match shadowing with
    | None -> (0, 0., 2., false)
    | Some (seed, sigma_db, eta) ->
        if sigma_db < 0. then
          invalid_arg "Link_model.create: sigma_db must be non-negative";
        if eta <= 0. then
          invalid_arg "Link_model.create: path-loss exponent must be positive";
        (seed, sigma_db, eta, true)
  in
  let wall_at, wall_heal, wall_x, has_wall =
    match partition with
    | None -> (Time.zero, Time.zero, 0., false)
    | Some (at, heal, x) ->
        if Time.(heal < at) then
          invalid_arg "Link_model.create: partition heals before it starts";
        (at, heal, x, true)
  in
  {
    shadow_seed;
    sigma_db;
    eta;
    f_max =
      (if has_shadow then Float.pow 10. (3. *. sigma_db /. (10. *. eta))
       else 1.);
    has_shadow;
    gains = Hashtbl.create (if has_shadow then 256 else 1);
    wall_at;
    wall_heal;
    wall_x;
    has_wall;
  }

let f_max t = t.f_max
let shadowed t = t.has_shadow
let partitioned t = t.has_wall

(* Gain for the unordered pair {a, b}: memoized so the steady state is a
   hash probe, computed from a pair-keyed splitmix stream on a miss.
   Symmetry (gain a b = gain b a) models reciprocal links and keeps
   unicast/ACK reachability consistent. *)
let gain t a b =
  if not t.has_shadow then 1.
  else begin
    let lo = if a < b then a else b and hi = if a < b then b else a in
    let key = (lo * 1_048_573) + hi in
    match Hashtbl.find_opt t.gains key with
    | Some g -> g
    | None ->
        let rng = Rng.create (t.shadow_seed lxor key) in
        (* u1 in (0, 1] keeps the log finite. *)
        let u1 = 1. -. Rng.float rng 1. in
        let u2 = Rng.float rng 1. in
        let g_db =
          t.sigma_db *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
        in
        let g_db = Float.max (-3. *. t.sigma_db) (Float.min (3. *. t.sigma_db) g_db) in
        let g = Float.pow 10. (g_db /. (10. *. t.eta)) in
        Hashtbl.add t.gains key g;
        g
  end

let blocked t ~now ~x1 ~x2 =
  t.has_wall
  && Time.(now >= t.wall_at)
  && Time.(now < t.wall_heal)
  && x1 < t.wall_x <> (x2 < t.wall_x)
