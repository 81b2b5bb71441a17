(* Tests for Vec2 and Terrain. *)

open Geom

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let vec_basic () =
  let a = Vec2.v 3. 4. in
  checkf "norm" 5. (Vec2.norm a);
  checkf "dist to origin" 5. (Vec2.dist a Vec2.zero);
  checkf "dist2" 25. (Vec2.dist2 a Vec2.zero);
  let b = Vec2.add a (Vec2.v 1. 1.) in
  checkf "add x" 4. b.Vec2.x;
  checkf "add y" 5. b.Vec2.y;
  let c = Vec2.sub b a in
  checkf "sub x" 1. c.Vec2.x;
  let d = Vec2.scale 2. a in
  checkf "scale" 10. (Vec2.norm d);
  checkf "dot" 25. (Vec2.dot a a)

let vec_lerp () =
  let a = Vec2.v 0. 0. and b = Vec2.v 10. 20. in
  let mid = Vec2.lerp a b 0.5 in
  checkf "mid x" 5. mid.Vec2.x;
  checkf "mid y" 10. mid.Vec2.y;
  checkb "lerp 0 = a" true (Vec2.equal (Vec2.lerp a b 0.) a);
  checkb "lerp 1 = b" true (Vec2.equal (Vec2.lerp a b 1.) b)

let vec_normalize () =
  let a = Vec2.v 0. 5. in
  let n = Vec2.normalize a in
  checkf "unit norm" 1. (Vec2.norm n);
  checkb "zero stays zero" true (Vec2.equal (Vec2.normalize Vec2.zero) Vec2.zero)

let terrain_contains () =
  let t = Terrain.create ~width:100. ~height:50. in
  checkb "inside" true (Terrain.contains t (Vec2.v 50. 25.));
  checkb "corner" true (Terrain.contains t (Vec2.v 0. 0.));
  checkb "far corner" true (Terrain.contains t (Vec2.v 100. 50.));
  checkb "outside x" false (Terrain.contains t (Vec2.v 101. 25.));
  checkb "outside y" false (Terrain.contains t (Vec2.v 50. (-1.)))

let terrain_clamp () =
  let t = Terrain.create ~width:100. ~height:50. in
  let p = Terrain.clamp t (Vec2.v 200. (-10.)) in
  checkf "clamp x" 100. p.Vec2.x;
  checkf "clamp y" 0. p.Vec2.y;
  let q = Vec2.v 42. 13. in
  checkb "inside unchanged" true (Vec2.equal q (Terrain.clamp t q))

let terrain_random_points () =
  let t = Terrain.create ~width:1500. ~height:300. in
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 1000 do
    checkb "random point inside" true (Terrain.contains t (Terrain.random_point t rng))
  done

let terrain_invalid () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Terrain.create: non-positive size") (fun () ->
      ignore (Terrain.create ~width:0. ~height:5.))

let terrain_measures () =
  let t = Terrain.create ~width:30. ~height:40. in
  checkf "diagonal" 50. (Terrain.diagonal t);
  checkf "area" 1200. (Terrain.area t)

(* qcheck properties *)

let vec_gen =
  QCheck.map
    (fun (x, y) -> Vec2.v x y)
    QCheck.(pair (float_bound_exclusive 1000.) (float_bound_exclusive 1000.))

let triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:500
    (QCheck.triple vec_gen vec_gen vec_gen)
    (fun (a, b, c) -> Vec2.dist a c <= Vec2.dist a b +. Vec2.dist b c +. 1e-6)

let dist_symmetric =
  QCheck.Test.make ~name:"dist symmetric" ~count:500 (QCheck.pair vec_gen vec_gen)
    (fun (a, b) -> abs_float (Vec2.dist a b -. Vec2.dist b a) < 1e-9)

let clamp_idempotent =
  QCheck.Test.make ~name:"clamp idempotent & contained" ~count:500 vec_gen
    (fun p ->
      let t = Terrain.create ~width:300. ~height:200. in
      let c = Terrain.clamp t p in
      Terrain.contains t c && Vec2.equal c (Terrain.clamp t c))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "geom"
    [
      ( "vec2",
        [
          Alcotest.test_case "basics" `Quick vec_basic;
          Alcotest.test_case "lerp" `Quick vec_lerp;
          Alcotest.test_case "normalize" `Quick vec_normalize;
          qt triangle_inequality;
          qt dist_symmetric;
        ] );
      ( "terrain",
        [
          Alcotest.test_case "contains" `Quick terrain_contains;
          Alcotest.test_case "clamp" `Quick terrain_clamp;
          Alcotest.test_case "random points inside" `Quick terrain_random_points;
          Alcotest.test_case "invalid" `Quick terrain_invalid;
          Alcotest.test_case "measures" `Quick terrain_measures;
          qt clamp_idempotent;
        ] );
    ]
