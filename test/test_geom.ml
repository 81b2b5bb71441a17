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

(* ---- Cell_index -------------------------------------------------------- *)

(* The cell holding member [i], found by scanning every cell's members
   (-1 if none); [cells_holding] counts the cells that list it. *)
let cells_holding t i =
  let found = ref (-1) and times = ref 0 in
  for c = 0 to (Cell_index.cols t * Cell_index.rows t) - 1 do
    let arr = Cell_index.members t c in
    for k = 0 to Cell_index.count t c - 1 do
      if arr.(k) = i then begin
        found := c;
        incr times
      end
    done
  done;
  (!found, !times)

let cell_holding t i = fst (cells_holding t i)

(* The cell the interface documents for a position: floor of each
   coordinate over the cell side, clamped to the grid. *)
let documented_cell t ~cell ~x ~y =
  let axis v n = Int.max 0 (Int.min (n - 1) (int_of_float (Float.floor (v /. cell)))) in
  let cols = Cell_index.cols t in
  (axis y (Cell_index.rows t) * cols) + axis x cols

let cell_index_basic () =
  let t = Cell_index.create ~cell:10. ~width:100. ~height:50. ~ids:8 in
  checkb "empty" true (Cell_index.population t = 0);
  checkb "grid" true (Cell_index.cols t = 11 && Cell_index.rows t = 6);
  Cell_index.update t 0 ~x:5. ~y:5.;
  Cell_index.update t 1 ~x:6. ~y:6.;
  Cell_index.update t 2 ~x:95. ~y:45.;
  checkb "population" true (Cell_index.population t = 3);
  checkb "mem" true (Cell_index.mem t 1);
  checkb "not mem" false (Cell_index.mem t 3);
  checkb "near members share cell 0" true
    (cell_holding t 0 = 0 && cell_holding t 1 = 0);
  checkb "far member in its own cell" true
    (cell_holding t 2 = (4 * 11) + 9);
  checkb "absent member in no cell" true (cell_holding t 3 = -1)

let cell_index_move_remove () =
  let t = Cell_index.create ~cell:10. ~width:100. ~height:50. ~ids:4 in
  Cell_index.update t 0 ~x:5. ~y:5.;
  (* Same-cell move is a no-op; cross-cell move relocates. *)
  Cell_index.update t 0 ~x:7. ~y:8.;
  checkb "still one member" true (Cell_index.population t = 1);
  checkb "same cell" true (cells_holding t 0 = (0, 1));
  Cell_index.update t 0 ~x:95. ~y:45.;
  checkb "left old cell, entered new cell" true
    (cells_holding t 0 = ((4 * 11) + 9, 1));
  Cell_index.remove t 0;
  checkb "removed" false (Cell_index.mem t 0);
  checkb "in no cell" true (cell_holding t 0 = -1);
  Cell_index.remove t 0;
  (* double remove is a no-op *)
  checkb "empty again" true (Cell_index.population t = 0);
  (* Positions outside the arena clamp to border cells, never crash. *)
  Cell_index.update t 1 ~x:(-10.) ~y:500.;
  checkb "clamped to the bottom-left border cell" true
    (cell_holding t 1 = 5 * 11)

let cell_index_contract =
  (* Randomized inserts, moves (some outside the arena or on cell
     borders) and removals: every present member is listed exactly once,
     in the cell the interface documents, and stats stay coherent.  That
     the channel's walk over these cells finds every radio in range is
     checked against the brute-force scan in test_net. *)
  QCheck.Test.make ~name:"members sit in their documented cell" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Sim.Rng.create (seed + 1) in
      let n = 40 and cell = 25. in
      let t = Cell_index.create ~cell ~width:200. ~height:100. ~ids:n in
      let xs = Array.make n 0. and ys = Array.make n 0. in
      let present = Array.make n false in
      let coord hi =
        match Sim.Rng.int rng 4 with
        | 0 -> cell *. float_of_int (Sim.Rng.int rng 10)
        | 1 -> Sim.Rng.float rng (hi +. 40.) -. 20.
        | _ -> Sim.Rng.float rng hi
      in
      for _ = 1 to 120 do
        let i = Sim.Rng.int rng n in
        if Sim.Rng.int rng 5 = 0 then begin
          Cell_index.remove t i;
          present.(i) <- false
        end
        else begin
          xs.(i) <- coord 200.;
          ys.(i) <- coord 100.;
          Cell_index.update t i ~x:xs.(i) ~y:ys.(i);
          present.(i) <- true
        end
      done;
      let ok = ref true and live = ref 0 in
      for i = 0 to n - 1 do
        let expected =
          if present.(i) then begin
            incr live;
            (documented_cell t ~cell ~x:xs.(i) ~y:ys.(i), 1)
          end
          else (-1, 0)
        in
        ok := !ok && cells_holding t i = expected
          && Cell_index.mem t i = present.(i)
      done;
      let s = Cell_index.stats t in
      !ok && s.Cell_index.occupied <= s.Cell_index.cells
      && s.Cell_index.max_occupancy <= n
      && Cell_index.population t = !live)

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
      ( "cell-index",
        [
          Alcotest.test_case "basics" `Quick cell_index_basic;
          Alcotest.test_case "move/remove/clamp" `Quick cell_index_move_remove;
          qt cell_index_contract;
        ] );
    ]
