(* Tests for the statistics helpers. *)

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)
let checkfa eps = Alcotest.check (Alcotest.float eps)

open Stats

let welford_mean_variance () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checkf "mean" 5. (Welford.mean w);
  (* Known sample: population variance 4, sample variance 32/7. *)
  checkfa 1e-9 "variance" (32. /. 7.) (Welford.variance w);
  Alcotest.check Alcotest.int "count" 8 (Welford.count w)

let welford_empty_and_single () =
  let w = Welford.create () in
  checkf "empty mean" 0. (Welford.mean w);
  checkf "empty var" 0. (Welford.variance w);
  checkf "empty ci" 0. (Welford.ci95 w);
  Welford.add w 42.;
  checkf "single mean" 42. (Welford.mean w);
  checkf "single var" 0. (Welford.variance w);
  checkf "single ci" 0. (Welford.ci95 w)

let welford_ci_small_sample () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 1.; 2.; 3. ];
  (* df=2 -> t=4.303; s = 1; ci = 4.303 * 1/sqrt(3). *)
  checkfa 1e-3 "ci95" (4.303 /. sqrt 3.) (Welford.ci95 w)

let welford_t_table () =
  checkfa 1e-9 "df1" 12.706 (Welford.t_critical ~df:1);
  checkfa 1e-9 "df30" 2.042 (Welford.t_critical ~df:30);
  checkfa 1e-9 "df1000 ~ z" 1.96 (Welford.t_critical ~df:1000);
  Alcotest.check_raises "df0"
    (Invalid_argument "Welford.t_critical: df must be positive") (fun () ->
      ignore (Welford.t_critical ~df:0))

(* ci95 across the t-table boundary: with df beyond the table the
   critical value falls back to the normal 1.96, and the half-width
   must follow t * s / sqrt(n) exactly on both sides of the edge. *)
let welford_ci_beyond_table () =
  let expect_ci n =
    let w = Welford.create () in
    for i = 1 to n do
      Welford.add w (float_of_int (i mod 5))
    done;
    let expected =
      Welford.t_critical ~df:(n - 1)
      *. Welford.stddev w
      /. sqrt (float_of_int n)
    in
    checkfa 1e-12 (Printf.sprintf "ci n=%d" n) expected (Welford.ci95 w);
    Welford.t_critical ~df:(n - 1)
  in
  (* df 30: last tabulated row; df 31 and beyond: z fallback. *)
  checkfa 1e-9 "edge uses table" 2.042 (expect_ci 31);
  checkfa 1e-9 "past edge uses z" 1.96 (expect_ci 32);
  checkfa 1e-9 "far past edge" 1.96 (expect_ci 200)

(* A table column folds in index order: the same floats as adding one
   sample at a time. *)
let welford_of_array () =
  let xs = [| 0.93; 0.871; 0.9; 0.4125; 0.77 |] in
  let w = Welford.create () in
  Array.iter (Welford.add w) xs;
  let v = Welford.of_array xs in
  Alcotest.check Alcotest.int "count" 5 (Welford.count v);
  checkb "mean and ci bit-identical" true
    (Welford.mean w = Welford.mean v && Welford.ci95 w = Welford.ci95 v)

let welford_of_array_empty () =
  let v = Welford.of_array [||] in
  Alcotest.check Alcotest.int "count" 0 (Welford.count v);
  checkf "mean" 0. (Welford.mean v);
  checkf "var" 0. (Welford.variance v);
  checkf "ci" 0. (Welford.ci95 v)

let welford_estimator_prop =
  QCheck.Test.make ~name:"welford matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      abs_float (Welford.mean w -. mean) < 1e-6)

(* ---- Hdr: log-bucketed histogram -------------------------------------- *)

let hdr_exact_small () =
  let h = Hdr.create () in
  List.iter (Hdr.add h) [ 5; 1; 3; 2; 4 ];
  (* Values below 2^sub_bits live in width-1 buckets: exact. *)
  Alcotest.check Alcotest.int "median" 3 (Hdr.quantile h 0.5);
  Alcotest.check Alcotest.int "min" 1 (Hdr.quantile h 0.);
  Alcotest.check Alcotest.int "max" 5 (Hdr.quantile h 1.);
  Alcotest.check Alcotest.int "count" 5 (Hdr.count h);
  Alcotest.check Alcotest.int "sum" 15 (Hdr.sum h);
  checkf "mean" 3. (Hdr.mean h)

let hdr_empty_and_bounds () =
  let h = Hdr.create () in
  Alcotest.check Alcotest.int "empty quantile" 0 (Hdr.quantile h 0.5);
  Alcotest.check Alcotest.int "empty min" 0 (Hdr.min_value h);
  Alcotest.check Alcotest.int "empty max" 0 (Hdr.max_value h);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Hdr.quantile: q outside [0,1]") (fun () ->
      ignore (Hdr.quantile h 1.5));
  Alcotest.check_raises "sub_bits out of range"
    (Invalid_argument "Hdr.create: sub_bits outside [0, 14]") (fun () ->
      ignore (Hdr.create ~sub_bits:15 ()));
  Hdr.add h (-3);
  Alcotest.check Alcotest.int "negatives clamp to 0" 0 (Hdr.quantile h 1.)

let hdr_extremes_clamped () =
  let h = Hdr.create () in
  Hdr.add h 7;
  Hdr.add h 5_000_000;
  Hdr.add h 5_000_000;
  (* Quantiles clamp to the recorded min/max, so single-valued tails
     come back exact even in wide buckets. *)
  Alcotest.check Alcotest.int "p0 exact" 7 (Hdr.quantile h 0.);
  Alcotest.check Alcotest.int "p100 exact" 5_000_000 (Hdr.quantile h 1.);
  Alcotest.check Alcotest.int "max_value" 5_000_000 (Hdr.max_value h);
  Alcotest.check Alcotest.int "min_value" 7 (Hdr.min_value h)

(* HDR quantile vs the exact sorted-array nearest-rank answer: always
   >= the exact value, and within the same bucket (so the error is
   bounded by the bucket's equivalent-value range). *)
let hdr_vs_sorted_prop =
  QCheck.Test.make ~count:200 ~name:"hdr quantile within bucket of exact"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 400) (int_bound 2_000_000))
        (make ~print:string_of_float Gen.(float_bound_inclusive 1.0)))
    (fun (xs, q) ->
      let h = Hdr.create () in
      List.iter (Hdr.add h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = sorted.(rank - 1) in
      let approx = Hdr.quantile h q in
      approx >= exact
      && approx <= Hdr.highest_equivalent h exact
      && Hdr.lowest_equivalent h approx <= exact)

let hdr_of_list xs =
  let h = Hdr.create () in
  List.iter (Hdr.add h) xs;
  h

let hdr_equal a b =
  Hdr.count a = Hdr.count b && Hdr.sum a = Hdr.sum b
  && Hdr.min_value a = Hdr.min_value b
  && Hdr.max_value a = Hdr.max_value b
  &&
  let buckets h =
    let acc = ref [] in
    Hdr.iter_buckets h (fun ~value ~count -> acc := (value, count) :: !acc);
    !acc
  in
  buckets a = buckets b

(* Merge is exactly the histogram of the concatenation, whichever way
   the parts are associated or ordered — the property that lets
   per-trial latency histograms be pooled exactly. *)
let hdr_merge_assoc_prop =
  QCheck.Test.make ~count:100 ~name:"hdr merge associative/commutative"
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 100) (int_bound 10_000_000))
        (list_of_size Gen.(0 -- 100) (int_bound 10_000_000))
        (list_of_size Gen.(0 -- 100) (int_bound 10_000_000)))
    (fun (xs, ys, zs) ->
      let whole = hdr_of_list (xs @ ys @ zs) in
      (* (x <- y) <- z *)
      let left = hdr_of_list xs in
      Hdr.merge_into ~into:left (hdr_of_list ys);
      Hdr.merge_into ~into:left (hdr_of_list zs);
      (* x <- (y <- z) *)
      let yz = hdr_of_list ys in
      Hdr.merge_into ~into:yz (hdr_of_list zs);
      let right = hdr_of_list xs in
      Hdr.merge_into ~into:right yz;
      (* z <- y <- x: commuted order *)
      let comm = hdr_of_list zs in
      Hdr.merge_into ~into:comm (hdr_of_list ys);
      Hdr.merge_into ~into:comm (hdr_of_list xs);
      hdr_equal whole left && hdr_equal left right && hdr_equal right comm)

let hdr_merge_mismatch () =
  let a = Hdr.create ~sub_bits:7 () in
  let b = Hdr.create ~sub_bits:8 () in
  Alcotest.check_raises "sub_bits mismatch"
    (Invalid_argument "Hdr.merge_into: sub_bits mismatch") (fun () ->
      Hdr.merge_into ~into:a b)


let table_renders () =
  let s =
    Table.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.check Alcotest.int "4 lines" 4 (List.length lines);
  (* All lines same width. *)
  (match lines with
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.check Alcotest.int "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output");
  checkb "contains alpha" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha") lines)

let table_pads_short_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  checkb "renders without error" true (String.length s > 0)

let mean_ci_format () =
  Alcotest.check Alcotest.string "format" "0.987 ± 0.004"
    (Table.mean_ci ~mean:0.9871 ~ci:0.0042)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "welford",
        [
          Alcotest.test_case "mean/variance" `Quick welford_mean_variance;
          Alcotest.test_case "empty/single" `Quick welford_empty_and_single;
          Alcotest.test_case "ci small sample" `Quick welford_ci_small_sample;
          Alcotest.test_case "t table" `Quick welford_t_table;
          Alcotest.test_case "ci beyond t-table" `Quick
            welford_ci_beyond_table;
          Alcotest.test_case "of_array" `Quick welford_of_array;
          Alcotest.test_case "of_array empty" `Quick welford_of_array_empty;
          qt welford_estimator_prop;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "exact small" `Quick hdr_exact_small;
          Alcotest.test_case "empty and bounds" `Quick hdr_empty_and_bounds;
          Alcotest.test_case "extremes clamped" `Quick hdr_extremes_clamped;
          Alcotest.test_case "merge mismatch" `Quick hdr_merge_mismatch;
          qt hdr_vs_sorted_prop;
          qt hdr_merge_assoc_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick table_renders;
          Alcotest.test_case "pads short rows" `Quick table_pads_short_rows;
          Alcotest.test_case "mean_ci" `Quick mean_ci_format;
        ] );
    ]
