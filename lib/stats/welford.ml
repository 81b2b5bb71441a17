type t = { mutable n : int; mutable mean : float; mutable m2 : float }

let create () = { n = 0; mean = 0.; m2 = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let count t = t.n
let mean t = t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

(* Two-sided 95% critical values of the t distribution. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_critical ~df =
  if df <= 0 then invalid_arg "Welford.t_critical: df must be positive";
  if df <= Array.length t_table then t_table.(df - 1) else 1.96

let ci95 t =
  if t.n < 2 then 0.
  else t_critical ~df:(t.n - 1) *. stddev t /. sqrt (float_of_int t.n)
