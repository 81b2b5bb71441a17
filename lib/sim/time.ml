type t = int

let zero = 0

let ns n =
  if Int64.compare n 0L < 0 then invalid_arg "Time.ns: negative";
  Int64.to_int n

let of_float_ns x =
  if not (Float.is_finite x) then invalid_arg "Time: non-finite duration";
  if x < 0. then invalid_arg "Time: negative duration";
  int_of_float (Float.round x)

let us x = of_float_ns (x *. 1e3)
let ms x = of_float_ns (x *. 1e6)
let sec x = of_float_ns (x *. 1e9)

let unsafe_of_ns n = n
let to_ns t = Int64.of_int t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let add a b = a + b

let diff a b =
  if b > a then invalid_arg "Time.diff: negative result";
  a - b

let mul t k =
  if k < 0 then invalid_arg "Time.mul: negative factor";
  t * k

let div t k =
  if k <= 0 then invalid_arg "Time.div: non-positive divisor";
  t / k

let scale t x =
  if x < 0. then invalid_arg "Time.scale: negative factor";
  of_float_ns (float_of_int t *. x)

let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let min (a : t) (b : t) = Stdlib.min a b
let max (a : t) (b : t) = Stdlib.max a b

let pp fmt t =
  let x = float_of_int t in
  if Stdlib.( < ) x 1e3 then Format.fprintf fmt "%.0fns" x
  else if Stdlib.( < ) x 1e6 then Format.fprintf fmt "%.3fus" (x /. 1e3)
  else if Stdlib.( < ) x 1e9 then Format.fprintf fmt "%.3fms" (x /. 1e6)
  else Format.fprintf fmt "%.3fs" (x /. 1e9)

let to_string t = Format.asprintf "%a" pp t
