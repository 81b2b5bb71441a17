(* Log-linear histogram, HdrHistogram-style, specialised to OCaml's
   63-bit immediate ints.

   Bucket layout for sub_bits = p: values in [0, 2^p) map to index v
   (exact, width-1 buckets).  A value v >= 2^p with top bit k
   (2^k <= v < 2^(k+1)) maps to

     index = ((k - p + 1) lsl p) lor ((v - 2^k) lsr (k - p))

   i.e. each power-of-two range [2^k, 2^(k+1)) contributes 2^p
   sub-buckets of width 2^(k-p).  For k = p this continues the linear
   region seamlessly.  k is at most 61 for positive ints, so the
   table has (63 - p) * 2^p slots — about 7k cells (56 KB) at the
   default p = 7. *)

type t = {
  sub_bits : int;
  sub_count : int; (* 2^sub_bits *)
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(sub_bits = 7) () =
  if sub_bits < 0 || sub_bits > 14 then
    invalid_arg "Hdr.create: sub_bits outside [0, 14]";
  let sub_count = 1 lsl sub_bits in
  {
    sub_bits;
    sub_count;
    counts = Array.make ((63 - sub_bits) * sub_count) 0;
    total = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

(* Position of the highest set bit of v > 0, allocation-free (no refs,
   no tuples — just shadowing). *)
let bit_length v =
  let k = if v lsr 32 <> 0 then 32 else 0 in
  let k = if v lsr (k + 16) <> 0 then k + 16 else k in
  let k = if v lsr (k + 8) <> 0 then k + 8 else k in
  let k = if v lsr (k + 4) <> 0 then k + 4 else k in
  let k = if v lsr (k + 2) <> 0 then k + 2 else k in
  if v lsr (k + 1) <> 0 then k + 1 else k

let index t v =
  if v < t.sub_count then v
  else
    let k = bit_length v in
    ((k - t.sub_bits + 1) lsl t.sub_bits)
    lor ((v - (1 lsl k)) lsr (k - t.sub_bits))

(* Inverse: lowest value mapping to index i. *)
let value_at t i =
  if i < t.sub_count then i
  else
    let m = i lsr t.sub_bits in
    let k = m + t.sub_bits - 1 in
    let sub = i land (t.sub_count - 1) in
    (1 lsl k) lor (sub lsl (k - t.sub_bits))

let bucket_width t i =
  if i < t.sub_count then 1
  else
    let k = (i lsr t.sub_bits) + t.sub_bits - 1 in
    1 lsl (k - t.sub_bits)

let add t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total
let min_value t = if t.total = 0 then 0 else t.min_v
let max_value t = t.max_v
let sub_bits t = t.sub_bits

let lowest_equivalent t v =
  let v = if v < 0 then 0 else v in
  value_at t (index t v)

let highest_equivalent t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  value_at t i + bucket_width t i - 1

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Hdr.quantile: q outside [0,1]";
  if t.total = 0 then 0
  else begin
    let r = int_of_float (Float.ceil (q *. float_of_int t.total)) in
    let rank = if r < 1 then 1 else if r > t.total then t.total else r in
    let n = Array.length t.counts in
    let rec walk i cum =
      if i >= n then t.max_v
      else
        let cum = cum + t.counts.(i) in
        if cum >= rank then
          let v = value_at t i + bucket_width t i - 1 in
          if v < t.min_v then t.min_v else if v > t.max_v then t.max_v else v
        else walk (i + 1) cum
    in
    walk 0 0
  end

let merge_into ~into src =
  if into.sub_bits <> src.sub_bits then
    invalid_arg "Hdr.merge_into: sub_bits mismatch";
  for i = 0 to Array.length src.counts - 1 do
    let c = src.counts.(i) in
    if c <> 0 then into.counts.(i) <- into.counts.(i) + c
  done;
  into.total <- into.total + src.total;
  into.sum <- into.sum + src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let iter_buckets t f =
  for i = 0 to Array.length t.counts - 1 do
    let c = t.counts.(i) in
    if c <> 0 then f ~value:(value_at t i + bucket_width t i - 1) ~count:c
  done
