(* The generator state and its latest output live unboxed in one byte
   buffer — the 64-bit state at offset 0, the last mixed draw at 8 — so
   that advancing the stream allocates nothing: an [int64] record field
   would box on every write, and an [int64] return from a non-inlined
   function boxes too.  Both are written and read native-endian, so the
   bits round-trip exactly. *)
type t = { buf : Bytes.t }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 (Steele, Lea & Flood): tiny state, passes BigCrush, and
   derives independent streams cheaply -- ideal for simulation. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let buf = Bytes.create 16 in
  set64 buf 0 s;
  set64 buf 8 0L;
  { buf }

let create seed = of_state (mix (Int64.of_int seed))

(* Step the stream; the draw is then [get64 t.buf 8]. *)
let advance t =
  let s = Int64.add (get64 t.buf 0) golden_gamma in
  set64 t.buf 0 s;
  set64 t.buf 8 (mix s)

let bits64 t =
  advance t;
  get64 t.buf 8

(* Stream [k]: [t]'s state [k + 1] steps on, mixed twice -- what
   reseeding from [t]'s [k + 1]-th draw gives, without touching [t]. *)
let stream t k =
  let s = Int64.(add (get64 t.buf 0) (mul (of_int (k + 1)) golden_gamma)) in
  of_state (mix (mix s))

(* Reject to avoid modulo bias. *)
let rec int_draw t bound =
  advance t;
  let b = Int64.of_int bound in
  let r = Int64.shift_right_logical (get64 t.buf 8) 1 in
  let v = Int64.rem r b in
  if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int b) 1L then
    int_draw t bound
  else Int64.to_int v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_draw t bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  advance t;
  (* 53 uniform bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (get64 t.buf 8) 11 in
  Int64.to_float bits /. 9007199254740992. *. x

let float_in t lo hi =
  if lo > hi then invalid_arg "Rng.float_in: empty range";
  lo +. float t (hi -. lo)

let bool t =
  advance t;
  Int64.compare (Int64.logand (get64 t.buf 8) 1L) 0L <> 0

let coin t p = float t 1.0 < p

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 (* in (0, 1] to avoid log 0 *) in
  -.mean *. log u

(* [float t d] on the nanosecond count, truncated back to nanoseconds,
   computed in place: the draw and the duration stay unboxed. *)
let uniform_time t (d : Time.t) =
  advance t;
  let bits = Int64.shift_right_logical (get64 t.buf 8) 11 in
  let x = Int64.to_float (Int64.of_int (d :> int)) in
  let ns = Int64.of_float (Int64.to_float bits /. 9007199254740992. *. x) in
  Time.unsafe_of_ns (Int64.to_int ns)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
