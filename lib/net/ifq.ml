(* Fixed-capacity ring buffer.  The backing array is allocated lazily at
   the first push and never grows — the capacity is the drop-tail bound.
   A popped or cleared slot is overwritten with the caller's [empty]
   sentinel, so the queue keeps no dequeued element alive, and the
   steady state allocates nothing. *)
type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  capacity : int;
  empty : 'a;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
  mutable drops : int;
}

let create ~capacity ~empty =
  if capacity <= 0 then invalid_arg "Ifq.create: non-positive capacity";
  { buf = [||]; capacity; empty; head = 0; len = 0; drops = 0 }

let push t x =
  if t.len >= t.capacity then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    if Array.length t.buf = 0 then t.buf <- Array.make t.capacity t.empty;
    t.buf.((t.head + t.len) mod t.capacity) <- x;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then invalid_arg "Ifq.pop: empty queue";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.empty;
  t.head <- (t.head + 1) mod t.capacity;
  t.len <- t.len - 1;
  x

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.empty;
  t.head <- 0;
  t.len <- 0

let length t = t.len
let is_empty t = t.len = 0
let drops t = t.drops
