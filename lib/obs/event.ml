type kind =
  | Tx
  | Rx
  | Collision
  | Ifq_drop
  | Deliver
  | Data_drop
  | Link_failure
  | Proto
  | Table_write
  | Violation
  | Span

let index = function
  | Tx -> 0 | Rx -> 1 | Collision -> 2 | Ifq_drop -> 3 | Deliver -> 4
  | Data_drop -> 5 | Link_failure -> 6 | Proto -> 7 | Table_write -> 8
  | Violation -> 9 | Span -> 10

type t = {
  mutable time : Sim.Time.t;
  mutable node : int;
  mutable kind : kind;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  mutable e : int;
  mutable f : int;
}

type inv = { i_sn : int; i_dist : int; i_fd : int }

let make () =
  {
    time = Sim.Time.zero;
    node = -1;
    kind = Proto;
    a = -1;
    b = -1;
    c = -1;
    d = -1;
    e = -1;
    f = -1;
  }

let copy_into ~src ~dst =
  dst.time <- src.time;
  dst.node <- src.node;
  dst.kind <- src.kind;
  dst.a <- src.a;
  dst.b <- src.b;
  dst.c <- src.c;
  dst.d <- src.d;
  dst.e <- src.e;
  dst.f <- src.f

let kind_name = function
  | Tx -> "tx"
  | Rx -> "rx"
  | Collision -> "col"
  | Ifq_drop -> "ifq"
  | Deliver -> "dlv"
  | Data_drop -> "drop"
  | Link_failure -> "lfail"
  | Proto -> "evt"
  | Table_write -> "rt"
  | Violation -> "viol"
  | Span -> "sp"

let kind_of_name = function
  | "tx" -> Some Tx
  | "rx" -> Some Rx
  | "col" -> Some Collision
  | "ifq" -> Some Ifq_drop
  | "dlv" -> Some Deliver
  | "drop" -> Some Data_drop
  | "lfail" -> Some Link_failure
  | "evt" -> Some Proto
  | "rt" -> Some Table_write
  | "viol" -> Some Violation
  | "sp" -> Some Span
  | _ -> None

let has_label = function
  | Tx | Rx | Collision | Ifq_drop | Data_drop | Proto -> true
  | Deliver | Link_failure | Table_write | Violation | Span -> false

(* Span lifecycle stages, encoded in field [a].  The table lives here
   (not in Span) so [pp] can render stage names without a dependency
   cycle. *)
let span_stage_name = function
  | 0 -> "originate"
  | 1 -> "buf_enter"
  | 2 -> "buf_exit"
  | 3 -> "mac_enq"
  | 4 -> "mac_deq"
  | 5 -> "mac_try"
  | 6 -> "mac_end"
  | 7 -> "mac_fail"
  | 8 -> "mac_drop"
  | 9 -> "ring"
  | 10 -> "agg"
  | _ -> "?"

(* Packed sequence numbers ([Seqnum.pack]): stamp in the high bits,
   counter in the low 31. *)
let pp_sn fmt sn =
  if sn < 0 then Format.pp_print_string fmt "-"
  else Format.fprintf fmt "%d.%d" (sn lsr 31) (sn land ((1 lsl 31) - 1))

let pp_opt_node fmt n =
  if n < 0 then Format.pp_print_string fmt "*" else Format.fprintf fmt "n%d" n

let pp ~name fmt ev =
  Format.fprintf fmt "[%10.6f] n%d " (Sim.Time.to_sec ev.time) ev.node;
  match ev.kind with
  | Tx ->
      Format.fprintf fmt "TX %s -> %a (%d B)" (name ev.a) pp_opt_node ev.b ev.c
  | Rx ->
      Format.fprintf fmt "RX %s from n%d -> %a" (name ev.a) ev.b pp_opt_node
        ev.c
  | Collision -> Format.fprintf fmt "COLLISION %s from n%d" (name ev.a) ev.b
  | Ifq_drop -> Format.fprintf fmt "IFQ-DROP %s -> %a" (name ev.a) pp_opt_node ev.b
  | Deliver ->
      Format.fprintf fmt "DELIVER flow %d seq %d from n%d (%d hops, %.2f ms)"
        ev.a ev.b ev.c ev.d
        (float_of_int ev.e /. 1e6)
  | Data_drop ->
      Format.fprintf fmt "DROP flow %d seq %d n%d -> n%d (%s)" ev.b ev.c ev.d
        ev.e (name ev.a)
  | Link_failure -> Format.fprintf fmt "LINK-FAILURE to n%d" ev.a
  | Proto ->
      Format.fprintf fmt "EVENT %s" (name ev.a);
      if ev.b >= 0 then Format.fprintf fmt " dst n%d" ev.b
  | Table_write ->
      Format.fprintf fmt "RT dst n%d succ %a -> %a dist %d fd %d sn %a"
        ev.a pp_opt_node ev.b pp_opt_node ev.c ev.d ev.e pp_sn ev.f
  | Violation ->
      Format.fprintf fmt
        "VIOLATION dst n%d succ n%d: own sn %a fd %d, succ sn %a fd %d" ev.a
        ev.b pp_sn ev.c ev.e pp_sn ev.d ev.f
  | Span ->
      Format.fprintf fmt "SPAN %s flow %d seq %d" (span_stage_name ev.a) ev.b
        ev.c;
      if ev.d >= 0 then Format.fprintf fmt " d=%d" ev.d;
      if ev.e >= 0 then Format.fprintf fmt " e=%d" ev.e;
      if ev.f >= 0 then Format.fprintf fmt " f=%d" ev.f
