(* Continuous loop-freedom monitor (paper, Section 3).

   LDR's global invariant: for every node n with successor s toward
   destination d,

     sn_s > sn_n  \/  (sn_s = sn_n  /\  fd_s < fd_n)

   — the successor's invariants dominate.  At s, fd only ratchets down
   within a sequence number and sn only grows, so a write at s can
   never break a predecessor's edge; checking each table write against
   the *current* invariants of the successor it installs is therefore
   a complete O(1)-per-write check.  The runner's O(N^2)
   successor-graph audit stays as the heavyweight cross-check. *)

type ring = {
  slots : Event.t array;
  mutable head : int;  (* next slot to overwrite *)
  mutable filled : int;
}

let ring () =
  { slots = Array.init 256 (fun _ -> Event.make ()); head = 0; filled = 0 }

(* Span records are pure lifecycle telemetry — never
   destination-relevant — so they take no ring capacity. *)
let push r (ev : Event.t) =
  if ev.kind <> Event.Span then begin
    Event.copy_into ~src:ev ~dst:r.slots.(r.head);
    r.head <- (r.head + 1) mod Array.length r.slots;
    if r.filled < Array.length r.slots then r.filled <- r.filled + 1
  end

(* Is this event part of the causal neighbourhood of destination [dst]? *)
let relevant_to ~dst (ev : Event.t) =
  match ev.kind with
  | Table_write | Violation -> ev.a = dst
  | Proto -> ev.b = dst
  | Data_drop -> ev.e = dst
  | Link_failure -> true
  | Tx | Rx | Collision | Ifq_drop | Deliver | Span -> false

(* Ring contents oldest-first, filtered to the destination's causal
   neighbourhood, rendered with [name]. *)
let window r ~name ~dst =
  let k = Array.length r.slots in
  let acc = ref [] in
  for i = 1 to r.filled do
    (* newest-first: head-1, head-2, ... *)
    let ev = r.slots.((r.head - i + k) mod k) in
    if relevant_to ~dst ev then
      acc := Format.asprintf "%a" (Event.pp ~name) ev :: !acc
  done;
  !acc

type t = {
  bus : Bus.t;
  lookup : node:int -> dst:int -> Event.inv option;
  ring : ring;
  mutable violations : int;
  mutable last_window : string list;
  quiet : bool;
  viol_ev : Event.t;  (* preallocated: dispatch must not reuse bus scratch *)
}

let violations t = t.violations
let last_window t = t.last_window

let check t (ev : Event.t) =
  (* ev is a Table_write installing successor ev.c; own invariants ride
     in the event (d = dist, e = fd, f = packed sn). *)
  match t.lookup ~node:ev.c ~dst:ev.a with
  | None -> ()
  | Some s ->
      let own_sn = ev.f and own_fd = ev.e in
      let dominated =
        s.Event.i_sn > own_sn || (s.Event.i_sn = own_sn && s.Event.i_fd < own_fd)
      in
      if not dominated then begin
        t.violations <- t.violations + 1;
        (* Window first: it must exclude the violation event itself,
           as the analyzer's window does. *)
        let name = Bus.name t.bus in
        let w = window t.ring ~name ~dst:ev.a in
        let v = t.viol_ev in
        v.Event.time <- ev.time;
        v.node <- ev.node;
        v.kind <- Event.Violation;
        v.a <- ev.a;
        v.b <- ev.c;
        v.c <- own_sn;
        v.d <- s.Event.i_sn;
        v.e <- own_fd;
        v.f <- s.Event.i_fd;
        Bus.dispatch t.bus v;
        t.last_window <- w;
        if not t.quiet then begin
          Format.eprintf "%a@." (Event.pp ~name) v;
          Format.eprintf "  last-%d event window for dst n%d:@."
            (Array.length t.ring.slots) ev.a;
          List.iter (fun l -> Format.eprintf "    %s@." l) w
        end
      end

let sink t (ev : Event.t) =
  push t.ring ev;
  match ev.kind with
  | Event.Table_write when ev.c >= 0 -> check t ev
  | _ -> ()

let create ?(quiet = false) ~lookup bus =
  let t =
    {
      bus;
      lookup;
      ring = ring ();
      violations = 0;
      last_window = [];
      quiet;
      viol_ev = Event.make ();
    }
  in
  Bus.add_sink bus (sink t);
  t
