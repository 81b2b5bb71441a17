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

type t = {
  bus : Bus.t;
  lookup : node:int -> dst:int -> Event.inv option;
  ring : Event.t array;
  mutable head : int;  (* next slot to overwrite *)
  mutable filled : int;
  mutable violations : int;
  mutable last_window : string list;
  quiet : bool;
  viol_ev : Event.t;  (* preallocated: dispatch must not reuse bus scratch *)
}

let default_ring = 256

let push t ev =
  let slot = t.ring.(t.head) in
  Event.copy_into ~src:ev ~dst:slot;
  t.head <- (t.head + 1) mod Array.length t.ring;
  if t.filled < Array.length t.ring then t.filled <- t.filled + 1

(* Ring contents oldest-first, filtered to the destination's causal
   neighbourhood, rendered with the bus's intern table. *)
let window t ~dst =
  let k = Array.length t.ring in
  let acc = ref [] in
  for i = 1 to t.filled do
    (* newest-first: head-1, head-2, ... *)
    let idx = (t.head - i + (2 * k)) mod k in
    let ev = t.ring.(idx) in
    if Event.relevant_to ~dst ev then
      acc := Format.asprintf "%a" (Event.pp ~name:(Bus.name t.bus)) ev :: !acc
  done;
  !acc

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
           matching what the analyzer reconstructs from the trace. *)
        let w = window t ~dst:ev.a in
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
          Format.eprintf "%a@."
            (Event.pp ~name:(Bus.name t.bus))
            v;
          Format.eprintf "  last-%d event window for dst n%d:@."
            (Array.length t.ring) ev.a;
          List.iter (fun l -> Format.eprintf "    %s@." l) w
        end
      end

let sink t (ev : Event.t) =
  (* Span records are pure lifecycle telemetry — never
     destination-relevant, so keeping them out of the ring preserves
     the PR-3 window contents (and the analyzer's reconstruction,
     which skips them symmetrically in [Reader.violation_window]). *)
  if ev.kind <> Event.Span then push t ev;
  match ev.kind with
  | Event.Table_write when ev.c >= 0 -> check t ev
  | _ -> ()

let create ?(quiet = false) ~lookup bus =
  let t =
    {
      bus;
      lookup;
      ring = Array.init default_ring (fun _ -> Event.make ());
      head = 0;
      filled = 0;
      violations = 0;
      last_window = [];
      quiet;
      viol_ev = Event.make ();
    }
  in
  Bus.add_sink bus (sink t);
  t
