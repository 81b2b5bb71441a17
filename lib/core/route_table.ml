open Sim
open Packets

type entry = {
  mutable sn : Seqnum.t;
  mutable dist : int;
  mutable fd : int;
  mutable next_hop : Node_id.t option;
  mutable expires : Time.t;
}

type t = {
  engine : Engine.t;
  entries : entry Node_id.Table.t;
  obs : Obs.Bus.t;
  owner : int;
}

let create ?obs ?(owner = -1) ~engine () =
  let obs = match obs with Some b -> b | None -> Obs.Bus.create () in
  { engine; entries = Node_id.Table.create 32; obs; owner }

let now t = Engine.now t.engine

let succ_int (e : entry) =
  match e.next_hop with Some n -> Node_id.to_int n | None -> -1

(* One event per structural table write: the monitor checks the written
   edge, the analyzer counts successor flaps. *)
let emit_write t ~dst ~old_succ (e : entry) =
  if Obs.Bus.on t.obs Table_write then
    Obs.Bus.table_write t.obs ~time:(now t) ~node:t.owner
      ~dst:(Node_id.to_int dst) ~old_succ ~new_succ:(succ_int e) ~dist:e.dist
      ~fd:e.fd ~sn:(Seqnum.pack e.sn)

let get t dst = Node_id.Table.find t.entries dst
let find t dst = match get t dst with e -> Some e | exception Not_found -> None

let is_active t e =
  match e.next_hop with Some _ -> Time.(e.expires > now t) | None -> false

let active t dst =
  match get t dst with
  | e -> if is_active t e then Some e else None
  | exception Not_found -> None

(* [e.next_hop = Some n], without building the [Some]. *)
let next_is e n =
  match e.next_hop with Some h -> Node_id.equal h n | None -> false

let remaining_lifetime t e =
  if Time.(e.expires > now t) then Time.diff e.expires (now t) else Time.zero

let refresh t e ~lifetime =
  let candidate = Time.add (now t) lifetime in
  if Time.(candidate > e.expires) then e.expires <- candidate

let apply_advert t ~dst ~adv_sn ~adv_dist ~via ~lifetime =
  let new_dist = adv_dist + 1 in
  let expires = Time.add (now t) lifetime in
  match get t dst with
  | exception Not_found ->
      let e =
        {
          sn = adv_sn;
          dist = new_dist;
          fd = new_dist;
          next_hop = Some via;
          expires;
        }
      in
      Node_id.Table.replace t.entries dst e;
      emit_write t ~dst ~old_succ:(-1) e;
      `Installed
  | e ->
      if not (Conditions.ndc ~sn:e.sn ~fd:e.fd ~adv_sn ~adv_dist) then begin
        (* NDC failed, but the same successor repeating the same-number
           route keeps it alive. *)
        if
          is_active t e && next_is e via && Seqnum.equal adv_sn e.sn
          && new_dist <= e.dist
        then begin
          let old_succ = succ_int e in
          e.dist <- new_dist;
          (* Procedure 3: feasible distance only ratchets down within a
             sequence number. *)
          e.fd <- Int.min e.fd new_dist;
          refresh t e ~lifetime;
          emit_write t ~dst ~old_succ e;
          `Refreshed
        end
        else `Rejected
      end
      else if
        (* Stable-path rule: with an active route and an equal number,
           only switch for a strictly shorter path. *)
        is_active t e
        && Seqnum.equal adv_sn e.sn
        && new_dist >= e.dist
        && not (next_is e via)
      then `Rejected
      else begin
        (* Procedure 3 (Set Route). *)
        let old_succ = succ_int e in
        let sn_increased = Seqnum.(adv_sn > e.sn) in
        e.sn <- adv_sn;
        e.dist <- new_dist;
        e.fd <- (if sn_increased then new_dist else Int.min e.fd new_dist);
        if not (next_is e via) then e.next_hop <- Some via;
        e.expires <- expires;
        emit_write t ~dst ~old_succ e;
        `Installed
      end

(* Drop the successor; the invariants stay. *)
let drop t dst e =
  let old_succ = succ_int e in
  e.next_hop <- None;
  if old_succ >= 0 then emit_write t ~dst ~old_succ e

let invalidate t dst =
  match get t dst with e -> drop t dst e | exception Not_found -> ()

let invalidate_via t neighbor =
  Node_id.Table.fold
    (fun dst e invalidated ->
      if next_is e neighbor then begin
        drop t dst e;
        dst :: invalidated
      end
      else invalidated)
    t.entries []

let fail_route t dst ~via =
  match get t dst with
  | e when next_is e via ->
      drop t dst e;
      `Invalidated
  | _ | (exception Not_found) -> `Untouched

(* Churn teardown: every active route is invalidated through the normal
   observable write (the monitor and flap analyzer must see the edges
   disappear — a silently vanishing successor could pair with a rebooted
   node's fresh state to fake a loop), then the entries are dropped. *)
let clear t =
  Node_id.Table.iter (drop t) t.entries;
  Node_id.Table.reset t.entries

let successor t dst =
  match active t dst with Some e -> e.next_hop | None -> None

let iter t f = Node_id.Table.iter (fun dst e -> f dst e) t.entries
