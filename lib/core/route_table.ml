open Sim
open Packets

type alternate = { alt_via : Node_id.t; alt_adv : int; alt_dist : int }

type entry = {
  mutable sn : Seqnum.t;
  mutable dist : int;
  mutable fd : int;
  mutable next_hop : Node_id.t option;
  mutable expires : Time.t;
  mutable alternates : alternate list;
}

type t = {
  engine : Engine.t;
  entries : entry Node_id.Table.t;
  multipath : bool;
  obs : Obs.Bus.t;
  owner : int;
}

let create ?(multipath = false) ?obs ?(owner = -1) ~engine () =
  let obs = match obs with Some b -> b | None -> Obs.Bus.create () in
  { engine; entries = Node_id.Table.create 32; multipath; obs; owner }

let now t = Engine.now t.engine

let succ_int (e : entry) =
  match e.next_hop with Some n -> Node_id.to_int n | None -> -1

(* One event per structural table write: the monitor checks the written
   edge, the analyzer counts successor flaps. *)
let emit_write t ~dst ~old_succ (e : entry) =
  if Obs.Bus.on t.obs then
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

(* LFI feasibility of a stored alternate under the entry's current fd:
   fd only ratchets down within a number, so this must be re-checked at
   every use. *)
let feasible_alt (e : entry) a = a.alt_adv < e.fd

let prune_alternates e =
  e.alternates <- List.filter (feasible_alt e) e.alternates

let remember_alternate t e ~via ~adv_dist ~lc =
  if t.multipath && adv_dist < e.fd && not (next_is e via) then begin
    let others = List.filter (fun a -> not (Node_id.equal a.alt_via via)) e.alternates in
    e.alternates <-
      { alt_via = via; alt_adv = adv_dist; alt_dist = adv_dist + lc } :: others
  end

let drop_alternate e via =
  e.alternates <- List.filter (fun a -> not (Node_id.equal a.alt_via via)) e.alternates

let apply_advert t ~lc ~dst ~adv_sn ~adv_dist ~via ~lifetime =
  if lc <= 0 then invalid_arg "Route_table.apply_advert: link cost must be positive";
  let new_dist = adv_dist + lc in
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
          alternates = [];
        }
      in
      Node_id.Table.replace t.entries dst e;
      emit_write t ~dst ~old_succ:(-1) e;
      `Installed
  | e ->
      if not (Conditions.ndc ~sn:e.sn ~fd:e.fd ~adv_sn ~adv_dist) then begin
        (* This neighbor can no longer serve as an alternate either. *)
        if Seqnum.equal adv_sn e.sn then drop_alternate e via;
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
          e.fd <- Stdlib.min e.fd new_dist;
          prune_alternates e;
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
      then begin
        (* Feasible but not better: exactly the LFI alternate case. *)
        remember_alternate t e ~via ~adv_dist ~lc;
        `Rejected
      end
      else begin
        (* Procedure 3 (Set Route). *)
        let old_succ = succ_int e in
        let sn_increased = Seqnum.(adv_sn > e.sn) in
        e.sn <- adv_sn;
        e.dist <- new_dist;
        e.fd <- (if sn_increased then new_dist else Stdlib.min e.fd new_dist);
        e.next_hop <- Some via;
        e.expires <- expires;
        if sn_increased then e.alternates <- []
        else begin
          drop_alternate e via;
          prune_alternates e
        end;
        emit_write t ~dst ~old_succ e;
        `Installed
      end

let invalidate t dst =
  match find t dst with
  | None -> ()
  | Some e ->
      let old_succ = succ_int e in
      e.next_hop <- None;
      if old_succ >= 0 then emit_write t ~dst ~old_succ e

(* Best alternate = smallest distance through it, ties to smaller id. *)
let best_alternate e =
  List.fold_left
    (fun acc a ->
      if not (feasible_alt e a) then acc
      else
        match acc with
        | Some b
          when b.alt_dist < a.alt_dist
               || (b.alt_dist = a.alt_dist
                  && Node_id.compare b.alt_via a.alt_via <= 0) ->
            acc
        | _ -> Some a)
    None e.alternates

let invalidate_via t neighbor =
  Node_id.Table.fold
    (fun dst e (invalidated, promoted) ->
      drop_alternate e neighbor;
      if next_is e neighbor then begin
        let old_succ = succ_int e in
        match if t.multipath then best_alternate e else None with
        | Some a ->
            (* LFI failover: a.alt_adv < fd, so the switch cannot form a
               loop; our distance may grow but never below fd. *)
            e.next_hop <- Some a.alt_via;
            e.dist <- a.alt_dist;
            e.alternates <-
              List.filter (fun x -> not (Node_id.equal x.alt_via a.alt_via))
                e.alternates;
            emit_write t ~dst ~old_succ e;
            (invalidated, dst :: promoted)
        | None ->
            e.next_hop <- None;
            emit_write t ~dst ~old_succ e;
            (dst :: invalidated, promoted)
      end
      else (invalidated, promoted))
    t.entries ([], [])

let fail_route t dst ~via =
  match find t dst with
  | None -> `Untouched
  | Some e ->
      drop_alternate e via;
      if not (next_is e via) then `Untouched
      else begin
        let old_succ = succ_int e in
        match if t.multipath then best_alternate e else None with
        | Some a ->
            e.next_hop <- Some a.alt_via;
            e.dist <- a.alt_dist;
            e.alternates <-
              List.filter (fun x -> not (Node_id.equal x.alt_via a.alt_via))
                e.alternates;
            emit_write t ~dst ~old_succ e;
            `Promoted
        | None ->
            e.next_hop <- None;
            emit_write t ~dst ~old_succ e;
            `Invalidated
      end

(* Churn teardown: every active route is invalidated through the normal
   observable write (the monitor and flap analyzer must see the edges
   disappear — a silently vanishing successor could pair with a rebooted
   node's fresh state to fake a loop), then the entries are dropped. *)
let clear t =
  Node_id.Table.iter
    (fun dst e ->
      let old_succ = succ_int e in
      e.next_hop <- None;
      e.alternates <- [];
      if old_succ >= 0 then emit_write t ~dst ~old_succ e)
    t.entries;
  Node_id.Table.reset t.entries

let successor t dst =
  match active t dst with Some e -> e.next_hop | None -> None

let iter t f = Node_id.Table.iter (fun dst e -> f dst e) t.entries
