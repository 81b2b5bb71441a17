open Sim
open Packets

type item = { msg : Data_msg.t; buffered_at : Time.t }

type t = {
  engine : Engine.t;
  capacity : int;
  max_age : Time.t;
  on_drop : Data_msg.t -> reason:string -> unit;
  by_dst : item Queue.t Node_id.Table.t;
  mutable count : int;
  obs : Obs.Bus.t;
  owner : int; (* node id for span records, -1 unattributed *)
}

let create ?obs ?(owner = -1) ~engine ~capacity ~max_age ~on_drop () =
  if capacity <= 0 then invalid_arg "Packet_buffer.create: capacity";
  let obs = match obs with Some b -> b | None -> Obs.Bus.create () in
  {
    engine;
    capacity;
    max_age;
    on_drop;
    by_dst = Node_id.Table.create 16;
    count = 0;
    obs;
    owner;
  }

(* Buffer residency spans: enter on push, exit on take.  Packets that
   expire or are evicted get no exit span — their Data_drop event ends
   the path, and the analyzer treats the residency as unterminated. *)
let emit_span t ~stage (msg : Data_msg.t) =
  if Obs.Bus.on t.obs Span then
    Obs.Bus.span t.obs
      ~time:(Engine.now t.engine)
      ~node:t.owner ~stage ~flow:msg.Data_msg.flow_id ~seq:msg.Data_msg.seq
      ~d:(Node_id.to_int msg.Data_msg.dst)
      ~e:(-1) ~f:(-1)

let fresh t item =
  Time.(Time.add item.buffered_at t.max_age > Engine.now t.engine)

(* Drop expired packets at the head of a destination queue. *)
let rec trim_expired t q =
  match Queue.peek_opt q with
  | Some item when not (fresh t item) ->
      ignore (Queue.pop q);
      t.count <- t.count - 1;
      t.on_drop item.msg ~reason:"buffer-timeout";
      trim_expired t q
  | Some _ | None -> ()

let queue_for t dst =
  match Node_id.Table.find_opt t.by_dst dst with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Node_id.Table.replace t.by_dst dst q;
      q

(* Emptied queues leave the table immediately: a long mobile run buffers
   for ever-changing destinations, and keeping a dead queue per
   destination ever seen is an unbounded leak. *)
let prune t dst q = if Queue.is_empty q then Node_id.Table.remove t.by_dst dst

(* Evict the globally oldest packet to make room. *)
let evict_oldest t =
  let oldest = ref None in
  Node_id.Table.iter
    (fun dst q ->
      match Queue.peek_opt q with
      | Some item -> (
          match !oldest with
          | Some (best, _, _) when Time.(best.buffered_at <= item.buffered_at) ->
              ()
          | _ -> oldest := Some (item, dst, q))
      | None -> ())
    t.by_dst;
  match !oldest with
  | None -> ()
  | Some (_, dst, q) ->
      let item = Queue.pop q in
      t.count <- t.count - 1;
      prune t dst q;
      t.on_drop item.msg ~reason:"buffer-evicted"

let push t msg =
  let dst = msg.Data_msg.dst in
  (match Node_id.Table.find_opt t.by_dst dst with
  | Some q ->
      trim_expired t q;
      prune t dst q
  | None -> ());
  if t.count >= t.capacity then evict_oldest t;
  (* Re-fetch: the eviction above may have emptied and removed this
     destination's queue. *)
  let q = queue_for t dst in
  Queue.push { msg; buffered_at = Engine.now t.engine } q;
  t.count <- t.count + 1;
  emit_span t ~stage:Obs.Span.Stage.buf_enter msg

let take t dst =
  match Node_id.Table.find_opt t.by_dst dst with
  | None -> []
  | Some q ->
      trim_expired t q;
      let items = List.of_seq (Queue.to_seq q) in
      t.count <- t.count - Queue.length q;
      Queue.clear q;
      Node_id.Table.remove t.by_dst dst;
      List.map
        (fun i ->
          emit_span t ~stage:Obs.Span.Stage.buf_exit i.msg;
          i.msg)
        items

let drop_all t dst ~reason =
  List.iter (fun msg -> t.on_drop msg ~reason) (take t dst)

(* Churn teardown: every buffered packet for every destination is a
   metrics-visible drop (the node died holding them). *)
let clear t ~reason =
  let dsts = Node_id.Table.fold (fun dst _ acc -> dst :: acc) t.by_dst [] in
  List.iter (fun dst -> drop_all t dst ~reason) dsts

let pending t dst =
  match Node_id.Table.find_opt t.by_dst dst with
  | None -> false
  | Some q ->
      trim_expired t q;
      prune t dst q;
      not (Queue.is_empty q)

let length t = t.count

let destinations t = Node_id.Table.length t.by_dst
