open Sim
open Packets

type path = { mutable nodes : Node_id.t list; expires : Time.t }

type t = {
  engine : Engine.t;
  owner : Node_id.t;
  capacity : int;
  ttl : Time.t;
  mutable store : path list;  (** newest first *)
}

let create ~engine ~owner ~capacity ~ttl =
  if capacity <= 0 then invalid_arg "Route_cache.create: capacity";
  { engine; owner; capacity; ttl; store = [] }

let now t = Engine.now t.engine

let live t p = Time.(p.expires > now t) && List.length p.nodes >= 2

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (List.exists (Node_id.equal x) rest)) && distinct rest

let add_path t nodes =
  if List.length nodes >= 2 && distinct nodes then begin
    let fresh = { nodes; expires = Time.add (now t) t.ttl } in
    let keep = List.filter (fun p -> live t p && p.nodes <> nodes) t.store in
    let keep =
      if List.length keep >= t.capacity then
        (* Evict the oldest (stored last). *)
        List.filteri (fun i _ -> i < t.capacity - 1) keep
      else keep
    in
    t.store <- fresh :: keep
  end

(* Extract the sub-route owner..dst from a path, if both occur in order. *)
let subroute t nodes dst =
  let rec from_owner = function
    | [] -> None
    | x :: rest when Node_id.equal x t.owner -> to_dst rest []
    | _ :: rest -> from_owner rest
  and to_dst remaining acc =
    match remaining with
    | [] -> None
    | x :: rest ->
        if Node_id.equal x dst then Some (List.rev (x :: acc))
        else to_dst rest (x :: acc)
  in
  from_owner nodes

let find t ~dst =
  let best = ref None in
  List.iter
    (fun p ->
      if live t p then
        match subroute t p.nodes dst with
        | None -> ()
        | Some hops -> (
            match !best with
            | Some b when List.length b <= List.length hops -> ()
            | Some _ | None -> best := Some hops))
    t.store;
  !best

let truncate_at_link a b nodes =
  let rec go = function
    | x :: (y :: _ as rest) ->
        if
          (Node_id.equal x a && Node_id.equal y b)
          || (Node_id.equal x b && Node_id.equal y a)
        then [ x ]
        else x :: go rest
    | tail -> tail
  in
  go nodes

let remove_link t a b =
  List.iter
    (fun p -> p.nodes <- truncate_at_link a b p.nodes)
    t.store;
  t.store <- List.filter (fun p -> List.length p.nodes >= 2) t.store

let paths t = List.filter_map (fun p -> if live t p then Some p.nodes else None) t.store

let clear t = t.store <- []
