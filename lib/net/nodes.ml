(* Struct-of-arrays per-node state for city-scale runs.

   One flat object owns what used to live scattered across per-node heap
   records: positions and mobility legs (via [Mobility.Pos_store]'s
   unboxed float planes) and the MAC/ifq scalar counters as int arrays
   indexed by node id.  [Net.Mac] writes its counters through these
   cells when created with [~world]; a store-backed channel reads
   positions straight out of the store's planes.  A metrics sweep over n nodes
   then walks a handful of flat arrays instead of n record spines. *)

type t = {
  store : Mobility.Pos_store.t;
  width : float;
  height : float;
  sent : int array;
  failures : int array;
  qlen : int array;
  qdrops : int array;
  up : bool array;
}

let create ~width ~height mobs ~at =
  if width <= 0. || height <= 0. then
    invalid_arg "Nodes.create: non-positive arena";
  let n = Array.length mobs in
  {
    store = Mobility.Pos_store.of_array mobs ~at;
    width;
    height;
    sent = Array.make n 0;
    failures = Array.make n 0;
    qlen = Array.make n 0;
    qdrops = Array.make n 0;
    up = Array.make n true;
  }

let length t = Array.length t.sent
let store t = t.store
let width t = t.width
let height t = t.height
let sent t i = t.sent.(i)
let failures t i = t.failures.(i)
let queue_length t i = t.qlen.(i)
let queue_drops t i = t.qdrops.(i)
let up t i = t.up.(i)
let set_up t i v = t.up.(i) <- v

(* Raw planes, handed to each Mac so its counter writes are plain array
   stores into the shared arrays. *)
let sent_plane t = t.sent
let failures_plane t = t.failures
let qlen_plane t = t.qlen
let qdrops_plane t = t.qdrops

let total_sent t = Array.fold_left ( + ) 0 t.sent
let total_failures t = Array.fold_left ( + ) 0 t.failures
let total_queue_drops t = Array.fold_left ( + ) 0 t.qdrops
