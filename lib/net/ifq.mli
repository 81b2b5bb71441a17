(** Drop-tail interface queue between the routing layer and the MAC. *)

type 'a t

val create : capacity:int -> empty:'a -> 'a t
(** [empty] overwrites every slot an element leaves, so a dequeued or
    cleared element is not kept alive by the queue. *)

val push : 'a t -> 'a -> bool
(** False (and the element is dropped) when the queue is full. *)

val pop : 'a t -> 'a
(** The front element, removed.  Raises [Invalid_argument] on an empty
    queue: test {!is_empty} first. *)

(** [clear t] discards every queued element (churn: a node going down
    flushes its interface queue).  The drop counter is not advanced —
    these are administrative removals, not congestion losses. *)
val clear : 'a t -> unit

val length : 'a t -> int
val is_empty : 'a t -> bool

val drops : 'a t -> int
(** Count of elements rejected by {!push} so far. *)
