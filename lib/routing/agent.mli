(** The interface every routing protocol implements.

    A protocol is a {!factory}: given a per-node {!ctx} (the services the
    node stack provides), it returns the {!t} record of entry points the
    stack invokes.  Using plain records keeps the four protocols
    hot-swappable in the experiment runner and lets unit tests drive an
    agent with a hand-rolled context, no simulator required. *)

open Packets

type ctx = {
  id : Node_id.t;
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  send : dst:Net.Frame.dst -> Payload.t -> unit;
      (** hand a packet to the MAC (unicast with ACK/retries, or
          broadcast) *)
  deliver : Data_msg.t -> unit;
      (** data arrived at its destination: hand to the application *)
  drop_data : Data_msg.t -> reason:string -> unit;
      (** data given up on (no route, buffer overflow, TTL...) *)
  event : ?dst:Node_id.t -> string -> unit;
      (** protocol-event counters for the paper's metrics, e.g.
          "rreq_init", "rrep_init", "rrep_usable_recv"; [dst] is the
          destination the event concerns, when there is one, and feeds
          the observability bus's [Proto] events *)
  table_changed : unit -> unit;
      (** invoked after every routing-table write; hook for the
          loop-freedom auditor *)
  obs : Obs.Bus.t;
      (** the stack's observability bus; protocols may pass it to their
          route tables so table writes are traced *)
}

type t = {
  origin_data : Data_msg.t -> unit;
      (** the application wants this packet carried to [Data_msg.dst] *)
  recv : Payload.t -> from:Node_id.t -> unit;
      (** packet addressed to this node (or broadcast) arrived *)
  overheard : Payload.t -> from:Node_id.t -> dst:Net.Frame.dst -> unit;
      (** promiscuously overheard traffic (used by DSR) *)
  link_failure : Payload.t -> next_hop:Node_id.t -> unit;
      (** MAC gave up delivering [payload] to [next_hop] *)
  start : unit -> unit;  (** arm periodic timers (proactive protocols) *)
  successor : Node_id.t -> Node_id.t option;
      (** current next hop toward a destination, if the protocol keeps a
          hop-by-hop table; drives the loop auditor *)
  own_seqno : unit -> float;
      (** the node's own destination sequence number, as a float so that
          LDR (increment count) and AODV (integer value) are comparable —
          the Fig-7 metric *)
  invariants : Node_id.t -> Obs.Event.inv option;
      (** the (packed seqno, distance, feasible distance) triple this
          node currently advertises for a destination, if the protocol
          maintains them; drives the continuous invariant monitor.
          Protocols without seqno/FD state return [None]. *)
  route_stats : unit -> int * int * int;
      (** [(entries, finite_fd_count, fd_sum)] over the route table —
          gauges for telemetry ({!Obs.Telemetry}).  Protocols without
          feasible distances report zeros for the last two. *)
  reset : crash:bool -> unit;
      (** churn teardown: the node went down.  Routes are invalidated
          through observable table writes and duplicate caches emptied;
          the on-demand protocols hand the rest to
          {!Discovery.reset}, which cancels pending discoveries and
          reports the held packets as ["node-down"] drops.
          [crash = true] additionally loses state a real implementation
          keeps in volatile memory — notably the node's own sequence
          number, the van Glabbeek et al. stressor for seqno-based loop
          freedom (LDR and AODV also restart their RREQ ids; DSR keeps
          its counter).  [crash = false] models a graceful leave/rejoin
          that remembers its number. *)
}

type factory = ctx -> t

val null : t
(** Does nothing and knows no route: the filler of an agent array
    before each node's factory has run, and the defaults each factory
    extends ([{ null with ... }]) with the entry points it implements. *)

(** {1 Successor-chain walk}

    The one loop walk: the run's loop auditor ([--audit-loops]), the
    protocol tests and the model checker all follow successor chains
    through it. *)

type walk
(** Generation-stamped visited marks, one per node, reused by every
    walk: a walk allocates nothing. *)

val walk : int -> walk
(** Marks for nodes [0 .. n-1]. *)

val first_repeat : walk -> t array -> dst:Node_id.t -> int -> int
(** [first_repeat w agents ~dst s] follows the successor chain toward
    [dst] from node [s] and returns the first node it reaches twice —
    a node on a cycle — or [-1] when the chain ends at [dst] or at a
    node without a successor. *)

val cycle : t array -> dst:Node_id.t -> int -> int list
(** [cycle agents ~dst x] is the chain from [x] back to itself, [x]
    first: the cycle witness for an [x] returned by {!first_repeat}. *)

val find_cycle : walk -> t array -> (int * int list) option
(** The first successor-graph cycle over every destination's chains,
    as [(destination, {!cycle})]; [None] when all are acyclic.  The
    model checker's AODV violation detector. *)
