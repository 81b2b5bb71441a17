(** Periodic runtime telemetry: engine gauges, simulation gauges
    (frames in flight, queue depth, delivery, control rate, route-table
    size and feasible distance), spatial-index and GC health, written as
    one JSONL sample per line.

    The collector does not schedule itself: the runner drives
    {!record} from an [Engine.every] cadence.
    Recording never touches the simulation — no events scheduled, no
    RNG draws — so enabling telemetry cannot perturb outcomes. *)

type t

type gauges = {
  inflight : int;  (** frames in the air *)
  ifq : int;  (** interface-queue occupancy summed over nodes *)
  originated : int;  (** data packets originated so far *)
  delivered : int;  (** data packets delivered so far *)
  control_tx : int;  (** control transmissions so far *)
  rt_mean : float;  (** mean route-table entries per node *)
  fd_mean : float;  (** mean finite feasible distance over all entries *)
}
(** Simulation gauges the caller gathers at each sample.  The JSONL line
    carries them with the derived [ratio] (delivered / originated, 1
    before anything is originated) and [ctl_rate] (control frames per
    virtual second since the previous sample). *)

val create : string -> t
(** Open (truncating) the JSONL file at this path. *)

val record : t -> Sim.Engine.t -> grid:int * int * int -> gauges -> unit
(** Take one sample at the engine's current virtual time (pending and
    fired events, calendar shape, the given gauges) and append it as a
    JSONL line.  Event rates are computed against the previous sample's
    wall clock and fired counts.  [grid] is the channel spatial index's
    [(cells, occupied, max_occupancy)] ({!Net.Channel.index_stats}). *)

val close : t -> unit
(** Flush and close the JSONL file. *)
