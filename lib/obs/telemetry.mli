(** Periodic runtime telemetry: engine gauges, simulation gauges
    (frames in flight, queue depth, delivery, control rate, route-table
    size and feasible distance), spatial-index and GC health, written as
    JSONL samples and/or an atomically-replaced Prometheus text-format
    snapshot — the exposition format the future [manet_simd] service
    will stream.

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
    virtual second since the previous sample); the Prometheus snapshot
    does not. *)

val create : ?jsonl:string -> ?prom:string -> unit -> t
(** Open the JSONL stream and/or remember the Prometheus snapshot
    path.  At least one output should be given for the collector to be
    useful; with neither it is inert. *)

val record : t -> Sim.Engine.t -> grid:int * int * int -> gauges -> unit
(** Take one sample at the engine's current virtual time (pending and
    fired events, calendar shape, the given gauges): append a JSONL line and
    atomically rewrite the Prometheus snapshot (write-temp-then-rename,
    so scrapers never see a torn file).  Event rates are computed
    against the previous sample's wall clock and fired counts.
    [grid] is the channel spatial index's [(cells, occupied,
    max_occupancy)] ({!Net.Channel.index_stats}). *)

val close : t -> unit
(** Flush and close the JSONL stream (the snapshot file needs no
    closing; it is complete after every {!record}). *)

val validate_prom : string -> (string list, string) result
(** Parse a Prometheus text-format file, checking metric-name syntax,
    label syntax and numeric values; returns the sorted, deduplicated
    metric names on success (CI greps these for stability) or a
    line-tagged error. *)
