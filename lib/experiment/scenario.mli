(** Simulation scenario descriptions (paper, Section 4). *)

type protocol =
  | Ldr of Ldr.Config.t
  | Aodv of Aodv.config
  | Dsr of Dsr.config
  | Olsr
  | Ldr_agg of Ldr.Config.t * Routing.Aggregation.config
      (** LDR with the route-request aggregation layer interposed *)
  | Aodv_agg of Aodv.config * Routing.Aggregation.config
      (** AODV with the route-request aggregation layer interposed *)

val protocol_name : protocol -> string

val ldr : protocol
(** LDR with the paper's optimizations. *)

val ldr_multipath : protocol
(** LDR extended with LFI alternate successors (instant failover). *)

val aodv : protocol
val dsr : protocol
val dsr_draft7 : protocol
(** DSR without replies-from-cache — the behavioural delta the paper's
    Fig-6 QualNet (draft 7) cross-check exercises. *)

val olsr : protocol

val ldr_agg : protocol
(** LDR-AGG: stock LDR under {!Routing.Aggregation.default}. *)

val aodv_agg : protocol
(** AODV-AGG: stock AODV under {!Routing.Aggregation.default}. *)

val factory : protocol -> Routing.Agent.factory

type placement =
  | Uniform  (** i.i.d. uniform over the terrain (the paper's scenarios) *)
  | Grid  (** near-square grid filling the terrain *)
  | Fixed of Geom.Vec2.t list  (** explicit positions, one per node *)

(** Mobility family (see docs/SCENARIOS.md).  All families are inert
    when [speed_max <= 0] — every node is static. *)
type mobility =
  | Waypoint  (** random waypoint — the paper's model (default) *)
  | Manhattan of { spacing : float }
      (** city-block movement on a street lattice [spacing] m apart *)
  | Rpgm of { groups : int; radius : float }
      (** reference-point group mobility: [groups] waypoint group
          centres, members offset uniformly within [radius] m *)

val mobility_name : mobility -> string

type shadowing = { sigma_db : float; eta : float }
(** Log-normal shadowing: per-unordered-pair normal dB offset of spread
    [sigma_db] through path-loss exponent [eta] ({!Net.Link_model}).
    Seeded from the scenario seed — deterministic per link. *)

val default_shadowing : shadowing
(** sigma = 4 dB, eta = 3 — suburban-ish. *)

type churn = {
  churn_frac : float;  (** fraction of nodes that cycle down/up once *)
  crash_frac : float;
      (** of the churners, the fraction that {e crash} (volatile state
          including the own sequence number is lost) rather than leave
          gracefully (sequence number survives the reboot) *)
  down_min : Sim.Time.t;
  down_max : Sim.Time.t;  (** downtime drawn uniformly from the range *)
  churn_start : Sim.Time.t;
  churn_stop : Sim.Time.t;  (** down instants drawn in this window *)
}

val default_churn : churn
(** 20% of nodes cycle once between t=10s and t=60s, half of them
    crashing, staying down 10-30 s. *)

type partition = {
  part_at : Sim.Time.t;
  part_heal : Sim.Time.t;
  part_x_frac : float;
      (** wall abscissa as a fraction of the terrain width *)
}
(** Partition-then-heal: a vertical wall at
    [part_x_frac * terrain.width] absorbs every crossing transmission
    during [\[part_at, part_heal)] ({!Net.Link_model}). *)

type t = {
  label : string;
  num_nodes : int;
  terrain : Geom.Terrain.t;
  placement : placement;
  speed_min : float;
  speed_max : float;
  pause : Sim.Time.t;  (** random-waypoint pause time *)
  duration : Sim.Time.t;
  traffic : Traffic.config;
  protocol : protocol;
  net : Net.Params.t;
  seed : int;
  audit_loops : bool;
      (** audit the successor graph for loops at every routing-table
          change (expensive; tests and the loop-check example use it) *)
  mobility : mobility;  (** movement family (default [Waypoint]) *)
  shadowing : shadowing option;
  churn : churn option;
  partition : partition option;
}

val paper_50 : protocol -> t
(** 50 nodes on 1500 x 300 m. *)

val paper_100 : protocol -> t
(** 100 nodes on 2200 x 600 m. *)

val positions : t -> Sim.Rng.t -> Geom.Vec2.t array
(** Initial node positions per the scenario's placement. *)

val with_flows : int -> t -> t
val with_pause : Sim.Time.t -> t -> t
val with_duration : Sim.Time.t -> t -> t
val with_seed : int -> t -> t
val with_mobility : mobility -> t -> t
val with_shadowing : shadowing option -> t -> t
val with_churn : churn option -> t -> t
val with_partition : partition option -> t -> t
val scaled : duration:Sim.Time.t -> t -> t
(** Shorten a paper scenario for laptop-scale reproduction. *)
