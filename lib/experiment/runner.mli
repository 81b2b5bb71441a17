(** Builds and runs one complete simulation from a {!Scenario.t}:
    mobility processes, radio channel (or explicit links), per-node
    MAC + routing agent,
    CBR workload, metrics hooks, the observability bus, and
    (optionally) the loop-freedom auditor, invariant monitor, JSONL
    trace writer, pcap capture and runtime telemetry. *)

type outcome = {
  metrics : Metrics.t;
  summary : Metrics.summary;
  events_processed : int;
  mac_queue_drops : int;  (** interface-queue overflows, all nodes *)
  mac_unicast_failures : int;  (** retry-limit link failures, all nodes *)
  transmissions : int;  (** every frame on the air, ACKs included *)
  invariant_violations : int;
      (** monitor verdict; 0 when no monitor was attached *)
}

(** A handle over a built-but-not-yet-run simulation, for tests and
    examples that need to inspect or intervene mid-run. *)
type sim = {
  engine : Sim.Engine.t;
  agents : Routing.Agent.t array;
  macs : Net.Mac.t array;  (** node [i]'s MAC, attached at slot [i] *)
  channel : Net.Channel.t;
  store : Mobility.Pos_store.t;
      (** node [i]'s mobility process and cached position at slot [i];
          the channel reads positions from it *)
  link : Net.Link_model.t option;  (** the channel's link model *)
  links : Net.Links.t option;  (** a {!Scenario.Links} run's medium *)
  bus : Obs.Bus.t;  (** the run's observability bus *)
  inject : src:int -> dst:int -> unit;
      (** originate one data packet now (unique uid per call); a node
          whose MAC is down originates nothing *)
  sim_metrics : Metrics.t;
  finalize : unit -> unit;  (** collect end-of-run gauges *)
  mutable monitor : Obs.Monitor.t option;
  mutable cleanup : (unit -> unit) list;
      (** file closers etc., run by {!finish} *)
}

val run :
  ?on_engine:(Sim.Engine.t -> unit) ->
  ?monitor:bool ->
  ?trace_out:string ->
  ?pcap_out:string ->
  ?telemetry_out:string ->
  ?telemetry_every:Sim.Time.t ->
  ?prepare:(sim -> unit) ->
  Scenario.t ->
  outcome
(** Build ({!build}), optionally instrument, run to completion and
    summarise.  Every run is one engine on one domain; parallelism is
    across independent trials ({!Parallel}, docs/PARALLELISM.md).

    [on_engine]: passed to {!build}.
    [monitor]: attach the continuous LDR invariant monitor.
    [trace_out]: stream every bus event as JSONL to this file — the
    one event log (["/dev/stderr"] for a live log; [manet_sim trace
    FILE --node N] renders one node's events).
    [pcap_out]: capture every transmitted frame, byte-exact, to this
    pcap file ({!Net.Pcap}).
    [telemetry_out]: runtime telemetry ({!Obs.Telemetry}) as JSONL
    samples to this file, every [telemetry_every] of virtual time
    (default 1 s) plus once at the horizon, whatever the interval,
    sampled from an engine cadence that does not perturb the
    simulation.
    [prepare]: runs on the built simulation just before the engine
    starts — the hook for fault injection ({!Fault}) and custom sinks
    (on [sim.bus], which has none until something attaches one).

    Trace, pcap and telemetry files are flushed and closed before returning.
    The JSONL sink is attached {e before} the monitor, so a violation
    line in the trace always follows the table write that caused
    it. *)

val build :
  ?on_engine:(Sim.Engine.t -> unit) ->
  ?scheduler:Sim.Engine.scheduler ->
  ?factory:Routing.Agent.factory ->
  Scenario.t ->
  sim
(** Construct the simulation with its workload scheduled; the caller
    runs the engine.

    [scheduler] is passed to {!Sim.Engine.create} (the model checker
    builds on [`Controlled]); [factory] replaces the scenario
    protocol's agents.  Either medium gives every node the same MAC
    (its power state), context, metrics, bus events and churn; only
    [ctx.send] differs ({!Net.Mac.send} or {!Net.Links.send}).

    Every random stream is derived from [sc.seed] by a fixed index
    ({!Sim.Rng.stream}), one per subsystem and node, so every protocol
    at one seed sees the same placement, mobility, churn and offered
    load.

    Every piece of mutable state a run touches is created here, per
    simulation: engine, RNG streams, metrics, the observability bus
    (with its intern table), the loop-audit walk marks.  Nothing is
    shared across two [build]s and no trial touches process-global
    state, which is what makes trials safe to run on concurrent
    domains (see [docs/PARALLELISM.md]). *)

val attach_monitor : ?quiet:bool -> sim -> Obs.Monitor.t
(** Attach the continuous invariant monitor, wired to the agents'
    {!Routing.Agent.invariants}.  Also stored in [sim.monitor]. *)

val finish : sim -> unit
(** Run [finalize] and every registered cleanup (idempotent on the
    cleanup list).  {!run} calls this itself. *)
