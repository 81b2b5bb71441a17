(** Stateless systematic exploration of a {!Fixture} schedule space.

    The simulation runs on the engine's [`Controlled] scheduler: the
    fixture's script steps are timed events, every in-flight message is
    a floating event, and at each step the explorer picks which ready
    event fires.  There are no state snapshots — a state {e is} its
    decision prefix, re-reached by rebuilding the simulation and
    re-firing the prefix (deterministic: same prefix, same state, same
    event ids).

    Pruning:
    - {e sleep sets} over the independence relation "two floating
      deliveries at distinct nodes commute" (timed events advance the
      shared clock and are dependent with everything) — sound for the
      safety properties checked here;
    - {e state matching} on a hash of an abstraction of the state
      ({!digest}), re-exploring a revisited state unless the stored
      visit had a subset sleep set at no greater depth.  States that
      differ only in what the abstraction leaves out (stored
      destination sequence numbers, route lifetimes, RREQ caches), or
      whose hashes collide, merge: [complete] assumes they behave
      alike.  docs/MODEL_CHECKING.md spells the caveat out.

    Violations checked after every fired event: a successor-graph
    cycle ({!Routing.Agent.find_cycle} — the AODV detector) and
    the LDR invariant monitor's violation count. *)

type protocol = Aodv | Ldr

val protocol_of_string : string -> protocol option
val protocol_name : protocol -> string

type choice = {
  c_seq : int;  (** event id within its run — stable across replays *)
  c_tag : int;
  c_time : int;
  c_float : bool;
  c_label : string;
}
(** One decision: which ready event fired. *)

type vkind =
  | Cycle of int * int list  (** destination, successor cycle *)
  | Monitor of int  (** LDR monitor violation count *)

type violation = { v_kind : vkind; v_trace : choice list }

type stats = {
  mutable states : int;  (** distinct prefixes executed *)
  mutable transitions : int;  (** explored edges *)
  mutable sleep_skipped : int;  (** choices pruned by sleep sets *)
  mutable state_merged : int;  (** revisits pruned by state matching *)
  mutable depth_cut : int;  (** branches truncated by the step bound *)
  mutable terminals : int;  (** quiescent states reached *)
  mutable replays : int;  (** full prefix re-executions *)
  mutable replayed_events : int;
  mutable max_depth : int;
  mutable violations : int;  (** violating states found *)
  mutable complete : bool;
      (** the bounded space was fully explored (no state-budget bail) *)
}

type result = { stats : stats; violation : violation option }

val explore :
  max_steps:int ->
  ?max_states:int ->
  ?stop_at_first:bool ->
  ?dedup:bool ->
  Fixture.t ->
  protocol ->
  result
(** DFS over the bounded schedule space.  [max_steps] bounds the
    decision depth, [max_states] (default 2_000_000) the
    explored prefixes — hitting it clears [stats.complete].
    [stop_at_first] (default true) aborts on the first violating
    state; the first violation found is returned either way.
    [dedup] (default true) enables state matching. *)

val random_walks :
  max_steps:int -> walks:int -> seed:int -> Fixture.t -> protocol -> result
(** Fallback for spaces too big to enumerate: [walks] uniformly random
    schedules (seeded, reproducible).  [stats.complete] is always
    false. *)

val minimize : Fixture.t -> protocol -> violation -> violation
(** Shortest-depth violation via iterative tightening: repeatedly
    re-explore with the bound one below the best-known violation depth
    until the space is silent.  Sleep sets preserve schedule length
    (Mazurkiewicz equivalence), so pruned re-exploration stays sound
    under the tightened bound. *)

val replay : Fixture.t -> protocol -> choice list -> vkind option
(** Re-execute a decision trace event-for-event; the violation state
    (if any) after the last step.  Raises [Failure] if a recorded
    choice names an event that does not exist at that point — replay
    divergence, i.e. a trace from different code or fixture. *)

val digest : Fixture.t -> protocol -> choice list -> int
(** State digest after replaying the prefix: a hash of each node's
    successors, own sequence number and [route_stats] (for AODV just
    the table size), the pending-event keys, the clock and the monitor
    count.  The determinism regression asserts equal prefixes give
    equal digests. *)

(** Replayable violation trace files (JSONL, parsed with
    {!Obs.Jsonl.parse_line}): a header line naming fixture and
    protocol, one ["step"] line per decision, one trailing
    ["violation"] line. *)

val write_trace :
  path:string -> Fixture.t -> protocol -> violation -> unit

val read_trace :
  path:string -> (string * protocol * choice list * vkind, string) Stdlib.result
(** Returns (fixture name, protocol, decisions, recorded violation). *)

val render_vkind : vkind -> string
(** e.g. ["cycle dst=2 via 0->1->0"] — what the CI smoke greps for. *)

val debug_ready :
  Fixture.t -> protocol -> choice list -> Sim.Controlled_queue.ready list
(** Ready set after replaying a prefix — introspection for tests and
    tooling. *)
