(** Post-hoc trace analysis: stream a JSONL trace ({!Jsonl}) onto a
    bus and answer the [manet_sim trace] queries.  They answer a pcap
    capture the same way, streamed onto a bus by [Net.Pcap.replay].

    A query attaches a sink to a bus and returns the function that
    renders its answer once the file has been replayed into that bus.
    Queries sharing a bus share one pass, and each keeps only its own
    state, never the event stream.  Rendered lines go through
    {!Event.pp}, the renderer the live sinks use. *)

val replay : string -> Bus.t -> (unit, string) result
(** Stream every event of the file, in order, to the bus's sinks.  Each
    line is parsed into one reused {!Event.t} — a sink copies what it
    keeps, as on a live bus — with its label re-interned into the bus,
    so {!Bus.name} resolves it.  An unreadable file is
    [Error "PATH: reason"].  A line is malformed when it does not parse,
    names no event kind, lacks one of the fields {!Jsonl} always writes
    ([t], [n], [k], [a]..[f]; ints but [k]) or has a negative [t].
    Malformed lines are counted over the whole file and give
    [Error "N malformed line(s) in PATH"], after the sinks have seen
    every well-formed line: discard their answers.
    [Net.Pcap.replay] streams a pcap capture under the same contract. *)

type 'a query = Bus.t -> unit -> 'a

val timeline : node:int -> string list query
(** Every event at one node, in trace order. *)

val flaps : dst:int -> string list query
(** Successor changes toward one destination, plus a per-node count. *)

val drop_report : ?bins:int -> string list query
(** Data drops, interface-queue overflows and collisions bucketed over
    [bins] equal time intervals (default 10). *)

val violations : (string * string list) list query
(** Each violation line with the window the monitor dumped for it: the
    trace's events pass through a {!Monitor.ring}, read at each
    violation before it enters. *)

val summary : string list query
(** Event totals by kind.  Per-class transmission totals are the run's
    own metrics sink's ([Experiment.Metrics.tx_classes]) on the same
    bus. *)
