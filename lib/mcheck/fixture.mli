(** Hand-wired mcheck topologies: a few nodes, explicit links, and a
    timed script of topology changes and data originations.

    The script is the {e timed} skeleton of the schedule space — link
    flaps and originations happen at fixed virtual instants, exactly as
    in the published counterexample walkthroughs — while message
    deliveries between them are floating events the explorer orders
    freely.

    A fixture may split its timeline into a deterministic {e prelude}
    and an explored suffix.  Published counterexamples start "from a
    reachable state in which routes are established"; the prelude is
    how a fixture pins that state down mechanically.  Before
    [explore_from], events fire in deterministic FIFO order — except
    that messages matched by a [hold] directive stay in flight until
    their hold instant, modelling the one delayed delivery the
    walkthrough depends on.  The explorer then branches only over the
    suffix, so the schedule space covers the window where the bug
    lives instead of the whole route-establishment phase.

    Text format ([.topo], one directive per line, [#] comments):
    {v
    name   aodv-loop-3
    nodes  3
    link   0 1
    link   0 2
    at 0.1 origin 1 2
    at 5.0 down 0 2
    at 7.0 origin 0 2
    hold RREP 0 1 until 1.2
    explore_from 4.9
    v} *)

type action =
  | Origin of int * int  (** originate one data packet src, dst *)
  | Link_up of int * int
  | Link_down of int * int

type step = { at : float;  (** virtual seconds *) act : action }

type hold = {
  h_class : string;  (** payload class, e.g. ["RREP"] *)
  h_src : int;
  h_dst : int;
  h_until : float;  (** earliest delivery, virtual seconds *)
}
(** Keep matching in-flight messages undelivered until [h_until]
    during the FIFO prelude.  Matching is by label prefix
    ["CLASS src->dst"], so it applies to every copy of that class on
    that link.  A hold reaching past [explore_from] leaves the message
    pending when exploration starts — "still in flight". *)

type t = {
  name : string;
  nodes : int;
  links : (int * int) list;
  script : step list;  (** sorted by [at] *)
  explore_from : float;
      (** start of the explored window; 0 explores everything *)
  holds : hold list;
}

val aodv_loop_3 : t
(** The three-node counterexample in the style of van Glabbeek et
    al. (arXiv:1512.08891): node 1 routes to 2 via hub 0, the 0–2 link
    dies silently, and a later discovery by 0 can — under the right
    delivery order — install 0→1 while 1 still points at 0.  AODV's
    sequence numbers fail to forbid it (a route that {e expired}
    carries the same number it had when valid, and an intermediate
    node answers on number equality); LDR's SDC refuses the answer. *)

val line_4 : t
(** Four nodes in a line with a mid-script partition and heal — the
    explicit-link edge-case fixture. *)

val builtin : string -> t option
(** Look up a built-in fixture by name. *)

val builtin_names : string list

val parse : name:string -> string -> (t, string) result
(** Parse [.topo] text; [name] is the fallback if no [name] directive. *)

val load : string -> (t, string) result
(** Read a [.topo] file; the file's basename is the fallback name. *)
