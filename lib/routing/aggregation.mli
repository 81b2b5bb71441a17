(** Route-request aggregation: a composable layer over {!Agent}.

    Wraps any on-demand agent (LDR or AODV) and reduces its flooding
    cost three ways, after Mirzazad-Barijough & Garcia-Luna-Aceves
    (arXiv:1608.08725):

    - {b piggybacking}: broadcast RREQs issued within a short window
      leave in a single aggregate transmission ([Rreq_agg]) carrying one
      member RREQ per requested destination;
    - {b suppression}: a flood for a destination some other origin
      already flooded for within the suppression window is absorbed
      instead of forwarded;
    - {b RREP fan-out}: when the reply for the surviving computation
      passes through, it is replicated to every computation whose flood
      was absorbed here, re-addressed and sent down each one's recorded
      reverse hop.

    The wrapper only interposes on the context's [send] and the agent's
    [recv]; the inner protocol machine is untouched, so its invariants
    (and the loop-freedom monitor watching them) apply unchanged.

    Metrics: emits ["rreq_aggregated"] (floods avoided by piggybacking),
    ["rreq_suppressed"] (floods absorbed), and ["rrep_fanout"] (replies
    replicated) through the wrapped context's event sink. *)

val wrap : Agent.factory -> Agent.factory
(** [wrap factory] is [factory] with the aggregation layer interposed
    per node.  The layer batches for 20 ms, up to 8 members, absorbs
    floods for 50 ms and lets an absorbed computation wait 2 s for a
    reply. *)
