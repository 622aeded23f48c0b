(** Fanout-capacity intervals through splitter trees.

    AQFP bounds every gate's fan-out at 1; larger fan-outs are served
    by trees of 2..4-way splitter cells. This backward dataflow
    computes, for every node, the interval [[lo, hi]] of sinks its
    splitter subtree delivers:

    - [hi] — the structural count: real (non-splitter) consumers
      reachable through pure splitter chains;
    - [lo] — the provably-useful count: those of the [hi] sinks that
      are {!Obs_dom.Observable} (they actually affect an output).

    A legal, tight insertion yields [lo = hi] everywhere. [AI-LOAD-01]
    (warning) fires on every splitter-tree {e root} (a splitter whose
    driver is not itself a splitter) with [lo < hi]: part of the
    tree's capacity is provably wasted on sinks that cannot affect
    any output — a strictly tree-transitive upgrade of the node-local
    [NL-FANOUT-01] arity check. The witness walks the tree down to a
    wasted sink. *)

val solve :
  Netlist.t -> fanouts:Absint.fanouts -> obs:Obs_dom.fact array -> (int * int) array
(** [solve nl ~fanouts ~obs] — delivered-sink interval [(lo, hi)] per
    node id ([(0, 1)] or [(1, 1)] for non-splitter nodes: themselves
    as a sink), counting as useful the sinks [obs] proves
    {!Obs_dom.Observable}. *)

val check : Netlist.t -> fanouts:Absint.fanouts -> (int * int) array -> Diag.t list
(** [check nl ~fanouts facts] — the [AI-LOAD-01] findings over [facts
    = solve nl ~fanouts ~obs], in node-id order. *)
