(** Phase-interval analysis: static proof of AQFP path balance.

    Forward dataflow where every node's fact is the interval
    [[lo, hi]] of clock-phase arrival times over all primary-input
    paths reaching it (inputs and constant generators arrive at
    phase 0; every gate, buffer and splitter adds one phase). The
    analysis is purely structural — it never reads the [phase] field
    assigned by [levelize] — so it independently cross-checks the
    insertion stage's output.

    A netlist is path-balanced iff every gate's fan-ins arrive at one
    single common phase. [AI-PHASE-01] (error) pinpoints the
    {e earliest} unbalanced reconvergences: nodes whose fan-ins each
    have singleton arrival intervals, but at different phases — the
    points where unbalance originates. Nodes merely downstream of an
    origin (fan-ins with already-widened intervals) are not
    re-flagged, so one seeded unbalance yields one diagnostic. The
    witness is the longest arrival chain from a primary input down to
    the unbalanced node; the message carries both arrival phases and
    the offending fan-in pair. *)

val solve : Netlist.t -> (int * int) array
(** Arrival interval [(lo, hi)] per node id. *)

val check : Netlist.t -> (int * int) array -> Diag.t list
(** [check nl facts] — the [AI-PHASE-01] findings over [facts =
    solve nl] (earliest unbalanced reconvergences),
    in node-id order. Empty iff the netlist is provably
    path-balanced. *)
