(** AOI-to-majority netlist conversion (paper §III-B1).

    The converter views the AOI netlist as a directed graph, finds
    feasible nets of up to three independent parents by a bottom-up
    cut enumeration (the DFS of the paper, generalized to standard
    3-feasible cuts), checks each cut's function against the
    precomputed majority database ({!Maj_db} — the exhaustive form of
    the paper's Karnaugh-map matching), and selects a cover that
    minimizes total JJ cost using an area-flow heuristic that accounts
    for sharing. The selected implementations are instantiated into a
    fresh netlist with structural hashing; majority gates whose
    operands include constants degenerate into the cheaper and2/or2
    library cells, and double-negations collapse.

    The result computes the same function as the input (checked by the
    test suite with exhaustive/random simulation) and contains only
    [Input]/[Output]/[Const]/[Buf]/[Not]/[And]/[Or]/[Maj] nodes. *)

val convert : Netlist.t -> Netlist.t
(** Convert an AOI netlist to a majority-based netlist: the cheaper
    (by JJ count) of the cut-collapsing cover and the per-gate
    mapping — on rare share-heavy structures the per-gate map wins. *)

val cuts_per_node : int
(** Cut-set width kept per node during enumeration (pruning bound). *)

type stats = {
  aoi_gates : int;  (** logic gates in the input *)
  maj_gates : int;  (** majority-class gates in the result *)
  jj_before : int;  (** JJ cost if the AOI netlist were built directly *)
  jj_after : int;  (** JJ cost of the converted netlist *)
}

val convert_with_stats : Netlist.t -> Netlist.t * stats

val convert_naive : Netlist.t -> Netlist.t
(** Per-gate mapping baseline: every AOI gate is replaced by its own
    database implementation without any multi-gate cut collapsing —
    the "no Karnaugh matching" alternative that synthesis also builds,
    keeping whichever mapping has fewer JJs. Same
    correctness guarantees as {!convert}. *)
