(** AOI-to-majority netlist conversion (paper §III-B1).

    The converter views the AOI netlist as a directed graph, finds
    feasible nets of up to three independent parents by a bottom-up
    cut enumeration ({!Cuts}, the same enumerator resynthesis uses —
    the DFS of the paper, generalized to standard 3-feasible cuts),
    checks each cut's function against the precomputed majority
    database ({!Maj_db} — the exhaustive form of the paper's
    Karnaugh-map matching), and selects a cover that minimizes total
    JJ cost using an area-flow heuristic that accounts for sharing.

    Two mappings are built — that cut cover, and the per-gate mapping
    {!convert_naive} — through one structurally hashed realizer:
    majority gates whose operands include constants degenerate into
    the cheaper and2/or2 library cells (the constants stay symbolic
    and are never materialized), and double negations collapse. The
    cheaper of the two, by JJ count, is the result.

    The result computes the same function as the input (checked by the
    test suite with exhaustive/random simulation) and contains only
    [Input]/[Output]/[Const]/[Buf]/[Not]/[And]/[Or]/[Maj] nodes. *)

val convert : Netlist.t -> Netlist.t
(** [fst (convert_with_stats nl)]. *)

type stats = {
  aoi_gates : int;  (** logic gates in the input *)
  maj_gates : int;  (** logic gates in the returned netlist *)
  jj_before : int;  (** JJ cost if the AOI netlist were built directly *)
  jj_after : int;  (** JJ cost of the returned netlist *)
}

val convert_with_stats : Netlist.t -> Netlist.t * stats
(** The one mapping selection: the cut cover, unless the per-gate
    mapping has strictly fewer JJs (on rare share-heavy structures a
    collapsed cut re-synthesizes internal nodes other cuts also need,
    and the per-gate map wins). [jj_after] and [maj_gates] count the
    mapping returned. Raises [Invalid_argument] if the input contains
    [Maj] or [Splitter] nodes. *)

val convert_naive : Netlist.t -> Netlist.t
(** Per-gate mapping baseline: every AOI gate is replaced by its own
    database implementation without any multi-gate cut collapsing —
    the "no Karnaugh matching" alternative {!convert_with_stats} also
    weighs. Same correctness guarantees as {!convert}. *)
