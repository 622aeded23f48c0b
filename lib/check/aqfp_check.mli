(** AQFP legality checks ([AQFP-*]) for a netlist {e after}
    buffer/splitter insertion (paper §III-B2's post-conditions).

    Rule catalog:
    - [AQFP-PHASE-00] (error) — a node's clock phase is unset
      (levelization never ran); the remaining phase rules are
      skipped when this fires;
    - [AQFP-PHASE-01] (error) — a violation of the path-balance
      rule {!Netlist.imbalances}: a gate has a fan-in that does not
      sit exactly one clock phase above it, or an input or constant
      sits off phase 0. One diagnostic per violation, naming the
      fan-in and both phases; with sources pinned to 0 this implies
      every path into a gate has the same length;
    - [AQFP-PHASE-02] (error) — a primary output retires early: its
      driver's phase is not the design's final phase (output
      balancing, so the whole design retires in lock-step);
    - [AQFP-FANOUT-01] (error) — a non-splitter node drives more
      than one consumer (AQFP gates have fan-out 1; fan-out is the
      splitters' job);
    - [AQFP-SPLIT-01] (error) — a splitter's declared arity is
      outside the library's 2..4 range;
    - [AQFP-KIND-01] (error) — a gate kind that majority synthesis
      should have eliminated ([Nand]/[Nor]/[Xor]/[Xnor]) survives in
      the buffered netlist. *)

val check : Netlist.t -> Diag.t list
