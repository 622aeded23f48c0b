(** LVS-lite ([LVS-*]): layout-vs-schematic connectivity diff.

    The layout is the {e drawn truth}: this pass re-extracts
    point-to-point connectivity from the routed geometry alone —
    wire segments stitched where they share an endpoint on the same
    metal layer, layers stitched where a via sits, cell pins attached
    at their exact pin coordinates — {e ignoring} the net labels the
    wires carry. The extracted (driver pin, sink pin) pairs are then
    diffed against the AQFP netlist's fan-in edges (the problem's net
    array).

    Rule catalog:
    - [LVS-OPEN-01] (error) — a schematic net whose driver pin and
      sink pin are not connected by any drawn geometry;
    - [LVS-SHORT-01] (error) — one drawn component touches more than
      two pins (reported once, at the lowest involved net index);
    - [LVS-SWAP-01] (error) — a driver pin is wired to the {e wrong}
      sink pin (the classic crossed-pair LVS finding);
    - [LVS-FLOAT-01] (warning) — drawn wires touching no pin at all.

    Extraction is a union-find sweep (linear in the geometry); the
    per-edge classification that follows reports in net-index
    order. *)

val check : Problem.t -> Layout.t -> Diag.t list
