(** SVG rendering of a layout — a quick visual check of placement and
    routing without a GDS viewer (the repository's stand-in for the
    paper's Fig. 5 screenshot).

    Cells are drawn as fills colored by kind (buffers, splitters,
    logic, majority, I/O), signal wires as thin lines colored by metal
    layer, vias as dots, and the clock serpentines as translucent
    lines. Output is standalone SVG 1.1. *)

val render : Layout.t -> string
(** [render layout] — 0.2 pixels per µm; the result carries a viewBox,
    so a viewer can rescale it. *)

val write_file : string -> Layout.t -> unit

val render_placement : Problem.t -> string
(** Cells-only view of a placement (no routing yet) — the picture to
    look at between the placer and the router. *)
