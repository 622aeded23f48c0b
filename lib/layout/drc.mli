(** Design Rule Check engine (the flow's KLayout substitute,
    paper §III-E).

    A declarative rule deck evaluated exactly, on integer-nanometre
    geometry ({!Igeom}): layout shapes are snapped once at the
    boundary and every rule below is integer arithmetic — no float
    epsilons. Violations are witness-carrying {!Diag.t}s whose rule
    ids live in the [lib/check] registry ([superflow explain DRC-...]):

    - [DRC-CELL-OVERLAP], [DRC-CELL-SPACING]: cell body overlap /
      sub-minimum same-row gap;
    - [DRC-OFF-GRID]: cell origin or wire endpoint off the routing grid;
    - [DRC-WIRE-OVERLAP]: different nets share same-layer metal (short);
    - [DRC-WIRE-SPACING]: different-net same-layer metal closer than
      the minimum edge gap (corner-aware Euclidean metric);
    - [DRC-NOTCH-01]: same-net same-layer metal re-approaching itself;
    - [DRC-WIDTH-01], [DRC-AREA-01]: drawn width / single-shape area
      minima;
    - [DRC-EOL-01]: foreign metal inside a line-end's extension region;
    - [DRC-ZIGZAG-SPACING]: a via-to-via run shorter than s_min
      (the paper's zigzag rule);
    - [DRC-VIA-ALIGNMENT]: a via that does not join wire endpoints on
      both routing layers;
    - [DRC-VIA-ENCLOSE-01]: a via cut not enclosed by same-net metal
      with the required margin on each layer;
    - [DRC-DENSITY]: sliding-window metal density above the limit.
      Windows step by half a window over the metal bounding box, plus
      a final right/top-aligned one. {!check} bins: each wire
      binary-searches the first window it can reach on each axis and
      adds its clipped area to only the windows it meets, so the pass
      costs O(wires × windows met per wire) instead of
      O(windows × wires). The result is exactly the per-window scan's:
      areas are integer sums (order-free), windows are visited in the
      same row-major order through one shared emitter, and clipping
      counts positive area only, so a wire that merely touches a
      window edge adds 0 either way. {!check_brute} keeps the
      per-window scan as the oracle.

    The check is tiled: shapes are binned into fixed-size tiles with a
    halo at least as large as the longest rule interaction distance,
    tiles are checked independently (sharded over {!Parallel}, results
    combined in tile order — byte-identical at any jobs count), and
    each violation is emitted only by the tile owning its canonical
    point. With a {!Memo.t} cache attached, a tile's verdict is memoized under
    a content hash of the deck and the geometry in tile+halo, so an ECO
    rerun re-checks only the tiles whose geometry actually changed. *)

type deck = {
  spacing : int;  (** diff-net same-layer min edge gap, nm *)
  notch : int;  (** same-net same-layer min edge gap, nm *)
  min_width : int;  (** min drawn width, nm *)
  min_area : int;  (** min single-shape area, nm² *)
  eol : int;  (** end-of-line clearance ahead of a line end, nm *)
  cell_spacing : int;  (** min same-row cell gap (s_min), nm *)
  zigzag : int;  (** min via-to-via run (s_min), nm *)
  via_cut : int;  (** via cut half-size, nm *)
  via_enclosure : int;  (** metal margin required around the cut, nm *)
  grid : int;  (** manufacturing grid, nm *)
  max_density : float;  (** window metal-area fraction limit *)
  density_window : int;  (** density window edge, nm *)
  tile : int;  (** tile edge for the incremental partition, nm *)
}

val deck_of_tech : Tech.t -> deck
(** The AQFP deck the flow signs off against, derived from the
    technology: edge gaps are [s_min] minus the drawn wire width, the
    grid is the routing grid, density 90% over 200 µm windows. *)

type stats = {
  tiles_total : int;
  tiles_checked : int;  (** recomputed this run *)
  tiles_cached : int;  (** served from the cache *)
  density_cached : bool;
}

type report = { diags : Diag.t list; stats : stats }

val check : ?deck:deck -> ?cache:Diag.t list Memo.t -> Layout.t -> report
(** Full-deck signoff. [report.diags] is sorted with {!Diag.compare};
    an empty list is a clean layout. Without [?deck] the deck derives
    from [layout.tech]. *)

val check_brute : ?deck:deck -> Layout.t -> Diag.t list
(** O(n²) reference implementation sharing only the per-rule emitters
    with {!check} — no sweep, no tiles, no cache, and density by
    scanning every wire for every window. The property tests hold
    {!check} to byte-equality against it. *)

val gap_hints : Problem.t -> Diag.t list -> int list
(** Row gaps implicated by located wire-congestion diagnostics
    ([DRC-WIRE-SPACING]/[-OVERLAP], [DRC-NOTCH-01], [DRC-EOL-01],
    [DRC-ZIGZAG-SPACING], [DRC-DENSITY]) — the flow driver widens
    these and re-routes. Matches on registry rule ids, not prose. *)
