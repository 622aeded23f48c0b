(** Exact geometry on integer nanometre coordinates.

    The float µm world ({!Geom}) is where layout is assembled; DRC and
    LVS convert once at the boundary ([of_um]) and then reason with
    exact integer arithmetic — no epsilons, no accumulated rounding.
    One unit is 1 nm, so the ±2^62 range covers ±4.6 m of silicon. *)

val nm_per_um : int
(** 1000. *)

val of_um : float -> int
(** Round a µm coordinate to the nearest nanometre. *)

val to_um : int -> float

val um_str : int -> string
(** Render a nm coordinate as µm with three decimals ("12.345"). *)

type irect = { lx : int; ly : int; hx : int; hy : int }
(** Closed-interval rectangle in nm; invariant [lx <= hx && ly <= hy].
    Zero width or height is allowed (degenerate shapes keep their
    identity through the pipeline and fail width/area rules instead of
    being silently dropped). *)

val width : irect -> int
val height : irect -> int
val area : irect -> int
(** Exact area in nm². Fits: a 2 mm × 2 mm rect is 4·10^12 < 2^62. *)

val expand : irect -> int -> irect
(** Grow (or shrink, negative) by [d] on every side. *)

val overlaps : irect -> irect -> bool
(** Positive-area intersection (shared edges/corners do not count). *)

val touches : irect -> irect -> bool
(** Closed intersection: true also when only edges/corners are shared. *)

val inter_area : irect -> irect -> int
(** Area of the intersection, 0 when disjoint or merely touching. *)

val gap_x : irect -> irect -> int
(** Separation of the x-projections; 0 when they overlap or touch. *)

val gap_y : irect -> irect -> int

val sep2 : irect -> irect -> int
(** Squared Euclidean separation [gap_x² + gap_y²] — the corner-aware
    spacing metric: for laterally overlapping shapes it reduces to the
    squared edge gap, for diagonal neighbours it measures the true
    corner-to-corner distance. *)

val approach : irect -> irect -> int * int
(** Canonical closest-approach point of two rectangles: the midpoint of
    the gap (or overlap) interval in each axis. Deterministic and
    symmetric; used to anchor pair violations to a unique tile. *)

val on_grid : grid:int -> int -> bool
(** [x] is a multiple of [grid] (exact; grid > 0). *)

val covered : irect -> irect list -> bool
(** [covered target by]: the union of [by] covers every point of
    [target] (closed semantics). Recursive rectangle subtraction;
    intended for small candidate sets (via enclosure checks). *)
