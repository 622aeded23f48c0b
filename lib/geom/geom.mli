(** 2-D geometry on micrometre coordinates.

    Layout geometry throughout the flow uses floats in µm. Rectangles
    are axis-aligned, closed on the low edge and open on the high edge
    for overlap purposes (two abutting cells do not "overlap"). *)

type point = { x : float; y : float }

type rect = { lx : float; ly : float; hx : float; hy : float }
(** Invariant: [lx <= hx] and [ly <= hy]. *)

val pt : float -> float -> point

val rect : float -> float -> float -> float -> rect
(** [rect lx ly hx hy]; raises [Invalid_argument] if degenerate
    (negative extent). *)

val rect_of_size : x:float -> y:float -> w:float -> h:float -> rect

val width : rect -> float

val height : rect -> float

val area : rect -> float

val union_rect : rect -> rect -> rect
(** Bounding box of the two. *)

val dist_manhattan : point -> point -> float
