(** Tile partition of a layout's bounding box, with halos.

    Tiles are a [size]×[size] grid anchored at the bbox corner rounded
    down to a tile multiple (stable under small bbox drift). Every
    shape is binned into each tile whose halo rectangle it meets;
    every violation is *owned* by the single tile whose proper
    rectangle contains its canonical point. With the halo at least as
    large as the longest rule interaction distance, the owner tile is
    guaranteed to see every shape involved — the soundness argument of
    the tiled DRC (see docs/ARCHITECTURE.md). *)

type t = {
  x0 : int;
  y0 : int;
  size : int;
  halo : int;
  nx : int;
  ny : int;
}

val make : bbox:Igeom.irect -> size:int -> halo:int -> t

val count : t -> int

val proper : t -> int -> Igeom.irect
(** Tile [i]'s own footprint, owned half-open ([lx <= x < hx], and
    likewise in y) so that every point belongs to exactly one tile. *)

val with_halo : t -> int -> Igeom.irect
(** Tile [i]'s footprint grown by the halo: the geometry a tile gets to see. *)

val owner : t -> int -> int -> int
(** Index of the unique tile owning point (x, y); coordinates outside
    the grid clamp to the border tiles. *)

val iter_touching : t -> Igeom.irect -> (int -> unit) -> unit
(** Every tile whose halo rectangle meets the rectangle (closed test),
    in row-major order. *)
