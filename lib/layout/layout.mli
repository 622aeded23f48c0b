(** Physical layout assembly (paper §III-E).

    Combines a placed problem and a routing result into concrete
    geometry — placed library cells, wire centerlines with their metal
    layer, and vias — and renders it as a GDSII library: one structure
    per AQFP standard cell (outline, JJ markers, pin markers) plus a
    TOP structure instantiating every cell by SREF and drawing every
    wire as a PATH.

    GDS layer map: 1 outline, 2 JJ, 3 pins, 10 metal-1 (horizontal
    wiring), 11 metal-2 (vertical wiring), 12 via, 20 labels,
    21/22 AC clock serpentines, 23 DC trunk. *)

type placed_cell = {
  lib : Cell.t;
  node : int;  (** originating netlist node *)
  name : string option;
  origin : Geom.point;  (** lower-left (row-local top edge is +y down;
      the GDS writer flips nothing — viewers show the die mirrored,
      which is harmless) *)
}

type wire = {
  net : int;
  layer : int;  (** 10 = horizontal metal, 11 = vertical metal *)
  a : Geom.point;
  b : Geom.point;
}

type via = { net : int; at : Geom.point }

type t = {
  tech : Tech.t;
  cells : placed_cell array;
  wires : wire array;
  vias : via array;
  bias : wire array;
      (** clock/power distribution (paper Fig. 2): both AC excitation
          lines serpentine through every row (layers 21/22), plus a DC
          trunk (layer 23). Kept separate from signal wires so signal
          metrics and DRC exclusivity are unaffected. *)
  die : Geom.rect;
}

val wire_width : float
(** Drawn PTL width, µm (2.0). *)

val layer_outline : int
val layer_m1 : int
val layer_m2 : int
val layer_via : int
(** The GDS layer map above, as constants (DRC and the writers share
    them). *)

val build : Problem.t -> Router.result -> t
(** Assemble geometry. Wire segments come from the route polylines:
    horizontal runs on metal 1, vertical runs on metal 2, a via at
    every interior corner. *)

val to_gds : t -> Gds.lib
(** The GDS library [SUPERFLOW]: one structure per used cell and a
    [TOP] structure that places them. *)

val write_gds : string -> t -> unit

type stats = {
  n_cells : int;
  n_wires : int;
  n_vias : int;
  total_jj : int;
  wirelength : float;  (** signal wiring only, µm *)
  bias_wirelength : float;  (** clock/power serpentines, µm *)
  die_area_mm2 : float;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
