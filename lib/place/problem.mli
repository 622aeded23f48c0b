(** AQFP row-wise placement problem (paper §III-C1).

    A placement instance is derived from a balanced AQFP netlist:
    every node (including input/output ports) becomes a cell whose
    row equals its clock phase; a net is one point-to-point fan-in
    connection (AQFP fan-out is 1 after splitter insertion, so every
    net has exactly two pins). Placement only optimizes the x
    coordinate of each cell — the row is fixed by the clocking
    architecture.

    Geometry: row [r]'s top edge sits at [y = r * row_pitch]; cells
    are top-aligned within their row (their input pins face the
    previous phase above). All coordinates are µm. *)

type cell = {
  node : int;  (** originating netlist node id *)
  kind : Netlist.kind;
  lib : Cell.t;  (** library cell (dimensions, pins, JJs) *)
  row : int;  (** clock phase *)
  mutable x : float;  (** lower-left x, µm *)
}

type net = {
  src : int;  (** driving cell index *)
  dst : int;  (** sinking cell index *)
  src_pin : int;  (** output-pin index on the driver *)
  dst_pin : int;  (** fan-in index on the sink *)
}

type t = {
  tech : Tech.t;
  cells : cell array;
  nets : net array;
  n_rows : int;
  row_cells : int array array;  (** cell indices per row *)
  mutable row_gaps : float array;  (** routing gap below each row, µm
      (initially [tech.row_gap]; grown by the router's space expansion) *)
  row_height : float;  (** uniform row height (max cell height), µm *)
}

val of_netlist : Tech.t -> Netlist.t -> t
(** Build an instance from a balanced AQFP netlist (raises
    [Invalid_argument] if the netlist is not balanced). Cells receive
    an initial left-packed position within their row. *)

val row_top : t -> int -> float
(** y coordinate of row [r]'s top edge (accumulates expanded gaps). *)

val row_width : t -> float
(** Current chip width: max over rows of occupied extent (µm). *)

val row_extent : t -> int -> float
(** Right edge of row [r]'s rightmost cell (0 for an empty row), µm. *)

val row_extents : t -> float array
(** {!row_extent} of every row. Their max with 0 is {!row_width}, the
    same float, so a loop that moves one row at a time can refresh
    that row's entry instead of rescanning every cell. *)

val pin_x : t -> int -> [ `Src | `Dst ] -> float
(** Absolute x of a net's driver or sink pin. *)

val net_dx : t -> net -> float
(** Signed horizontal pin distance [x_dst - x_src] of a net. *)

val net_dy : t -> net -> float
(** Vertical pin distance of a net (driver's bottom edge to sink's top
    edge; positive). *)

val hpwl : t -> float
(** Total placement wirelength Σ |dx|, µm. Placement only moves cells
    horizontally (rows are pinned to clock phases), so, as in the
    paper's Table III, the metric is the horizontal span; the vertical
    component is fixed by the row structure and is accounted for in
    {!net_length} (used for the max-wirelength rule and routing). *)

val net_dys : t -> float array
(** {!net_dy} of every net, indexed like [nets], from one pass over
    the rows. The result is a snapshot: it goes stale as soon as
    [row_gaps] changes, so callers take it per call, never across
    calls. *)

val cell_nets : t -> int list array
(** Indices of the nets touching each cell. *)

val net_length : t -> net -> float
(** Manhattan length |dx| + dy of one net. *)

val timing_cost : t -> ?alpha:float -> unit -> float
(** The paper's Eq. (2) four-phase timing cost summed over all nets
    (α defaults to 2): nets in index order in blocks of 2048, the
    block totals added left to right, at any pool size. The grouping
    is part of the placement's bits: global placement keeps the best
    of its sweeps by this value. *)

val buffer_lines : t -> int
(** Rows of max-wirelength buffers that would have to be inserted:
    for each adjacent row pair, [max(0, ceil(Lmax / w_max) - 1)]
    where [Lmax] is the longest net crossing that gap (paper
    §II-C(ii); the "Buffers" column of Table III). *)

val max_net_length : t -> float

val check_legal : t -> (unit, string) result
(** Verify spacing/overlap/grid constraints of the current positions:
    no two cells in a row overlap, horizontal neighbors either abut or
    keep [s_min], and every x is on the manufacturing grid. The error
    names the first violation (rows in order) and counts the rest. *)

val copy_positions : t -> float array

val restore_positions : t -> float array -> unit

val jj_count : t -> int
(** Total JJs over all placed cells. *)

val pp_summary : Format.formatter -> t -> unit
