(** AQFP standard cell library.

    Built after the minimalist AQFP library the paper uses: every cell
    is assembled from 2-JJ buffer primitives, so JJ counts are
    multiples of 2. Dimensions follow the paper's updated library —
    all widths, heights and pin offsets are multiples of the 10 µm
    grid; buffers are 40×30 µm and majority gates 60×70 µm.

    Geometry convention: a cell's origin is its lower-left corner;
    input pins sit on the {e top} edge (data arrives from the previous
    clock phase, which is the row above) and output pins on the
    {e bottom} edge. Pin positions are x-offsets from the origin. *)

type t = {
  cell_name : string;
  width : float;  (** µm *)
  height : float;  (** µm *)
  jj_count : int;  (** Josephson junctions in this cell *)
  in_pins : float array;  (** x-offsets of input pins on the top edge *)
  out_pins : float array;  (** x-offsets of output pins on the bottom edge *)
}

val of_kind : Netlist.kind -> t
(** Library cell implementing a netlist gate kind. [Input]/[Output]
    map to I/O port cells (buffer-sized). Raises [Invalid_argument]
    for splitter arities outside 2..4. *)

val jj_of_kind : Netlist.kind -> int
(** Shorthand for [(of_kind k).jj_count]. *)

val max_splitter_outputs : int
(** Largest splitter the library offers (3); wider fan-outs are built
    as splitter trees by the insertion stage. *)

val netlist_jj_count : Netlist.t -> int
(** Total JJs of all placeable nodes of a netlist ([Output] markers
    are free; [Input] ports count as buffer-sized DC/SFQ converters,
    matching the paper counting all inserted cells). *)
