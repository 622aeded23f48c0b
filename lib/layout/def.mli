(** DEF-style design exchange (simplified).

    The paper notes its physical data is "referenced in the layout
    file, compatible with most layout tools". Besides GDSII, this
    module emits (and parses back) a simplified DEF text with the
    placement and routing of a design: die area, one COMPONENTS entry
    per placed cell, one NETS entry per point-to-point connection with
    its ROUTED polyline per metal layer. Distances are written in DEF
    database units (1000 per µm).

    The subset is deliberately small — enough to round-trip this
    flow's own results and to be eyeballed/diffed in code review.
    Writer and parser are inverse on that subset (tested). *)

type component = {
  comp_name : string;
  comp_cell : string;  (** library cell name *)
  comp_x : float;  (** µm *)
  comp_y : float;
}

type routed_segment = { seg_layer : string; seg_points : (float * float) list }

type def_net = {
  net_name : string;
  net_pins : (string * string) list;  (** (component, pin) *)
  net_route : routed_segment list;
}

type t = {
  design : string;
  die : Geom.rect;
  components : component list;
  nets : def_net list;
}

val of_design : Problem.t -> Router.result -> t
(** Capture a placed-and-routed design, named [superflow]. *)

val to_string : t -> string

val of_string : string -> (t, string) Stdlib.result

val write_file : string -> t -> unit

val read_file : string -> (t, string) Stdlib.result

val apply_placement : Problem.t -> t -> (int, string) Stdlib.result
(** Restore cell positions from a DEF dump produced by {!of_design}
    on the same netlist (components are matched by their [c<node>]
    names). Returns the number of cells placed; unknown components or
    off-netlist names are errors. Rows (y coordinates) must match the
    problem's geometry — only x is restored. Run
    {!Legalize.run} afterwards if the source was edited by hand. *)
