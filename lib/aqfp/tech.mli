(** AQFP process technology parameters.

    The numbers follow what the paper states for the MIT-LL SQF5ee /
    AIST STP2 niobium processes and the updated AQFP standard cell
    library: a 10 µm manufacturing grid (cell dimensions, pin
    locations and wire turns are all multiples of 10 µm), 10 µm
    minimum spacing (cell-to-cell and wire zigzag), a maximum
    single-connection wirelength W_max, four-phase AC clocking at a
    5 GHz target, and two routing metal layers between adjacent clock
    phases. *)

type t = {
  grid : float;  (** manufacturing grid, µm (10) *)
  s_min : float;  (** minimum spacing: cells in a row, wire zigzags, µm *)
  w_max : float;  (** maximum wirelength of a single connection, µm *)
  row_gap : float;  (** initial vertical routing gap between phase rows, µm *)
  clock_freq_ghz : float;  (** target clock (paper: 5 GHz) *)
  phases : int;  (** clocking phases per cycle (4) *)
  signal_velocity : float;  (** data propagation speed on PTL wires, µm/ps *)
  clock_velocity : float;  (** clock distribution propagation speed, µm/ps *)
  gate_delay_ps : float;  (** intrinsic switching latency of one gate, ps *)
  metal_layers : int;  (** routing layers between adjacent phases (2) *)
}

val default : t
(** MIT-LL-style parameters used throughout the evaluation. *)

val phase_window_ps : t -> float
(** Time budget for one clock phase: [1000 / (freq_ghz * phases)] ps
    (50 ps at 5 GHz / 4 phases). *)

val snap : t -> float -> float
(** Round a coordinate to the manufacturing grid. *)

val snap_up : t -> float -> float
(** Round up to the next grid line. *)

val on_grid : t -> float -> bool

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse a technology description: one [key = value] per line,
    [#] comments, unknown keys rejected, missing keys defaulted from
    {!default}. Keys: grid, s_min, w_max, row_gap, clock_freq_ghz,
    phases, signal_velocity, clock_velocity, gate_delay_ps,
    metal_layers. *)

val of_file : string -> (t, string) result
