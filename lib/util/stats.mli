(** Small numeric summaries used by the benchmark reporter. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val geomean : float array -> float
(** Geometric mean of positive values; 0 for an empty array. *)

val sum : float array -> float

val stddev : float array -> float
(** Population standard deviation. *)
