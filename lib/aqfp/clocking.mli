(** Four-phase AQFP clocking model (paper §II-B, Fig. 2).

    One DC and two AC bias lines, 90° apart, create four clock phases
    per cycle. Each logic gate occupies one phase; phase [p] cells live
    in row [p]. The clock is distributed as a serpentine (zigzag): it
    enters row 0 on the left, traverses it rightwards, drops to row 1
    and traverses leftwards, and so on. Consequently the clock arrival
    time at a cell depends on its x position and its row's traversal
    direction — this is the origin of the four cases of the paper's
    Eq. (2) timing cost.

    This module holds the one definition of Eq. (2). For a connection
    leaving a cell at [x_start] in row [phase] and entering its sink at
    [x_end] in row [phase + 1], with [W] the row width, the base is

    {v
      phase mod 4 = 0:  x_end - x_start
      phase mod 4 = 1:  x_end + x_start
      phase mod 4 = 2:  x_start - x_end
      phase mod 4 = 3:  2W - x_end - x_start
    v}

    and [max(0, base)] is the connection's unfavourable clock skew in
    µm. The placer's cost raises it to the power [alpha]; {!Sta}
    divides it by the clock velocity. *)

val skew_base :
  row_width:float -> phase:int -> x_start:float -> x_end:float -> float
(** The unclamped Eq. (2) base above; [phase] may be any integer (it is
    taken mod 4). *)

val timing_cost :
  row_width:float -> phase:int -> x_start:float -> x_end:float -> alpha:float -> float
(** The paper's Eq. (2): [max(0, skew_base) ** alpha]. The base is
    clamped at 0 (a connection that "flows with" the clock has no
    timing pressure). *)
