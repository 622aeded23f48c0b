(** The detailed-placement cost model, shared by the greedy search
    ({!Detailed}), the per-row DP ({!Row_dp}) and the multi-start
    selection in {!Placer}:

    net cost = manhattan length
             + λ_t · Eq.(2) timing / row_width
             + λ_wmax · max(0, length − w_max)
             + λ_slack · max(0, −slack_ps)

    One kernel evaluates it; the functions below are its loops. The
    dev profile compiles without cross-module inlining, so a caller
    hands each loop a whole net list or grid band: one call per net
    term per band, never one per grid position. *)

type weights = { lambda_t : float; lambda_wmax : float; lambda_slack : float }

val default_weights : weights

type model
(** The constants of one evaluation: weights, row width and the
    technology's timing terms. *)

val model : Tech.t -> weights -> row_width:float -> model
(** [row_width] is the width phase-3 nets fold back around; the timing
    term divides by [max 1 row_width]. *)

val eval : model -> phase:int -> dy:float -> float -> float -> float
(** [eval m ~phase ~dy xs xd] — the cost of a net driven from row
    [phase], from a pin at [xs] to one at [xd]; [dy] is its
    {!Problem.net_dy}. *)

val add_band :
  model ->
  phase:int ->
  dy:float ->
  pin:float ->
  partner:float ->
  src:bool ->
  grid:float ->
  lo:int ->
  hi:int ->
  float array ->
  unit
(** One net of a moving cell over the grid band [lo..hi]: adds to
    [acc.(x - lo)] the net's cost with the cell's left edge at
    [float x *. grid], its pin [pin] further right. The pin is the
    net's source when [src], else its sink; the other end is fixed at
    [partner]. *)

val sum : Problem.t -> model -> dys:float array -> int array -> int -> float
(** [sum p m ~dys nets n] — the costs of nets [nets.(0) .. nets.(n-1)]
    at the current positions, added in that order from 0. [dys] is
    {!Problem.net_dys}: rows do not move inside a search. *)

val total : Problem.t -> weights -> float
(** Σ over all nets at the current positions. *)

val worst_violation : Problem.t -> float
(** The worst per-net timing violation max(0, −slack_ps) at the current
    positions. *)
