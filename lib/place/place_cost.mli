(** The detailed-placement cost model, shared by the greedy search
    ({!Detailed}) and the per-row DP ({!Row_dp} uses a specialized
    moving-endpoint form of the same formula):

    net cost = manhattan length
             + λ_t · Eq.(2) timing / row_width
             + λ_wmax · max(0, length − w_max)
             + λ_slack · max(0, −slack_ps)          *)

type weights = { lambda_t : float; lambda_wmax : float; lambda_slack : float }

val default_weights : weights

val net_cost : Problem.t -> weights -> row_width:float -> dy:float -> Problem.net -> float
(** [dy] is the net's {!Problem.net_dy}; rows do not move inside a
    search, so callers take it once from {!Problem.net_dys}. *)

val total : Problem.t -> weights -> float
(** Σ over all nets at the current positions. *)
