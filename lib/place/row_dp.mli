(** Optimal single-row placement by shortest path (paper §III-C3).

    The paper notes that because AQFP cells live in dedicated rows, "a
    straightforward method is to transform detailed placement to the
    shortest path problem" (citing Dhar et al.). This module is that
    transform, exact for one row at a time: with the cell order fixed
    and every other row frozen, the optimal grid positions of a row's
    cells minimize

      Σ_cells Σ_nets (|dx| + λ_t·Eq.(2)/row_width + λ_wmax·excess +
                      λ_slack·violation)

    subject to the AQFP spacing rule. The DP state is (cell index,
    grid position); the spacing rule makes exactly two transition
    classes legal — abut the previous cell, or leave at least s_min —
    and a running prefix-minimum over the second class keeps the whole
    sweep linear in the states. A cell's states are only the left
    edges it can reach that still leave room for the rest of the row,
    so a sweep is O(cells × free grid steps), and each cell's net costs
    come from one {!Place_cost.add_band} call per net.

    Since the current placement is itself a feasible solution of the
    DP, a sweep never increases the cost; it is used as the polish
    pass after the swap-based {!Detailed} search. *)

type options = {
  lambda_t : float;
  lambda_wmax : float;
  lambda_slack : float;
  margin : float;  (** extra µm of position domain beyond the row width *)
  passes : int;  (** alternating bottom-up/top-down row sweeps *)
}

val default_options : options

val solve_row : ?options:options -> Problem.t -> int -> (float * int array) option
(** The DP's optimum for row [r] without moving anything: its cost and
    each cell's left edge in grid steps, cells in their current x
    order. [None] for an empty row or one whose cells do not fit the
    position domain. *)

val optimize_row : ?options:options -> Problem.t -> int -> bool
(** Optimally re-place one row (fixed order, everything else frozen).
    Returns true if the row changed. Preserves legality. *)

val run : ?options:options -> Problem.t -> int
(** Sweep all rows for [passes] passes; returns the number of row
    improvements. Requires and preserves legality.

    A row is skipped when its last solve in this call found nothing,
    no cell sharing a net with its cells has moved since, and the row
    width is unchanged. Its inputs are then the same, so the solve
    would find nothing again: the result equals solving every row. *)
