(** Smooth placement objective: weighted-average (WA) wirelength model
    plus the four-phase timing cost and the max-wirelength penalty of
    the paper's Eq. (3), with analytic gradients with respect to each
    cell's x coordinate.

    The WA model replaces the non-smooth HPWL max/min with
    exponentially-weighted averages (smoothing parameter [gamma], µm):
    larger [gamma] = smoother but less accurate. This is the same
    model DREAMPlace uses; with AQFP's 2-pin nets it degenerates to a
    smooth |dx|. *)

type weights = {
  lambda_t : float;  (** timing-cost weight (λ_t of Eq. 1) *)
  lambda_w : float;  (** max-wirelength penalty weight (λ_w of Eq. 3) *)
  lambda_d : float;  (** row-density (overlap) penalty weight *)
  gamma : float;  (** WA smoothing, µm *)
  alpha : float;  (** timing exponent (paper sets 2) *)
}

val default_weights : Tech.t -> weights

val cost_and_grad :
  ?orders:int array array -> Problem.t -> weights -> float array -> float * float array
(** [cost_and_grad p w xs] evaluates the full objective at cell
    positions [xs] (indexed like [p.cells]) and returns the cost and
    its gradient. [xs] is not modified; the problem's stored positions
    are ignored, except that the Eq. (2) fold-back width is their
    {!Problem.row_width}.

    [orders], indexed like [p.row_cells], holds one permutation of each
    row's cells, typically the order an earlier call left there (start
    it as a copy of [p.row_cells]). The density term needs each row in
    [xs] order; [orders] is repaired to that order in place instead of
    sorting every row from scratch. Cost and gradient are bit-identical
    with and without it. *)

val wa_wirelength : Problem.t -> gamma:float -> float array -> float
(** The WA wirelength term alone (for tests: must upper-bound HPWL and
    approach it as gamma shrinks). *)
