(** Analytical global placement (paper §III-C2).

    The CPU stand-in for the paper's DREAMPlace engine, in three
    phases, with the row (clock phase) of every cell fixed throughout:

    1. a quadratic wirelength solve (conjugate gradient) as warm
       start;
    2. Adam gradient descent on the smooth objective of Eq. (3): WA
       wirelength + λ_t · four-phase timing (Eq. 2) + λ_w ·
       max-wirelength penalty + an annealed row-density penalty,
       with DREAMPlace-style gradient-norm calibration of the λs;
    3. iterated barycenter-ordering / Abacus-legalization sweeps that
       carry the continuous solution into a legal placement, choosing
       the best legal state under the wirelength+timing cost.

    The result is legal (spacing/grid) and ready for detailed
    placement. *)

val run : ?seed:int -> Problem.t -> unit
(** Optimize cell positions in place; ends legalized. [seed]
    (default 1) jitters the Adam phase's starting positions. *)

val barycenter_sweeps :
  ?sweeps:int -> ?timing_bias:float -> ?timing_weight:float -> Problem.t -> unit
(** Phase 3 alone (exposed for the baseline placers and tests): each
    sweep visits the rows in turn; for each row it recomputes the
    barycenters of that row's cells from the current positions
    (optionally nudged against the timing gradient by [timing_bias]),
    moves the cells toward them, re-sorts and legalizes the row. It
    keeps the best legal state under
    [hpwl + timing_weight * timing / row_width]. *)
