(** Detailed placement (paper §III-C3, Fig. 4).

    Local search over a legalized placement that keeps legality
    invariant while lowering a combined wirelength + timing cost:

    - {e shift} moves slide one cell inside the free slot between its
      row neighbors toward the cost-minimizing position (candidates:
      the connection-median, abutting either neighbor, or one [s_min]
      away from either neighbor — the only positions the spacing rule
      allows near the boundaries);
    - {e swap} moves exchange two cells within a row window. With
      [mixed_size = true] (SuperFlow's contribution) the candidates
      may have different widths, accepted whenever both fit their new
      slots; with [mixed_size = false] only equal-width cells swap,
      reproducing the restricted placers of Fig. 4(a) for the
      ablation bench.

    Moves are accepted only when they strictly reduce cost, so the
    search monotonically improves and terminates. *)

type options = {
  lambda_t : float;  (** timing weight relative to wirelength; the
      timing term is Eq. (2) normalized by the row width so both terms
      are in µm *)
  lambda_wmax : float;  (** penalty per µm a net exceeds [w_max] —
      drives down the buffer-line count directly *)
  lambda_slack : float;  (** penalty per ps of per-net timing
      violation (the exact STA slack formula); 0 disables *)
  mixed_size : bool;
  window : int;  (** swap-candidate distance within the row order *)
  max_passes : int;
}

val default_options : options

val run : ?options:options -> Problem.t -> int
(** Improve the placement in place; returns the number of accepted
    moves. Requires and preserves legality. *)
