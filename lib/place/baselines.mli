(** Baseline placers the paper compares against in Table III.

    {b GORDIAN-based} (Li et al., DATE'21 [8]): quadratic wirelength
    placement, wirelength only — no timing term. Followed by the same
    Tetris legalization and a wirelength-only shift pass restricted to
    equal-size swaps. It achieves good wirelength but, as the paper
    observes, poor timing on large circuits.

    {b TAAS} (Dong et al., DAC'22 [10]): timing-aware analytical
    placement — the quadratic engine with per-net weights iteratively
    increased on nets with high four-phase timing cost, trading a
    little wirelength for better slack. Detailed improvement remains
    size-matched (contrast with SuperFlow's mixed-cell-size swaps,
    Fig. 4). *)

val gordian : Problem.t -> unit
(** Run the GORDIAN-based baseline: positions end legalized. *)

val taas : Problem.t -> unit
(** Run the TAAS baseline: positions end legalized. Three quadratic
    solves with timing-derived net reweighting in between. *)
