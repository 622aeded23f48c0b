(** SAT-based combinational equivalence checking.

    Both netlists are converted into one shared, structurally-hashed
    {!Aig} over a common set of primary inputs, with one XOR miter per
    output pair on top. All outputs are then decided together:

    + deterministic random simulation (8 rounds of 64-bit words from a
      fixed {!Rng} seed) settles every output whose XOR word is
      non-zero, with the lowest set bit of its first such round as the
      counterexample;
    + if any output is still open, one SAT-sweeping pass over the
      whole AIG buckets candidate-equivalent nodes by their simulation
      signatures, proves them with incremental assumption solves on a
      single {!Solver}, and merges each proven pair with equality
      clauses. The sweep spends at most half the conflict budget;
    + each open output's XOR is then decided by one assumption solve,
      which gets whatever budget the sweep left.

    The sweep reuses its own counterexamples. The model of every
    sweep query that answers [Sat] is packed into 64-bit pattern words
    (bit [k] of input [i]'s word = input [i] in the [k]-th model) and
    the AIG is re-simulated on them. A later candidate pair that a
    stored pattern already separates is skipped: it is not asked, not
    merged and not made a representative, exactly as a [Sat] answer
    is handled. A pattern is a real input assignment and merges only
    add equivalences that hold, so the skipped query would have
    answered [Sat]; bucketing, node order and representative choice
    are unchanged, and the queries asked are a subsequence of those
    asked without reuse. When no query exhausts its budget the same
    pairs are merged and every verdict class is the same; only the
    solver's learned clauses differ, so a counterexample found by a
    final solve may be another model. When a budget does run out,
    the conflicts the skipped queries no longer spend go to later
    queries.

    Because the two netlists share one AIG and one sweep, logic that
    several output cones have in common is proven once, not once per
    cone. Everything is deterministic: the stimulus comes from a fixed
    seed, buckets are processed in node-id order and the solver itself
    is deterministic. *)

type verdict =
  | Equal  (** miter UNSAT — proven equivalent *)
  | Diff of bool array
      (** counterexample, one bool per primary input in
          [Netlist.inputs] order *)
  | Unknown of int  (** conflict budget (the argument) exhausted *)

val default_budget : int

val check_outputs :
  ?conflict_budget:int -> Netlist.t -> Netlist.t -> verdict array
(** [check_outputs a b] — one verdict per output pair, in
    [Netlist.outputs] order. The netlists must have the same number of
    primary inputs and outputs ([Invalid_argument] otherwise); inputs
    pair up in [Netlist.inputs] order. [conflict_budget] (default
    {!default_budget}) bounds the sweep to half of it; each output's
    final solve may then use all that the sweep left, so an [Unknown]
    carries [conflict_budget] itself. *)

val check : ?conflict_budget:int -> Netlist.t -> Netlist.t -> verdict
(** [check a b] — all outputs at once: [Equal] iff every output of
    {!check_outputs} is, otherwise the first [Diff] in output order,
    otherwise [Unknown]. *)
