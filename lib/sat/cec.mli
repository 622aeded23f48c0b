(** SAT-based combinational equivalence checking.

    Both netlists are converted into one shared, structurally-hashed
    {!Aig} over a common set of primary inputs, with one XOR miter per
    output pair on top. All outputs are then decided together:

    + deterministic random simulation (8 rounds of 64-bit words from a
      fixed {!Rng} seed) settles every output whose XOR word is
      non-zero, with the lowest set bit of its first such round as the
      counterexample;
    + if any output is still open, the miter is {e fraiged}: rebuilt,
      in node order, into a fresh AIG whose new nodes get their
      Tseitin clauses in a single incremental {!Solver} as they are
      created. Nodes are bucketed by their simulation signatures; a
      node whose rebuilt literal is already its bucket
      representative's is merged by hashing, for free; otherwise it is
      proven against the representative with two assumption solves
      whose decisions are limited to the two nodes' cones. When both
      answer [Unsat], the node's literal becomes the representative's,
      so its fan-out re-hashes onto shared structure and is merged
      without a query of its own. The sweep spends at most half the
      conflict budget; after that the rest of the miter is still
      rebuilt, merging by hashing alone;
    + an output whose rebuilt XOR is constant false is proven [Equal];
      each other open output is decided by one assumption solve,
      scoped to its cone, which gets whatever budget the sweep left.

    A scoped [Sat] leaves the inputs outside the cone unassigned; they
    read [false], which still makes a real input assignment under which
    the cone takes the model's values.

    The sweep reuses its own counterexamples. The model of every
    sweep query that answers [Sat] is packed into 64-bit pattern words
    (bit [k] of input [i]'s word = input [i] in the [k]-th model) and
    the miter is re-simulated on them. A later candidate pair that a
    stored pattern already separates is skipped: it is not asked, not
    merged and not made a representative, exactly as a [Sat] answer
    is handled. A pattern is a real input assignment and merges only
    add equivalences that hold, so the skipped query would have
    answered [Sat]. When no budget runs out, every node equivalent to
    its bucket representative is merged and every verdict class is
    that of an exhaustive check. Which model a [Sat] answer returns
    depends on the solver's history, so a counterexample found by a
    final solve is one of possibly several. When a budget does run
    out, the conflicts the skipped queries no longer spend go to later
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

type stats = {
  sweep_sat : int;  (** sweep queries answered [Sat] *)
  sweep_unsat : int;  (** sweep queries answered [Unsat] *)
  sweep_unknown : int;  (** sweep queries that ran out of budget *)
  merged_strash : int;
      (** nodes whose rebuilt literal was already their
          representative's: merged without a query *)
  merged_proof : int;  (** nodes merged after two [Unsat] queries *)
  final_solves : int;  (** per-output solves after the sweep *)
}
(** What one check did. Every count is deterministic. *)

val check_outputs_stats :
  ?conflict_budget:int -> Netlist.t -> Netlist.t -> verdict array * stats
(** {!check_outputs} with the counts of its sweep and final solves
    (all zero when strashing and simulation decide every output). *)

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
