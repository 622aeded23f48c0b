(** [sf_resyn] — cut-based majority resynthesis between mapping and
    placement (the flow's [resyn] stage).

    The engine consumes the post-insertion AQFP netlist from
    {!Synth_flow}, strips the buffer/splitter fabric back to the bare
    majority netlist, iterates rewriting passes to a fixpoint under a
    pass manager, and re-runs the {!Insertion} strategies (cheaper of
    per-edge and ladder, exactly like {!Synth_flow}) to produce the
    optimized AQFP netlist. A candidate from any pass is accepted
    only when its {e exact} post-insertion cost improves — JJ count
    and phase depth pointwise no worse, at least one strictly better
    — and it is proved equivalent to its predecessor through
    {!Window.prove_equal} (SAT CEC, verdicts memoized in the design
    database). The passes, in round order at [Full] effort:

    - [const]: {!Const_dom.fold} constant propagation;
    - [cse]: rebuild through {!Builder} — canonical commutative
      operand order, double-negation collapse, majority-with-constant
      degradation, dead-logic sweep;
    - [rewrite]: k-feasible cut enumeration ({!Cuts}), NPN-canonical
      matching ({!Npn}) of every cut function against {!Maj_db}
      (don't-care-widened by {!Const_dom} facts), area-flow covering
      scored by {!Cost}, each chosen rewrite guarded by window CEC —
      a refused window falls back to the original cone and raises an
      [RS-CEC-01] warning;
    - [balance]: depth-aware rebalancing of [And]/[Or] chains (the
      degenerate majority trees of this library) by Huffman
      combination on projected levels;
    - [split]: splitter-load-aware duplication of cheap (2-JJ)
      high-fanout drivers so their splitter trees shrink;
    - [obs]: {!Obs_dom}-seeded blocked-node elimination.

    [Fast] effort is a single [cse] + [rewrite] round; [Off] returns
    the input unchanged (the stage still exists and caches). Rounds
    repeat until no pass improves; since every acceptance strictly
    shrinks [jj + depth], the fixpoint terminates and a second run
    accepts zero rewrites on the result.

    Determinism: cut enumeration and matching visit the nodes in
    topological order, and realization and proof traffic follow node
    order, so the output netlist is a pure function of the input. *)

type effort = Off | Fast | Full

val effort_name : effort -> string
(** ["none"], ["fast"], ["full"]. *)

val effort_of_string : string -> (effort, string) result

type pass_stat = {
  pass : string;
  iterations : int;  (** times the pass ran *)
  tried : int;  (** candidate rewrites considered *)
  accepted : int;  (** rewrites in accepted candidates *)
}

type cec_stats = {
  windows : int;
  proved : int;  (** fresh SAT proofs *)
  cached : int;  (** served by the persistent proof cache *)
  memoized : int;  (** served by the in-run table *)
  failed : int;  (** refused rewrites *)
}

type report = {
  effort : effort;
  rounds : int;
  maj_before : int;  (** logic gates in the stripped majority netlist *)
  maj_after : int;
  jj_before : int;  (** post-insertion JJ count *)
  jj_after : int;
  depth_before : int;  (** post-insertion phase depth *)
  depth_after : int;
  buffers_before : int;
  buffers_after : int;
  splitters_before : int;
  splitters_after : int;
  passes : pass_stat list;  (** in pass order; stable across runs *)
  cec : cec_stats;
  diags : Diag.t list;  (** [RS-CEC-01] refusals, {!Diag.compare}-sorted *)
}

val rewrites_tried : report -> int
val rewrites_accepted : report -> int

val run :
  ?effort:effort -> ?cache:string Memo.t -> Netlist.t -> Netlist.t * report
(** [run aqfp0] — the full stage on a post-insertion netlist.
    [effort] defaults to [Off] (identity). When nothing improves, the
    input netlist is returned {e unchanged} (same bytes), which makes
    the stage idempotent: a second run over its own output accepts 0
    rewrites. [cache] persists CEC verdicts (the flow wires it to
    {!Db.put_proof}/{!Db.find_proof}); a warm rerun proves 0 fresh
    windows. *)
