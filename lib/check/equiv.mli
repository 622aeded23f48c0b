(** Stage-equivalence guards ([EQ-*]): formal combinational
    equivalence between two snapshots of the same design, asserted at
    the synthesis handoffs (AOI → MAJ and MAJ → buffered AQFP inside
    [Synth_flow.run ~check:true]) and available standalone through
    [superflow prove].

    Every primary output gets its own verdict. The outputs the cache
    does not answer are proven together by one joint SAT-sweeping
    proof ({!Cec.check_outputs}) over the sub-netlists feeding them,
    complete up to the conflict budget: logic the output cones share
    is simulated and swept once, not once per cone. An output whose
    budget runs out ([Cec.Unknown]) is sampled by simulation and
    reports [EQ-TIMEOUT-01].

    The proof runs on the calling domain. Every SAT counterexample is
    replayed through {!Sim.eval} on that output's cones before being
    reported; a cex that does not actually distinguish the two cones
    is a solver bug and surfaces as an internal-error diagnostic,
    never as a fake difference. A counterexample found by simulation
    is the one a per-cone proof finds. Verdicts are combined in output
    order, so the report is byte-identical at any pool size.

    Before the proof runs, the netlists it sees (each output's cone
    for the cache key, the sub-netlist feeding the open outputs for
    the joint proof) are constant-folded with the [sf_absint] ternary
    facts ({!Const_dom.fold}) — sound (folding preserves every
    output's function) and strictly proof-shrinking: constants cut
    SAT clauses, and the cache key is computed over the folded cone.

    Proven verdicts can be memoized through a {!Memo.t} (the flow
    wires this to [sf_db]); keys are content hashes of the two folded
    cones of one output, so only the cache misses are proven and a
    warm rerun re-proves nothing. Cache lookups and stores never
    affect the emitted diagnostics. Output cones are only extracted
    where a cache key or a difference or budget-out of the joint
    proof needs them.

    Rule catalog:
    - [EQ-ARITY-01] (error) — primary input/output counts differ;
    - [EQ-DIFF-01] (error) — an output provably differs (the message
      carries the counterexample input vector);
    - [EQ-DIFF-02] (error) — an output whose conflict budget ran out
      differs under simulation;
    - [EQ-TIMEOUT-01] (warning) — SAT conflict budget exhausted for
      an output; equivalence only sampled, not proven;
    - [EQ-CEX-01] (error) — internal: a SAT counterexample failed to
      replay through simulation. *)

val cone : Netlist.t -> int -> Netlist.t
(** [cone nl oid] — the sub-netlist feeding output marker [oid]: all
    primary inputs of [nl] (in order, used or not) plus the
    transitive fan-in of [oid] and the marker itself. Raises
    [Invalid_argument] if [oid] is not an [Output] node. *)

val sat_pair : Netlist.t -> Netlist.t -> Netlist.t * Netlist.t
(** [sat_pair before after] — the two netlists {!check_pair}'s joint
    SAT proof takes when no output is cached: each side's sub-netlist
    feeding all of its outputs, constant-folded. *)

val check_pair :
  ?engine:[ `Sat ] ->
  ?conflict_budget:int ->
  ?cache:string Memo.t ->
  stage:string ->
  Netlist.t ->
  Netlist.t ->
  Diag.t list
(** [check_pair ~stage before after] — per-output equivalence of two
    netlists; [stage] (e.g. ["aoi->maj"]) tags the messages.
    [conflict_budget] bounds the one joint SAT proof as in
    {!Cec.check_outputs}; [cache] stores {e proven} verdicts only.
    [engine] has one value and selects nothing: it is kept only for
    the two [~engine:`Sat] call sites in [bench/perf/perf.ml], and
    goes when ROADMAP item 2 deletes them. *)
