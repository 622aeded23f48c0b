(** Netlist lints ([NL-*]): structural problems any stage's netlist
    can exhibit, independent of AQFP legality.

    Rule catalog:
    - [NL-ARITY-01] (error) — fan-in count differs from the gate
      kind's arity (from [Netlist.validate_diags]);
    - [NL-DANGLE-01] (error) — fan-in references a node id outside
      the netlist;
    - [NL-CYCLE-01] (error) — combinational cycle;
    - [NL-FANOUT-01] (error) — a [Splitter k] drives a number of
      consumers different from [k];
    - [NL-NAME-01] (warning) — two nodes share a name;
    - [NL-DUP-01] (warning) — structurally duplicate gate: a gate
      recomputes the same AIG function of the same fan-ins as an
      earlier gate (buffers/splitters exempt — replication is their
      job);
    - [NL-CONST-01] (warning) — a primary output is provably constant
      after AIG constant propagation;
    - [NL-DEAD-01] (warning) — dead logic: backward observability
      ({!Obs_dom}) proves the node reaches no primary output, with
      the forward chain to the dead end as the diagnostic witness;
    - [NL-INPUT-01] (info) — an unused primary input;
    - [NL-OUT-01] (warning) — the netlist has no primary outputs.

    The duplicate/constant rules ride on [sf_sat]'s structurally
    hashed {!Aig}; they only run when the netlist is structurally
    sound (no [NL-ARITY-01]/[NL-DANGLE-01]/[NL-CYCLE-01]) {e and} the
    tier is {!Check.Full} — the [Fast] tier leans on the [sf_absint]
    constant pass ([AI-CONST-01]) instead, which finds the same
    degenerate logic without building the AIG. *)

val check : ?tier:Check.tier -> ?facts:Facts.t -> Netlist.t -> Diag.t list
(** [check ?tier ?facts nl] — default tier is [Full] (the
    standalone-lint behaviour); the flow gate passes its own tier
    through. [facts] (default: a fresh table) must be built over
    [nl]; the liveness rules read its observability facts, so a table
    shared with {!Absint_check.passes} solves them once. *)
