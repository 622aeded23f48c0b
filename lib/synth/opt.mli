(** AOI netlist optimization, run before majority conversion.

    A single bottom-up rewriting pass through {!Builder} (the
    structurally hashed constructor resynthesis also uses), iterated
    to a fixpoint:

    - {e constant folding}: gates with constant operands collapse
      ([and(x,0) = 0], [or(x,1) = 1], [xor(x,0) = x], ...);
    - {e boolean identities}: idempotence ([and(x,x) = x]),
      complementation ([and(x,~x) = 0], [xor(x,x) = 0]), double
      negation, buffer collapsing;
    - {e common-subexpression elimination}: structurally identical
      gates (commutative operands sorted) share one node;
    - {e dead-node sweep}: only logic reachable from the primary
      outputs survives.

    Primary inputs and outputs keep their order and names, so the
    result is drop-in equivalent (verified by the test suite through
    exhaustive/random simulation). *)

val optimize : Netlist.t -> Netlist.t
(** Full fixpoint optimization of an AOI netlist.

    {b Precondition:} the netlist is pure AOI — no majority or
    splitter nodes. Those appear only after technology mapping, where
    this pass does not apply; the post-mapping optimizer is
    [sf_resyn] ([Resyn.run]), the flow's [resyn] stage. Violations
    raise [Invalid_argument] with a message naming the offending node,
    its kind, and that redirection. *)

type stats = { nodes_before : int; nodes_after : int; iterations : int }

val optimize_with_stats : Netlist.t -> Netlist.t * stats
