(** Window equivalence guards for accepted rewrites.

    Every local rewrite is re-proved before it is kept: the original
    fan-in cone between a node and its cut leaves (window A) is
    checked combinationally equivalent to the candidate
    implementation over the same leaves (window B) with the
    {!Cec} SAT machinery, and every whole-netlist pass candidate is
    proved against its predecessor the same way. Verdicts are
    memoized twice — an in-run table, and a persistent {!Memo.t}
    cache the flow wires to the design database's proof store —
    keyed by the {!Netlist.struct_hash} pair of the two windows
    (commutative-canonical, so re-encounters hit across runs). Only
    {e proven} verdicts ([Equal], or [Diff] with a counterexample)
    are ever stored; [Unknown] is retried next time.

    Don't-care seeding: a cut leaf that {!Const_dom} proved constant
    enters {e both} windows as a [Const] cell instead of a primary
    input, so the proof is exactly the claim "equal under the
    dataflow fact" — and the matcher may pick an implementation that
    differs outside that care set. *)

type stats = {
  mutable windows : int;  (** pairs submitted *)
  mutable proved : int;  (** fresh SAT proofs that returned [Equal] *)
  mutable cached : int;  (** verdicts served by the persistent cache *)
  mutable memoized : int;  (** verdicts served by the in-run table *)
  mutable failed : int;  (** [Diff]/[Unknown] — the rewrite is refused *)
}

type guard

val make : ?cache:string Memo.t -> unit -> guard
val stats : guard -> stats

val prove_equal : guard -> Netlist.t -> Netlist.t -> bool
(** [true] only on a proven [Equal] verdict (fresh, in-run or
    cached). The netlists must agree in primary input/output counts;
    a window pair with zero primary inputs is refused outright
    (counted [failed]) — constant folding owns that case. *)

val cone :
  Netlist.t -> root:int -> leaves:int array ->
  const_leaf:(int -> bool option) -> Netlist.t
(** Window A: the sub-netlist between [root] and [leaves] (every
    root-to-input path must cross a leaf — the cut property). Leaves
    become primary inputs in array order, except those with a
    [const_leaf] fact, which become [Const] cells; [root] drives the
    single output. *)

val impl_window :
  Maj_db.impl -> leaves:int array ->
  const_leaf:(int -> bool option) -> Netlist.t
(** Window B: the candidate implementation instantiated over fresh
    inputs under the same leaf discipline as {!cone}. *)
