(** Ternary-constant dataflow ([{0,1,X}] with X-propagation from the
    primary inputs).

    Primary inputs start at [Unknown]; [Const] generator cells are
    the only sources of known values; every gate kind has an exact
    ternary transfer (e.g. [And] is [Zero] as soon as one fan-in is
    [Zero], however unknown the other). A node whose fact is known is
    {e provably} constant for every input assignment — a sound,
    linear-time replacement for the SAT path on internal nets.

    [AI-CONST-01] (warning) fires on:
    - a logic gate forced constant while at least one fan-in is still
      unknown (the unknown cone is provably wasted), and
    - a primary output with a known value (a constant output).

    Pass-through chains ([Buf]/[Splitter]/[Not]) of an already-known
    value are deliberately not re-flagged — the root cause is. Every
    diagnostic carries the witness chain from the forcing [Const]
    generator down to the flagged node. *)

type value = Zero | One | Unknown

val value_name : value -> string

val solve : Netlist.t -> value array
(** Fixpoint facts, indexed by node id. Requires an acyclic netlist
    ([Failure] on a cycle, as {!Netlist.topo_order}). *)

val check : Netlist.t -> value array -> Diag.t list
(** [check nl facts] — the [AI-CONST-01] findings over [facts =
    solve nl], in node-id order. *)

type fold_stats = {
  folded : int;  (** nodes rewritten to [Const] cells *)
  live_before : int;  (** nodes reachable from an output before *)
  live_after : int;  (** … and after the fold *)
}

val fold : Netlist.t -> Netlist.t * fold_stats
(** Constant folding for the equivalence proof: a copy of the
    netlist where every provably-constant internal node is replaced
    by a [Const] cell with no fan-ins. The function computed at every
    output is unchanged (the domain is sound), but the live cone the
    SAT proof traverses shrinks — the constants act as cone
    assumptions. IO markers and existing [Const] cells are kept. *)
