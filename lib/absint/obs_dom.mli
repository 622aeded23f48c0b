(** Backward observability: does a node provably affect any primary
    output?

    Backward dataflow from the output markers, refined by the
    {!Const_dom} facts: a signal dies not only when no structural
    path to an output exists, but also when every path runs through a
    consumer that is {e provably constant} (a constant gate passes no
    information — e.g. an [And] whose other fan-in is a constant 0).

    Facts, least to greatest:
    - [Dead] — no structural path to any output (the old
      reachability notion; [via] is the first hop of a chain to the
      dead end, [None] when the node has no consumers at all);
    - [Blocked] — structural paths exist, but every one is provably
      cut; [blocker] is the nearest dominating constant-valued gate
      and [via] the consumer through which it is reached;
    - [Observable] — drives at least one output along an un-blocked
      path.

    The lint pass consumes this result to upgrade [NL-DEAD-01] from
    "has no consumers" to "provably does not affect any output", with
    the blocking-gate witness in the message; the standalone
    [AI-OBS-01] (warning) pass reports the [Blocked] nodes — logic
    that looks alive by reachability but provably is not. *)

type fact =
  | Dead of int option  (** [via]: first hop towards the dead end *)
  | Blocked of { blocker : int; via : int }
  | Observable

val solve :
  Netlist.t -> fanouts:Absint.fanouts -> consts:Const_dom.value array -> fact array
(** [solve nl ~fanouts ~consts] refines reachability by [consts =
    Const_dom.solve nl]. Requires an acyclic netlist; [fanouts] must
    be built over [nl]. *)

val witness : Netlist.t -> fact array -> int -> string list
(** The chain from a non-observable node forward to its dead end or
    blocking gate (node first), for [Diag] witnesses. Empty for
    [Observable] nodes. *)

val check : Netlist.t -> consts:Const_dom.value array -> fact array -> Diag.t list
(** [check nl ~consts facts] — the [AI-OBS-01] findings over [facts
    = solve nl ~fanouts ~consts] ([Blocked] gates, excluding nodes
    that are themselves provably constant — those are
    [AI-CONST-01]'s), in node-id order. *)
