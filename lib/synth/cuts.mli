(** Deterministic k-feasible cut enumeration (k = 3), shared by
    synthesis ({!Aoi_to_maj}, over the AOI netlist) and resynthesis
    ([Resyn], over the mapped majority netlist).

    A cut of node [v] is a set of at most 3 leaves such that every
    path from a primary input to [v] crosses a leaf; the cut carries
    the truth table of [v] as a function of its leaves. Enumeration
    is the classical bottom-up merge — a gate's cuts are the unions
    of one cut per fan-in, capped at 3 leaves — with the trivial cut
    [{v}] always kept first and at most {!cuts_per_node} cuts per
    node (trivial plus the widest merges, the most collapsible ones).

    Determinism and parallelism: cuts depend only on strictly
    shallower nodes, so nodes are processed level-synchronously over
    {!Netlist.levels} — each level shards over
    {!Parallel.parallel_map} (label [cuts], ordered combine) in fixed
    chunks of 64 nodes, making the result bit-identical at any
    [--jobs] and keeping levels of up to 64 nodes off the pool.

    Known limitation (the cause of today's [RS-CEC-01] refusals): the
    table is computed as if the leaves were independent, but a cut may
    hold two leaves where one is a function of the other. On c1355,
    node 339 has the cut [{333, 334, 335}] with [335 = NOT 334]; the
    merge expresses part of the function through [334] and part
    through [335], so [tt] is right only on the rows where
    [335 = NOT 334]. {!Window.cone} stops at [335] and treats it as a
    free input, so the window and the matched implementation differ
    only on rows no input can reach, and the guard refuses a rewrite
    that was correct in context (2 refusals on c1355, 4 on c1908, all
    of this shape). It is not a matcher bug, and every refusal is
    sound; dropping such cuts or treating the unreachable rows as
    don't-cares would change QoR and [bench/qor_baselines.txt]. *)

type cut = {
  leaves : int array;  (** sorted ascending, [1 <= length <= 3] *)
  tt : int;  (** truth table of the node over [leaves], in order *)
}

val cuts_per_node : int
(** 8 — the per-node cap. *)

val tt3 : cut -> Truth.t
(** The cut function padded to the 3-variable space of {!Maj_db}
    (missing variables replicated, i.e. don't-care). *)

val trivial : int -> cut
(** [{v}] with the identity table. *)

val is_trivial : int -> cut -> bool

val enumerate : Netlist.t -> cut list array
(** Per-node cut lists, trivial first. Gates ([Maj], the six 2-input
    kinds and [Not]; [Buf]/[Splitter] pass through) also get the
    merges of their fan-ins' cuts; inputs, constants and outputs get
    only the trivial cut. The netlist must be acyclic. *)
