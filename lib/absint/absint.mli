(** Monotone dataflow over the netlist DAG ([sf_absint]).

    SuperFlow's AQFP netlists should keep global dataflow invariants —
    splitter trees bounding fan-out, no constant or unobservable logic
    left by synthesis. (Path balance needs no dataflow: it is the
    local rule {!Netlist.imbalances}, checked as [AQFP-PHASE-01].)
    This library proves such invariants in one linear-ish pass: a
    domain supplies the bottom fact and a transfer function, and
    {!forward} or {!backward} schedules one transfer per node over the
    DAG and returns the fixpoint fact array. Merging the facts of
    several predecessors is the transfer's own business.

    {b Schedule.} On a DAG, one transfer per node reaches the
    fixpoint: {!forward} visits the nodes in {!Netlist.topo_order},
    {!backward} in its reverse, so every fact a transfer reads is
    final when it runs. The facts are a pure function of the
    netlist.

    Shipped domains: {!Const_dom} (ternary constants, [AI-CONST-01]),
    {!Load_dom} (fanout-capacity intervals through splitter trees,
    [AI-LOAD-01]), {!Obs_dom} (backward observability, consumed by
    the [NL-DEAD-01]/[NL-INPUT-01] lints and [AI-OBS-01]) and
    {!Polar_dom} (inversion parity, [AI-POLAR-01]). {!Facts} solves
    each of them at most once per netlist and shares the results
    between the check passes. Every diagnostic they emit carries a
    witness — the fan-in cone path that forces the fact — rendered
    through {!Diag.t}'s witness channel. *)

val forward :
  Netlist.t -> bot:'a -> transfer:(int -> 'a array -> 'a) -> 'a array
(** [forward nl ~bot ~transfer] — facts flow with the signal
    direction, in {!Netlist.topo_order}: [transfer id facts] may read
    [facts.(f)] for every fan-in [f] of [id] (they are final when
    [id] is visited). Every slot starts at [bot]. Returns the
    fact array indexed by node id. Raises [Failure] on a
    combinational cycle. *)

type fanouts = private {
  consumers : int list array;  (** {!Netlist.fanouts} *)
  order : int array;
      (** the backward schedule: {!Netlist.topo_order} reversed *)
}
(** The reverse adjacency and the backward schedule of one netlist,
    built once and shared by every backward solve over it. *)

val fanouts : Netlist.t -> fanouts
(** Raises [Failure] on a combinational cycle. *)

val backward :
  Netlist.t ->
  fanouts:fanouts ->
  bot:'a ->
  transfer:(int -> 'a array -> 'a) ->
  'a array
(** [backward nl ~fanouts ~bot ~transfer] — facts flow against the
    signal direction: [transfer id facts] may read the facts of every
    consumer of [id]. [fanouts] must be built over [nl]. *)

(** {1 Witness rendering}

    Witness steps print as [n<id>:<kind>] with the node's name
    appended when present (e.g. [n12:maj"sum3"]), source first. *)

val path_witness : Netlist.t -> int list -> string list
(** Render a node-id path (given source-first) into witness steps. *)

val chase : limit:int -> int -> (int -> int option) -> int list
(** [chase ~limit start next] — follow [next] from [start] until it
    returns [None] (or [limit] steps, a belt against accidental
    cycles), returning the visited ids from [start] onward. Shared by
    the domains' witness extraction. *)
