(** Logic netlist intermediate representation.

    A netlist is a mutable DAG of gates identified by dense integer
    ids. The same IR carries the design through every stage:

    - after RTL elaboration it is an {e AOI netlist} (2-input
      and/or/nand/nor/xor/xnor + inverters);
    - after majority conversion it is a {e MAJ netlist} (3-input
      majority gates, with and/or kept as majority shorthands);
    - after buffer/splitter insertion it is a legal {e AQFP netlist}
      (every fan-out is 1, every gate's fan-ins sit exactly one clock
      phase above it).

    Since AQFP connections are point-to-point, a "net" in the physical
    stages is one (driver, sink) fan-in edge of this graph. *)

type kind =
  | Input  (** primary input (no fan-in) *)
  | Output  (** primary output marker (one fan-in, no logic) *)
  | Const of bool  (** constant generator cell *)
  | Buf  (** AQFP buffer (also used for path balancing) *)
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Maj  (** 3-input majority *)
  | Splitter of int  (** 1-input, [k]-output fan-out cell, k in 2..4 *)

val kind_name : kind -> string

val arity : kind -> int
(** Required fan-in count of the gate kind ([Input] and [Const] are 0). *)

type t

type node = private {
  id : int;
  mutable kind : kind;
  mutable fanins : int array;
  mutable name : string option;
  mutable phase : int;  (** clock-phase depth; -1 until levelized *)
}

val create : unit -> t

val add : t -> ?name:string -> kind -> int array -> int
(** [add nl kind fanins] appends a gate and returns its id. Checks the
    arity of [kind] against [fanins]. Fan-in ids must already exist. *)

val size : t -> int
(** Number of nodes (including inputs/outputs/dead nodes). *)

val node : t -> int -> node

val kind : t -> int -> kind

val fanins : t -> int -> int array

val phase : t -> int -> int

val set_phase : t -> int -> int -> unit

val set_fanins : t -> int -> int array -> unit

val set_kind : t -> int -> kind -> unit

val name : t -> int -> string option

val inputs : t -> int list
(** Primary input ids in creation order. *)

val outputs : t -> int list
(** [Output] node ids in creation order. *)

val iter : t -> (node -> unit) -> unit

val fold : t -> ('acc -> node -> 'acc) -> 'acc -> 'acc

val fanout_counts : t -> int array
(** [counts.(i)] = number of fan-in references to node [i]. *)

val fanouts : t -> int list array
(** Reverse adjacency: ids of the consumers of each node. *)

val topo_order : t -> int array
(** Topological order (fan-ins before fan-outs). Raises [Failure] on a
    combinational cycle. *)

val levelize : t -> int
(** Assign [phase] = longest distance from any primary input (inputs
    and constants get phase 0) and return the maximum phase. This is
    the clock-phase count of the design {e before} path balancing. *)

(** {2 Path balance}

    The AQFP gate-level pipelining invariant, the one definition every
    check reads: every [Input] and [Const] sits at phase 0, and every
    fan-in of a gate sits at exactly the gate's phase − 1. [Output]
    nodes are exempt (they are markers, not gates). With sources
    pinned to 0 the rule implies, by induction, that each node's phase
    is the length of every path reaching it. *)

type imbalance =
  | Source  (** an [Input] or [Const] off phase 0 *)
  | Fanin of int  (** this fan-in is not at the gate's phase − 1 *)

val imbalances : t -> int -> imbalance list
(** [imbalances nl i] — the rule's violations at node [i], fan-ins
    in fan-in order; [[]] when [i] obeys it. Reads the [phase] fields
    as they stand (a prior {!levelize}, or later edits). *)

val is_balanced : t -> bool
(** No node has an {!imbalances} violation. *)

val count_kind : t -> (kind -> bool) -> int

val validate_diags : t -> Diag.t list
(** Structural sanity as checker diagnostics: arities ([NL-ARITY-01]),
    dangling fan-in ids ([NL-DANGLE-01]), combinational cycles
    ([NL-CYCLE-01]) and [Splitter k] nodes whose real consumer count
    differs from [k] ([NL-FANOUT-01]). Empty list = structurally
    sound. The checker's netlist-lint pass builds on this. *)

val copy : t -> t

val commutative : kind -> bool
(** Whether a gate's function is invariant under fan-in permutation
    ([And]/[Or]/[Nand]/[Nor]/[Xor]/[Xnor]/[Maj]). Structural hashing
    and CSE sort such fan-ins into a canonical order. *)

val struct_hash : t -> string
(** Hex digest of the netlist's structure: node kinds and fan-in
    wiring in id order, with names and phases excluded and
    {!commutative} fan-ins sorted — so [maj(a,b,c)] and [maj(c,a,b)]
    hash alike and operand order cannot defeat duplicate detection.
    Two netlists with equal [struct_hash] are isomorphic as labeled
    DAGs up to commutative operand order. Used as the proof-cache key
    by the equivalence engines. *)

val pp_stats : Format.formatter -> t -> unit
