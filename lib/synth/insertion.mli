(** Splitter and buffer insertion (paper §III-B2).

    AQFP gates drive exactly one fan-out; gates with more consumers
    need splitter cells (chosen by fan-out count, up to the library's
    3-output splitter, wider fan-outs becoming balanced splitter
    trees). Because every gate occupies one clock phase, all fan-ins
    of a gate must arrive with equal delay; after splitter insertion
    the stage re-levelizes the netlist and inserts buffer chains on
    every connection that spans more than one phase. Primary outputs
    are additionally padded to the final phase so the whole design
    retires in lock-step.

    Post-conditions (all checked by the test suite):
    - every non-splitter node has at most one consumer;
    - a [Splitter k] node has exactly [k] consumers;
    - the netlist is phase-balanced ({!Netlist.is_balanced});
    - the function computed is unchanged. *)

type stats = {
  splitters : int;  (** splitter cells inserted *)
  buffers : int;  (** balancing buffers inserted *)
  delay : int;  (** clock phases of the balanced design *)
  jj : int;  (** total JJ count after insertion *)
  nets : int;  (** point-to-point connections after insertion *)
}

val insert : ?max_arity:int -> Netlist.t -> Netlist.t
(** Insert splitters and path-balancing buffers into a majority-based
    netlist. The input is not modified. [max_arity] (default: the
    library's widest splitter, 3) caps the splitter fan-out — 2 forces
    binary trees, the arm of the splitter-arity ablation. *)

val insert_with_stats : ?max_arity:int -> Netlist.t -> Netlist.t * stats

val insert_ladder_with_stats : Netlist.t -> Netlist.t * stats
(** Joint splitter/buffer insertion with sharing: one distribution
    ladder per signal instead of per-edge buffer chains, following
    the optimal-insertion literature the paper cites ([5], [7]).
    Consumers of one signal at different depths share regeneration
    cells, which costs markedly fewer buffers than {!insert}. Same
    post-conditions. *)

val run : Netlist.t -> Netlist.t * stats
(** The one insertion choice, shared by synthesis and resynthesis:
    {!insert_ladder_with_stats} when its [(jj, delay)] is
    lexicographically smaller than {!insert_with_stats}'s, the
    per-edge result otherwise — ties and a ladder that raises
    [Failure] (a fixpoint that does not converge) included. *)

val count_nets : Netlist.t -> int
(** Point-to-point connections: the sum of fan-in arities. *)
