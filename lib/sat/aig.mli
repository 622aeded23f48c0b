(** And-inverter graphs with structural hashing.

    Nodes are two-input AND gates; edges carry an optional complement
    bit. A literal is [2*node + complement]; node 0 is the constant
    (literal {!false_lit} = 0, {!true_lit} = 1) and nodes
    [1..n_inputs] are the primary inputs. {!mk_and} normalizes operand
    order, propagates constants and hashes structurally, so two
    functionally-identical subgraphs built gate-by-gate collapse to
    the same literal. This is the basis of the CEC sweeper, which
    rebuilds its miter into a fresh AIG so that every proven
    equivalence re-hashes the fan-out onto shared structure, and of
    the [NL-DUP-01]/[NL-CONST-01] lint rules. *)

type t

val create : n_inputs:int -> t

val n_nodes : t -> int
(** Node count including the constant node and the inputs. *)

val false_lit : int

val true_lit : int

val input_lit : t -> int -> int
(** Positive literal of input [i] (0-based, in [0, n_inputs)). *)

val neg : int -> int

val mk_and : t -> int -> int -> int

val mk_xor : t -> int -> int -> int

val mk_maj : t -> int -> int -> int -> int

val add_netlist : t -> Netlist.t -> int array
(** Convert a netlist into the AIG. The netlist's primary inputs map,
    in {!Netlist.inputs} order, onto AIG inputs [0..]; their count
    must equal the AIG's [n_inputs]. Returns the AIG literal of every netlist
    node ([Output], [Buf] and [Splitter] nodes are transparent).
    Raises [Failure] on a cyclic netlist (via [Netlist.topo_order])
    and [Invalid_argument] on an input-count mismatch. *)

val sim : t -> int64 array -> int64 array
(** [sim t words] — bit-parallel evaluation; [words] has one 64-bit
    stimulus word per input. Returns the value word of every {e node}
    (not literal); use {!lit_word} to read a literal. *)

val lit_word : int64 array -> int -> int64

val fanins : t -> int -> int * int
(** [fanins t id] — the two operand literals of AND node [id]
    ([Invalid_argument] for the constant, an input or no node). *)

val encode : t -> Solver.t -> unit
(** Tseitin-encode every node the solver does not hold yet: node [v]
    becomes solver variable [v] (a unit clause pins the constant node,
    3 clauses define each AND), so an AIG literal is its own solver
    literal. The solver must hold no other variables. Calling it after
    each {!mk_and} encodes a growing AIG node by node, each node once. *)
