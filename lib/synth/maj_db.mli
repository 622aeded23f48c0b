(** Minimal majority-network database for 3-input boolean functions.

    The paper's Karnaugh-map matching step (§III-B1) decides, for each
    feasible 3-input net of the AOI netlist, whether it maps to one
    majority gate or to two-level majority logic, picking the most
    resource-efficient variant. This module precomputes the answer
    exhaustively: for every one of the 256 truth tables over
    (v0,v1,v2) it stores a cheapest implementation as a network of
    3-input majority gates whose operands are literals (possibly
    negated), constants, or earlier gate outputs (possibly negated —
    a negation costs one 2-JJ inverter cell).

    Costs follow the AQFP cell library: 6 JJ per majority gate (an
    and2/or2 standard cell — a majority with a built-in constant —
    costs the same 6 JJ), 2 JJ per explicit inverter. Ties are broken
    by logic depth (clock phases), matching the paper's goal of
    minimizing both JJ count and delay. *)

type operand =
  | Var of int * bool  (** [Var (k, neg)] — input variable 0..2 *)
  | Cst of bool
  | Gate of int * bool  (** output of an earlier gate in [gates] *)

type gate = { a : operand; b : operand; c : operand }
(** One 3-input majority gate. *)

type impl = {
  gates : gate array;  (** topological order *)
  out : operand;  (** the implemented function's source *)
  jj : int;  (** total JJ cost *)
  depth : int;  (** majority levels (inverters are free in depth) *)
}

val lookup : Truth.t -> impl
(** Implementation of a 3-variable truth table (only the low 8 bits of
    the argument are considered). Total: every function has an entry. *)

val cost : Truth.t -> int
(** JJ cost of [lookup]. *)

val max_gates : unit -> int
(** Largest gate count over all 256 entries. *)

val coverage : unit -> int
(** Number of truth tables with an implementation (always 256; exposed
    for the test suite). *)
