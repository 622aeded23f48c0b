(** From-scratch CDCL SAT solver.

    The classic architecture: two-watched-literal propagation, first-UIP
    conflict analysis with clause learning, VSIDS variable activities
    with phase saving, luby-series restarts and activity-based learnt
    clause-DB reduction. Everything is deterministic for a fixed
    sequence of [new_var]/[add_clause]/[solve] calls: VSIDS ties break
    on the lower variable index, initial phase is always [false], and
    no randomness or wall-clock input is consulted anywhere.

    Literals are ints: [2*v] is variable [v] positive, [2*v+1] negated
    ({!lit_of_var}, {!neg_lit}). The solver is incremental — clauses
    may be added between [solve] calls and [solve] accepts a list of
    assumption literals that hold for that call only. *)

type t

type result = Sat | Unsat | Unknown

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val lit_of_var : int -> int

val neg_lit : int -> int

val add_clause : t -> int list -> unit
(** Add a problem clause (list of literals). Tautologies are dropped,
    duplicate and root-level-false literals removed; an empty (or
    root-contradictory) result makes the solver permanently {!Unsat}. *)

val solve :
  ?assumptions:int list -> ?scope:int list -> ?conflict_budget:int -> t -> result
(** Solve the current clause set. [assumptions] are literals that must
    hold in this call; [Unsat] then means "unsatisfiable under the
    assumptions". [conflict_budget] bounds the number of conflicts in
    this call — on exhaustion the solver returns {!Unknown} (learnt
    clauses are kept, so a later call resumes stronger).

    [scope] (variables; default: all of them) limits the decisions to
    those variables, and the call answers [Sat] as soon as every scope
    variable is assigned without a conflict. Propagation is unchanged,
    so variables outside the scope may be assigned too. The answer is
    only sound when every such partial assignment extends to a model of
    the whole clause set — e.g. the scope holds the assumptions'
    variables and is closed under the definitions of a Tseitin-encoded
    circuit (a gate in the scope brings its inputs), so the gates
    outside it can be evaluated from their inputs; learnt clauses are
    implied by the problem clauses and do not matter. [Unsat] and
    [Unknown] mean what they mean without a scope. The variables the
    call leaves out of the decision order go back into it afterwards. *)

val model_value : t -> int -> bool
(** [model_value s l] — value of literal [l] in the model of the last
    [Sat] answer. Only meaningful directly after [solve] returned
    [Sat]. After a scoped call only the scope's variables are
    meaningful: one outside it reads [false] if the call left it
    unassigned, or the value propagation gave it, and neither need
    agree with the clauses. A circuit input outside the scope feeds
    no gate in it, so reading it as [false] still gives a real input
    assignment under which the scope's gates take their model values. *)

val n_vars : t -> int
(** Number of variables allocated by {!new_var}. *)

val conflicts : t -> int
(** Total conflicts across all [solve] calls (statistics). *)

val okay : t -> bool
(** [false] once the clause set is unconditionally contradictory. *)
