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

val solve : ?assumptions:int list -> ?conflict_budget:int -> t -> result
(** Solve the current clause set. [assumptions] are literals that must
    hold in this call; [Unsat] then means "unsatisfiable under the
    assumptions". [conflict_budget] bounds the number of conflicts in
    this call — on exhaustion the solver returns {!Unknown} (learnt
    clauses are kept, so a later call resumes stronger). *)

val model_value : t -> int -> bool
(** [model_value s l] — value of literal [l] in the model of the last
    [Sat] answer. Only meaningful directly after [solve] returned
    [Sat]. *)

val conflicts : t -> int
(** Total conflicts across all [solve] calls (statistics). *)

val okay : t -> bool
(** [false] once the clause set is unconditionally contradictory. *)
