(** Resynthesis cost model: one uniform price for every {!Maj_db}
    implementation, including those carried through an NPN transform.
    Pass-level accept/reject re-runs the real {!Insertion} strategies
    on the whole netlist. *)

val impl_jj : Maj_db.impl -> int
(** Uniform JJ price of a database implementation: 6 per majority
    gate, 2 per complemented [Var]/[Gate] operand occurrence
    (constant operands fold into the cell; a bare constant output
    costs one 2-JJ constant cell). Matches {!Maj_db}'s own
    accounting and prices NPN-transported implementations
    ({!Npn.uncanon}) on the same scale. *)
