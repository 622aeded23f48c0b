(** The [sf_absint] dataflow analyses packaged as {!Check} passes.

    Four passes, in fixed order:
    - [absint-const] — ternary constant propagation ([AI-CONST-01]);
    - [absint-obs] — backward observability ([AI-OBS-01]);
    - [absint-load] — splitter-tree capacity ([AI-LOAD-01]);
    - [absint-polar] — inversion parity ([AI-POLAR-01]).

    The passes read one {!Facts} table, so each domain is solved at
    most once per netlist. Every diagnostic carries a witness path.
    The passes need a structurally sound, acyclic netlist; on a
    broken structure they return no findings (the structural lints
    already gate the run).

    Results can be memoized through a {!cache} keyed by
    ["absint1:<domain>:" ^ Netlist.struct_hash nl] — the flow wires
    this to [sf_db]'s proof store, so a warm rerun re-solves
    nothing. A cache hit and a fresh solve render byte-identically. *)

val passes :
  ?cache:Diag.t list Memo.t -> ?facts:Facts.t -> Netlist.t -> Check.pass list
(** The four passes over [nl], each consulting (and filling) the
    cache when one is given and solving only on a miss. [facts]
    (default: a fresh table) must be built over [nl]; pass the table
    {!Lint.check} reads so the two share their solves. *)
