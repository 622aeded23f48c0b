# Convenience targets; everything is plain dune underneath.

.PHONY: build test bench bench-quick qor perf-smoke explain-all mlint clean

build:
	dune build

test:
	dune runtest

# Full evaluation: every paper table and figure, the claim verdicts,
# and a regenerated EXPERIMENTS.md.
bench:
	dune exec bench/main.exe

# The same tables on three small circuits, in about a minute; writes
# nothing.
bench-quick:
	dune exec bench/main.exe -- quick

# QoR guard: synthesis, routing, DRC and resynthesis counts on fixed cases must
# equal bench/qor_baselines.txt line for line, and the warm-cache,
# route-validity and equivalence invariants must hold. Exits 1 on any
# difference or failed check. CI runs this as a merge gate.
qor:
	dune exec bench/main.exe -- check

# Short traced passes of the placer-heavy, the routing-heavy and the
# proof-heavy perf workloads. perf.exe exits 1 when a pass differs from
# the first (determinism guard) or a design run fails a check: on the
# signed-off flow and the congested decoder, Router.check_routes, a
# residual DRC violation, a GDS that does not re-parse, a final netlist
# that simulates differently from the input, or an error-severity
# diagnostic of the check stage; on SAT-guarded synthesis and
# resynthesis, a result that simulates differently from the input or an
# error-severity EQ-* proof diagnostic. RS-CEC-01 refusals are warnings
# and never fail it. CI uses this as a gate.
perf-smoke:
	dune exec --root . bench/perf/perf.exe -- --workload signoff-small --seconds 3 --trace 1
	dune exec --root . bench/perf/perf.exe -- --workload route-congested --seconds 3 --trace 1
	dune exec --root . bench/perf/perf.exe -- --workload logic-resyn --seconds 3 --trace 1

# Dump the whole diagnostic-rule registry (one entry per rule id).
# CI uses this as a smoke test that the registry is self-consistent.
explain-all:
	dune exec bin/superflow_cli.exe -- explain --all

# Self-hosted static analyzer: parse every lib/**/*.ml and bin/*.ml
# and enforce the SL-* determinism/hygiene rules. Exits 1 on any
# unsuppressed error-severity finding. CI runs this as a merge gate.
mlint:
	dune exec bin/superflow_cli.exe -- mlint

clean:
	dune clean
