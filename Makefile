# Convenience targets; everything is plain dune underneath.

.PHONY: build test bench bench-quick bench-speedup perf-smoke explain-all mlint clean

build:
	dune build

test:
	dune runtest

# Full evaluation: every paper table/figure + ablations + micro-benchmarks.
bench:
	dune exec bench/main.exe

# Small-circuit subset, finishes in a couple of minutes. Emits
# machine-readable `BENCH_STAGE {...}` JSON lines for per-stage
# timing tracking.
bench-quick:
	dune exec bench/main.exe -- quick

# Only the multicore speedup table (jobs=1 vs jobs=N on the parallel
# stages, with an identical-results check).
bench-speedup:
	dune exec bench/main.exe -- speedup quick

# Short traced passes of the placer-heavy, the routing-heavy and the
# proof-heavy perf workloads. perf.exe exits 1 on any failed design
# check or determinism guard, so CI uses this as a gate on the
# signed-off flow, through the router's guards and Router.check_routes
# on the congested decoder, and through the EQ-*/RS-CEC-01 proof errors
# on SAT-guarded synthesis and resynthesis.
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
