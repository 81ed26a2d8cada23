# Convenience targets for the V-System reproduction.

.PHONY: install test bench bench-smoke bench-sweep bench-placement chaos-smoke paper-check report-smoke verify-smoke examples demo trace-demo all

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

bench:
	python -m pytest benchmarks/ --benchmark-only

# Quick regression gate: re-measures the simulator-core fast paths and
# fails on a >2x slowdown against the recorded BENCH_simcore.json.
bench-smoke:
	python -m pytest benchmarks/bench_simcore.py -m smoke -p no:cacheprovider

# Placement-plane policy comparison on the open-loop job storm: the
# paper's first-responder multicast vs cached RandomK probing vs
# zero-probe best-fit, at 8/32/128 hosts (selection messages per exec
# and exec-to-start latency percentiles; see docs/ARCHITECTURE.md).
bench-placement:
	PYTHONPATH=src:benchmarks python -c "import json, bench_simcore; print(json.dumps(bench_simcore._measure_placement(), indent=2))"

# Fixed-seed fault-injection campaign: every fault schedule x 10 seeds
# with the invariant harness watching every event (see docs/FAULTS.md).
# Exits non-zero if any of the four invariants is ever violated.  The
# second pass repeats the campaign with the COPY_PLANE data-plane
# toggles on, so burst framing and adaptive pre-copy face the same
# abuse (loss, duplication, reordering, corruption, crashes) in CI;
# the third does the same for the PLACEMENT plane (host-state caches
# + probing placement under crashing, lossy hosts).
chaos-smoke:
	python -m repro chaos --seeds 10 --seed 7 --workers 2 --messages 20
	python -m repro chaos --seeds 10 --seed 7 --workers 2 --messages 20 --copy-plane
	python -m repro chaos --seeds 10 --seed 7 --workers 2 --messages 20 --placement

# Differential verification smoke: a sampled 10-cell toggle matrix
# (including the placement-plane strata) must pass clean, and the
# planted at-most-once mutation must be caught (a harness that has never
# failed proves nothing).  REPRO_VERIFY_BUDGET=N caps the cell count;
# the weekly CI job runs the full 27-cell matrix instead (see
# docs/TESTING.md).
verify-smoke:
	python -m repro verify --matrix sample:10 --seed 7 --workers 2
	python -m repro verify --matrix sample:10 --seed 7 --workers 2 --mutate redeliver-replied-duplicate --expect-fail

# Paper fidelity gate: the paper-table assertions of every
# benchmarks/bench_*.py except the simulator-core wall-clock bench,
# with timing disabled (EXPERIMENTS.md E1-E9, A6).
paper-check:
	python -m pytest benchmarks/ --ignore=benchmarks/bench_simcore.py --benchmark-disable -q

# Regenerate the canonical migration RunReport and diff it against the
# checked-in BASELINE_report.json within a 1% tolerance: simulated
# metrics, KPIs and the freeze-phase accounting must not drift (the
# wall section is informational and never compared).  Exits non-zero
# on any out-of-tolerance delta, with per-subsystem attribution.
report-smoke:
	python -m repro report --seed 0 --out run_report.json
	python -m repro diff BASELINE_report.json run_report.json

# Serial vs 4-worker wall clock for the same migration sweep, plus the
# byte-identity check on the merged payloads (see docs/PARALLEL.md).
bench-sweep:
	PYTHONPATH=src:benchmarks python -c "import json, bench_simcore; print(json.dumps(bench_simcore._measure_parallel_sweep(), indent=2))"

examples:
	for e in examples/*.py; do echo "== $$e"; python $$e || exit 1; done

demo:
	python -m repro demo

# Run a traced migration and emit a Chrome/Perfetto timeline; open
# timeline.json in https://ui.perfetto.dev to browse it.
trace-demo:
	python -m repro trace --program optimizer --out timeline.json
	@echo "wrote timeline.json (load it at https://ui.perfetto.dev)"

all: install test bench
