# Developer / CI entry points for the STPP reproduction.
#
#   make test         tier-1 suite: unit + property + integration tests AND the
#                     benchmark suite at its reduced default scale
#   make unit         just the fast unit tests (tests/)
#   make bench-smoke  run every benchmark once at tiny sizes (smoke check that
#                     each figure/table regenerator still executes end to end)
#   make bench-accuracy
#                     score the five schemes on the three workloads and write
#                     BENCH_accuracy.json (+ history rows)
#   make check-accuracy
#                     assert the pinned accuracy floors and the paper's scheme
#                     ordering on BENCH_accuracy.json
#   make bench-robustness
#                     score the five schemes on the legacy trio under the
#                     fault ladders (loss/corruption/reorder) and write
#                     BENCH_robustness.json (+ history rows)
#   make check-robustness
#                     assert zero-fault pass-through and the per-rung
#                     STPP-vs-baseline floors on BENCH_robustness.json
#   make check-scenarios
#                     strict-parse + round-trip every committed scenario spec
#                     (src/repro/scenarios/specs/*.json)
#   make scenario-smoke
#                     run the whole scenario matrix end-to-end (all five
#                     schemes, one sweep per scenario) and print accuracies
#   make bench-report print the recorded trends in BENCH_HISTORY.jsonl and
#                     the accuracy leaderboard, and regenerate the status
#                     tables in docs/figures.md
#   make examples     run every example under examples/ (CI runs this so
#                     docs-adjacent code cannot rot)
#   make perfbench-selftest
#                     tiny-scale self-test of the repository benchmark
#                     (perfbench/): every workload's metrics, the traced
#                     per-layer split and its wrapped layer functions (~75 s)
#   make perfbench-ab [WORKLOAD=portal_cold] [BASE=HEAD] [SEEDS="2015 7"] [TRACE=1]
#                     same-host A/B of one repository-benchmark workload:
#                     checks BASE out into a temporary git worktree, runs
#                     perfbench/run.py --trace 0 there and on the working tree
#                     in turn for each seed, and prints the results side by
#                     side; TRACE=1 adds one traced run per side and prints
#                     their per-layer split

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test unit bench-smoke bench-accuracy check-accuracy \
	bench-robustness check-robustness check-scenarios scenario-smoke \
	bench-report examples perfbench-selftest perfbench-ab

test:
	$(PYTHON) -m pytest -x -q

unit:
	$(PYTHON) -m pytest tests -x -q

# Each benchmark file regenerates one paper figure/table; pytest-benchmark's
# pedantic mode already pins them to a single round, so a plain run of the
# benchmarks directory is the smoke pass.
bench-smoke:
	$(PYTHON) -m pytest benchmarks -x -q

bench-accuracy:
	$(PYTHON) benchmarks/bench_accuracy.py

check-accuracy:
	$(PYTHON) benchmarks/check_accuracy.py

bench-robustness:
	$(PYTHON) benchmarks/bench_robustness.py

check-robustness:
	$(PYTHON) benchmarks/check_robustness.py

check-scenarios:
	$(PYTHON) -m repro.scenarios --validate

scenario-smoke:
	$(PYTHON) -m repro.scenarios --smoke --repetitions 1

bench-report:
	$(PYTHON) -m repro.bench.report --write-docs

# Glob, not a hand-kept list: a new example is automatically covered, so the
# runnable documentation cannot silently rot.  Examples are written at a
# reduced scale (a few tags, seconds of runtime), which is what CI runs.
examples:
	@set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) "$$example"; \
	done

# The tracer wraps library functions by name, so renaming one (e.g.
# NeighborGrid.packed_neighbors) breaks the traced run; this catches it.
perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

WORKLOAD ?= portal_cold
BASE ?= HEAD
SEEDS ?= 2015 7
TRACE ?= 0

perfbench-ab:
	$(PYTHON) benchmarks/perfbench_ab.py --workload $(WORKLOAD) --base $(BASE) --seeds $(SEEDS) \
		$(if $(filter 1,$(TRACE)),--trace)
