# CI-style entry points.  `make check` is the gate a PR must pass: the
# tier-1 suite, the engine parity/throughput suite, the DSE search suite +
# benchmark, the DSE CLI smoke, the repo benchmark's own smoke tests
# (perfbench-smoke), and the provenance regression gate
# (verify-results), which replays the deterministic golden workload and
# compares the freshly merged results/BENCH_engine.json against the
# checked-in baselines under results/golden/.  The perf-tracking benches
# merge their metrics into results/BENCH_engine.json so the perf trajectory
# is diffable across PRs.  Any unregistered-marker warning is promoted to an
# error (markers are registered once, in pyproject.toml).
#
# Intentional baseline changes: run `make bench-refresh` to rewrite
# results/golden/ from the current tree, review the diff, and commit it.
# `SKIP_REGRESSION=1 make check` skips only the verify-results gate.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest -W error::pytest.PytestUnknownMarkWarning

.PHONY: check tier1 engine dse dse-smoke runtime-smoke scheduler-unit serve-smoke gateway-smoke perfbench-smoke verify-results bench-refresh

# verify-results runs LAST so it judges the bench ledger the engine/dse/
# serve targets just rewrote, not a stale one.
check: tier1 engine dse runtime-smoke dse-smoke serve-smoke gateway-smoke perfbench-smoke verify-results

tier1:
	$(PYTEST) -x -q

engine:
	$(PYTEST) -q -m engine tests benchmarks/bench_engine_throughput.py benchmarks/bench_sweep_prefix.py

# DSE search suite plus its evaluations-to-front benchmark.
dse:
	$(PYTEST) -q -m dse tests benchmarks/bench_dse_search.py

# Scheduler unit subset: model-free tests of the cost model, the balanced
# and cost-balanced chunking contracts and the pool-sizing policy — runs in
# about a second, the first thing to reach for when touching the scheduler.
scheduler-unit:
	$(PYTEST) -q tests/test_runtime_scheduling.py

# Evaluation-runtime suite: scheduler units plus EvaluationService lifecycle
# and graceful shutdown, service-vs-serial bit-exact parity, work stealing,
# parallel DSE campaigns.
runtime-smoke: scheduler-unit
	$(PYTEST) -q -m runtime tests

# End-to-end greedy exploration on the synthetic workload (< 60 s; trains a
# 1-epoch reference model on the first run).  Hermetic: the model cache and
# the campaign ledger live under a repo-local scratch directory, not the
# user's global cache.
DSE_SMOKE_DIR ?= .dse-smoke
dse-smoke:
	PYTHONPATH=src $(PYTHON) -m repro dse --strategy greedy --classes 10 \
	  --epochs 1 --max-loss 0.5 --budget-evals 60 --max-eval-images 64 \
	  --seed 0 --cache-dir $(DSE_SMOKE_DIR) --ledger $(DSE_SMOKE_DIR)/ledger

# HTTP job-daemon suite + end-to-end serve smoke.  The pytest leg runs the
# endpoint-contract/served-parity/admission tests plus the serve-throughput
# bench (jobs/sec + cache-hit ratio merged into results/BENCH_engine.json);
# the script leg boots the real `repro serve --golden-workload` CLI on an
# ephemeral port, POSTs the golden sweep over HTTP, verifies it byte-exactly
# against results/golden/accuracy_table.json, asserts a duplicate submission
# is served from the result cache, and SIGTERMs into a clean shutdown with
# no leaked /dev/shm blocks.
serve-smoke:
	$(PYTEST) -q -m serve tests benchmarks/bench_serve_throughput.py
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# Fleet suite + end-to-end gateway smoke.  The pytest leg covers the
# routing table, gateway endpoints/fan-out stats, shard failure/recovery
# and the HTTP client's GET-only retry policy; the script leg boots a real
# two-shard fleet through the CLI (one adopted `repro serve` daemon + one
# gateway-spawned golden shard with a persisted result cache), verifies a
# gateway-routed golden sweep byte-exactly, runs `repro sweep|table3
# --remote <gateway>`, kills a shard and demands a fast machine-readable
# 503, SIGTERMs into a clean shutdown (no /dev/shm leaks), then
# warm-restarts the golden shard and demands a 100% cache-hit sweep.
gateway-smoke:
	$(PYTEST) -q -m fleet tests
	PYTHONPATH=src $(PYTHON) scripts/gateway_smoke.py

# The repo benchmark's own tests (perfbench/smoke.py): every workload at
# its tiny smoke size, untraced and traced, on the recorded and an unseen
# seed, plus the must-fail checks (about a minute once the benchmark's
# models are trained; the first run trains them, see perfbench/README.md).
# Run with python3, the interpreter BENCHMARK.json names.
perfbench-smoke:
	python3 perfbench/smoke.py

# Provenance regression gate: replay the deterministic golden workload and
# compare fresh results against results/golden/.  Honors SKIP_REGRESSION=1
# (skip entirely) and REPRO_REGRESSION_TOL (throughput tolerance band).
verify-results:
	PYTHONPATH=src $(PYTHON) -m repro verify-results

# Re-baseline: rewrite results/golden/ from the current tree (golden
# workload payloads + a canonicalized copy of results/BENCH_engine.json).
# Review the diff before committing.
bench-refresh:
	PYTHONPATH=src $(PYTHON) -m repro verify-results --refresh
