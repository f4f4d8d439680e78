"""The repo benchmark: one seeded run of one workload, checked, with metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3|dse-lut|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric of an outside-in traced run (see ``README.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.

The first run in a checkout trains the six reference networks into the
benchmark's own cache (``prepare.py``); training is never timed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from checks import compare_expected, load_expected, oracle, record_expected, run_facts
from prepare import ROOT, STATE_DIR, ensure_prepared

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "image_evals_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p95_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "quantization.epilogue_s": "s",
    "quantization.epilogue_bytes": "bytes",
    "quantization.quantize_s": "s",
    "quantization.quantize_bytes": "bytes",
    "core.kernel_accurate_s": "s",
    "core.kernel_perforated_s": "s",
    "core.kernel_lut_s": "s",
    "core.kernel_fused_s": "s",
    "core.kernel_calls": "count",
    "core.kernel_macs": "count",
    "core.compile_s": "s",
    "core.compile_calls": "count",
    "nn.im2col_s": "s",
    "nn.im2col_bytes": "bytes",
    "nn.nonmac_s": "s",
    "simulation.executor_self_s": "s",
    "simulation.calibrate_s": "s",
    "simulation.prefix_hit_ratio": "ratio",
    "simulation.act_cache_hit_ratio": "ratio",
    "simulation.plans_per_launch": "count",
    "runtime.start_s": "s",
    "runtime.batch_s": "s",
    "runtime.cells_evaluated": "count",
    "runtime.executor_builds": "count",
    "runtime.workers": "count",
    "jobs.cache_hit_ratio": "ratio",
    "jobs.wait_s": "s",
    "jobs.rejected": "count",
    "transport.post_s": "s",
    "transport.poll_s": "s",
    "transport.polls_per_job": "count",
    "transport.codec_s": "s",
    "dse.strategy_s": "s",
    "dse.evaluate_s": "s",
    "dse.ledger_s": "s",
    "dse.evaluations": "count",
    "dse.dedup_hits": "count",
    "trace.run_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Spans whose self time is glue around other spans; left out of coverage.
ENVELOPES = {"runtime.batch", "dse.evaluate"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table3", "dse-lut", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="workload size; 'smoke' is the tiny self-test size")
    parser.add_argument("--expected", default=None,
                        help="expected-values file (default: perfbench/expected.json)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the expected values")
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# ----------------------------------------------------------------------
class Run:
    """Shared state of one benchmark invocation (checks and accounting)."""

    def __init__(self, args, expected: dict, prepared: dict):
        self.args = args
        self.expected = expected
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stems: set[str] = set()
        self.report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "size": args.size}

    def account(self, result, workload) -> None:
        """Fold one pass into the counts, checking its outputs."""
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors.extend(result.errors)
        recorded = self.expected.get(workload.name)
        if self.args.record or recorded is None:
            return
        if not workload.seeded_outputs or recorded["seed"] == self.args.seed:
            mismatches = compare_expected(recorded["outputs"], result.outputs)
            self.failed += len(mismatches)
            self.errors.extend(mismatches)

    def run_oracle(self, workload) -> None:
        import numpy as np

        cells, eval_images = workload.oracle_cells(np.random.default_rng([self.args.seed, 1]))
        mismatches = oracle(cells, eval_images, np.random.default_rng([self.args.seed, 2]),
                            workload.size["oracle_images"])
        self.attempted += len(cells)
        self.failed += len(mismatches)
        self.errors.extend(mismatches)


def timed_setup(workload, setups: list[float]):
    start = time.perf_counter()
    state = workload.setup()
    setups.append(time.perf_counter() - start)
    return state


def end_to_end(run: Run, workload) -> dict:
    """Untraced passes until ``--seconds`` of timed work; the e2e metrics."""
    setups: list[float] = []
    state = None
    for _ in range(workload.size["setups"]):
        if state is not None:
            workload.teardown(state)
        state = timed_setup(workload, setups)
    passes = []
    while True:
        run.stems.update(state.get("stems", ()))
        try:
            passes.append(workload.run(state))
        finally:
            workload.teardown(state)
        run.account(passes[-1], workload)
        if sum(p.run_s for p in passes) >= run.args.seconds:
            break
        state = timed_setup(workload, setups)
    run_s = sum(p.run_s for p in passes)
    latencies = [value for p in passes for value in p.latencies]
    run.report["run_s"] = run_s
    run.report["passes"] = len(passes)
    run.report["setup_s_all"] = setups
    run.report["latency_samples"] = len(latencies)
    run.report["latencies"] = [round(value, 4) for value in latencies]
    run.report["rss_parts_mb"] = [p.rss_parts for p in passes]
    if run.args.record:
        record_expected(run.args.size, workload.name, run.args.seed, passes[0].outputs,
                        run.prepared["model_digests"])
    return {
        "setup_s": statistics.median(setups),
        "image_evals_per_s": sum(p.image_evals for p in passes) / run_s,
        "jobs_per_s": sum(p.jobs for p in passes) / run_s,
        "job_latency_p50_s": percentile(latencies, 50),
        "job_latency_p95_s": percentile(latencies, 95),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }


def one_pass(run: Run, workload, tracer=None, engine: bool = False):
    """Setup + pass (+ teardown); with a tracer, returns the pass window too."""
    if tracer is not None:
        tracer.install("outer")
        if engine:
            tracer.install("engine")
    try:
        state = workload.setup()
        run.stems.update(state.get("stems", ()))
        start = time.perf_counter()
        try:
            result = workload.run(state)
        finally:
            end = time.perf_counter()
            workload.teardown(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.account(result, workload)
    return result, (start, end)


def traced(run: Run, workload_cls, size: dict):
    """Reference and traced passes; the per-layer metrics and the traced workload."""
    from tracer import Tracer

    seed = run.args.seed
    runtime_tracer = None
    if workload_cls.name == "table3":
        # The reference is the normal pool pass.  Its engine stages run in
        # forked workers no outside wrapper reaches, so with only the outer
        # wrappers installed it yields the runtime-layer timings; the
        # traced pass evaluates in-process.
        runtime_tracer = Tracer()
        untraced, _ = one_pass(run, workload_cls(size, seed), runtime_tracer)
        subject = workload_cls(size, seed, workers=1)
    else:
        untraced, _ = one_pass(run, workload_cls(size, seed))
        subject = workload_cls(size, seed, in_process=True) if workload_cls.name == "serve" \
            else workload_cls(size, seed)
    tracer = Tracer()
    result, window = one_pass(run, subject, tracer, engine=True)
    metrics = layer_metrics(tracer, result, window, untraced, runtime_tracer)
    run.report["run_s"] = result.run_s
    run.report["untraced_run_s"] = untraced.run_s
    run.report["spans"] = len(tracer.spans)
    write_trace_file(run, tracer, window)
    return metrics, subject


def layer_metrics(tracer, result, window, untraced, runtime_tracer) -> dict:
    table = tracer.self_times(window)
    whole = tracer.self_times()

    def get(name: str, key: str = "self_s", source=None) -> float:
        return (source if source is not None else table).get(name, {}).get(key, 0)

    executors = [obj for kind, obj in tracer.instances if kind == "executor"]
    managers = [obj for kind, obj in tracer.instances if kind == "manager"]
    counters = {key: sum(getattr(e, key) for e in executors) for key in (
        "prefix_cache_hits", "prefix_cache_misses", "act_cache_hits", "act_cache_misses",
        "fused_launches", "fused_plans_total")}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runtime_source = runtime_tracer.self_times() if runtime_tracer is not None else whole
    runtime_services = (
        [obj for kind, obj in runtime_tracer.instances if kind == "service"]
        if runtime_tracer is not None
        else [obj for kind, obj in tracer.instances if kind == "service"]
    )
    # The pass snapshots its manager's stats before teardown closes it.
    engine_stats = [result.stats["engine"]] if "engine" in result.stats else []
    cache_stats = [m.cache.stats() for m in managers]
    kernels = ("core.kernel_accurate", "core.kernel_perforated", "core.kernel_lut", "core.kernel_fused")
    posts = get("transport.post", "calls")
    covered = sum(row["self_s"] for name, row in table.items() if name not in ENVELOPES)
    return {
        "quantization.epilogue_s": get("quantization.epilogue"),
        "quantization.epilogue_bytes": get("quantization.epilogue", "bytes"),
        "quantization.quantize_s": get("quantization.quantize"),
        "quantization.quantize_bytes": get("quantization.quantize", "bytes"),
        "core.kernel_accurate_s": get("core.kernel_accurate"),
        "core.kernel_perforated_s": get("core.kernel_perforated"),
        "core.kernel_lut_s": get("core.kernel_lut"),
        "core.kernel_fused_s": get("core.kernel_fused"),
        "core.kernel_calls": sum(get(name, "calls") for name in kernels),
        "core.kernel_macs": sum(get(name, "macs") for name in kernels),
        "core.compile_s": get("core.compile"),
        "core.compile_calls": get("core.compile", "calls"),
        "nn.im2col_s": get("nn.im2col"),
        "nn.im2col_bytes": get("nn.im2col", "bytes"),
        "nn.nonmac_s": sum(row["self_s"] for name, row in table.items() if name.startswith("nn.nonmac.")),
        "simulation.executor_self_s": get("simulation.executor"),
        "simulation.calibrate_s": get("simulation.calibrate", source=whole),
        "simulation.prefix_hit_ratio": ratio(
            counters["prefix_cache_hits"], counters["prefix_cache_hits"] + counters["prefix_cache_misses"]),
        "simulation.act_cache_hit_ratio": ratio(
            counters["act_cache_hits"], counters["act_cache_hits"] + counters["act_cache_misses"]),
        "simulation.plans_per_launch": ratio(counters["fused_plans_total"], counters["fused_launches"]),
        "runtime.start_s": get("runtime.start", "total_s", runtime_source),
        "runtime.batch_s": get("runtime.batch", "total_s", runtime_source),
        "runtime.cells_evaluated": sum(s.get("cells_evaluated", s["cells_submitted"]) for s in engine_stats),
        "runtime.executor_builds": sum(s.get("executor_builds", 0) for s in engine_stats),
        "runtime.workers": sum(s.max_workers for s in runtime_services),
        "jobs.cache_hit_ratio": ratio(sum(c["hits"] for c in cache_stats),
                                      sum(c["hits"] + c["misses"] for c in cache_stats)),
        "jobs.wait_s": get("jobs.mark_running", "wait"),
        "jobs.rejected": sum(m.queue.rejected for m in managers),
        "transport.post_s": get("transport.post"),
        "transport.poll_s": get("transport.poll"),
        "transport.polls_per_job": ratio(get("transport.poll", "calls"), posts),
        "transport.codec_s": get("transport.codec"),
        "dse.strategy_s": get("dse.campaign"),
        "dse.evaluate_s": get("dse.evaluate", "total_s"),
        "dse.ledger_s": get("dse.ledger", "total_s"),
        "dse.evaluations": result.stats.get("evaluations", 0),
        "dse.dedup_hits": result.stats.get("dedup_hits", 0),
        "trace.run_s": result.run_s,
        "trace.coverage": covered / result.run_s,
        "trace.overhead": result.run_s / untraced.run_s - 1.0,
    }


def write_trace_file(run: Run, tracer, window) -> None:
    table = tracer.self_times(window)
    path = STATE_DIR / "traces" / f"{run.args.workload}-seed{run.args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "window_s": window[1] - window[0],
        "spans": {name: table[name] for name in sorted(table)},
        "nonmac_by_type": {
            name[len("nn.nonmac."):]: row["self_s"]
            for name, row in sorted(table.items()) if name.startswith("nn.nonmac.")
        },
    }, indent=1))
    run.report["trace_file"] = str(path.relative_to(ROOT))


def stop_resource_tracker() -> None:
    """Stop (and reap) the helper process shared memory starts, if any."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro.simulation  # noqa: F401  (import order: see repro.runtime's note)
    from repro.runtime.sizing import resolve_worker_count
    from workloads import SIZES, WORKLOADS

    prepared = ensure_prepared()
    expected_all = load_expected(args.expected)
    expected = expected_all.get(args.size, {})
    run = Run(args, expected, prepared)
    digests = expected.get("model_digests")
    if digests is not None and digests != prepared["model_digests"]:
        run.errors.append("trained models differ from the ones the expected values were recorded with")
        run.failed += 1
    size = SIZES[args.size]
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        values, workload = traced(run, workload_cls, size)
        units = PER_LAYER
    else:
        workload = workload_cls(size, args.seed)
        values = end_to_end(run, workload)
        units = END_TO_END
    run.run_oracle(workload)
    correct = not run.errors and run.failed == 0
    workers = {"table3": size["table3_workers"], "dse-lut": 1, "serve": 1}[args.workload]
    run.report.update(
        correct=correct,
        attempted=run.attempted,
        failed=run.failed,
        error_rate=run.failed / max(run.attempted, 1),
        errors=run.errors[:50],
        facts=run_facts(prepared, sorted(run.stems),
                        {"requested": workers, "effective": resolve_worker_count(workers)}),
        metrics=values,
    )
    report_path = STATE_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(run.report, indent=1))
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(run.report["facts"]), file=sys.stderr)
    stop_resource_tracker()
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
