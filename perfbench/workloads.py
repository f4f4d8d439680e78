"""The benchmark's three workloads, driven through the public entry points.

Each workload has a ``setup`` (untimed by the pass, timed as ``setup_s``),
a ``run`` (the timed pass) and a ``teardown``.  A pass returns a
:class:`Pass` holding its wall time, the per-request latencies, the
operation counts and the outputs the checks compare.

* ``table3`` — ``sweep_over_jobs`` over a :class:`JobManager`, exactly
  what ``repro table3`` runs (``sweep_jobs_local``), with the manager and
  its service started in ``setup``.
* ``dse-lut`` — ``run_campaign`` with NSGA-II on vgg13 over a search
  space holding two LUT library multipliers, scored by a serial
  :class:`PlanEvaluator` built in ``setup``.
* ``serve`` — a ``repro serve`` subprocess (or, for traced passes, the
  same :class:`JobServer` over :class:`JobManager` in-process) driven by
  two closed-loop HTTP clients with pre-generated, seeded job schedules.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from prepare import MODEL_CACHE, SRC, STATE_DIR, cache_stems, load_models

TABLE3_MODELS = ("googlenet", "resnet44", "resnet56", "shufflenet", "vgg13", "vgg16")
PERFORATIONS = (1, 2, 3)
SERVE_MODELS = ("vgg13", "shufflenet")
#: Per-layer choices of a served plan: accurate, then m x {with V, without V}.
SERVE_CHOICES = (None,) + tuple((m, cv) for m in PERFORATIONS for cv in (True, False))
CALIBRATION_IMAGES = 128
#: Share of each client's jobs that repeat one of its completed recipes.
#: Not one half: with equal numbers of hits and misses the median latency
#: is the midpoint of the slowest hit and the fastest miss, whose spread
#: over seeds exceeded every bound the benchmark may set.
REPEAT_SHARE = 0.4

SIZES = {
    "full": {
        "table3_models": TABLE3_MODELS,
        "table3_images": None,  # the whole 400-image test split
        "table3_workers": 2,
        "dse_budget": 60,
        "dse_images": None,
        "serve_jobs": 100,
        "serve_images": 100,
        "oracle_images": 24,
        "setups": 5,
    },
    "smoke": {
        "table3_models": ("shufflenet", "vgg13"),
        "table3_images": 24,
        "table3_workers": 2,
        "dse_budget": 8,
        "dse_images": 24,
        "serve_jobs": 4,
        "serve_images": 24,
        "oracle_images": 6,
        "setups": 1,
    },
}


@dataclass
class Pass:
    """Outcome of one timed pass."""

    run_s: float
    latencies: list[float]
    jobs: int
    image_evals: int
    attempted: int
    failed: int
    rss_mb: float
    outputs: dict
    errors: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    rss_parts: list[float] = field(default_factory=list)


# ----------------------------------------------------------------------
# /proc helpers
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(parent: int) -> list[int]:
    """Live child processes of ``parent`` (scanned from ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            children.append(int(entry))
    return children


def scratch_dir(name: str) -> str:
    path = STATE_DIR / "tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def lut_candidates(limit: int = 2):
    """The ``limit`` cheapest LUT products of the synthetic EvoApprox library,
    exactly as ``SearchSpace.build(max_library_candidates=limit)`` picks them."""
    from repro.multipliers.library import MultiplierLibrary
    from repro.simulation.inference import LUTProduct

    entries = [
        entry
        for entry in MultiplierLibrary.synthetic_evoapprox().pareto_front()
        if not entry.reconfigurable and entry.stats.max_absolute > 0
    ]
    entries.sort(key=lambda entry: entry.relative_power)
    return [LUTProduct(entry.multiplier) for entry in entries[:limit]]


# ----------------------------------------------------------------------
# table3
# ----------------------------------------------------------------------
def _timed_local_client():
    from repro.runtime.jobs import LocalJobClient

    class TimedLocalJobClient(LocalJobClient):
        """LocalJobClient that stamps submit and terminal times per job."""

        def __init__(self, manager):
            super().__init__(manager)
            self.submitted: dict[str, float] = {}
            self.latencies: list[float] = []

        def submit_job(self, *args, **kwargs):
            start = time.perf_counter()
            job_id = super().submit_job(*args, **kwargs)
            self.submitted[job_id] = start
            return job_id

        def wait(self, job_id, timeout=None):
            view = super().wait(job_id, timeout)
            self.latencies.append(time.perf_counter() - self.submitted[job_id])
            return view

    return TimedLocalJobClient


class Table3:
    name = "table3"
    #: The grid is fixed by the paper; the seed only picks the oracle sample.
    seeded_outputs = False

    def __init__(self, size: dict, seed: int, workers: int | None = None):
        self.size = size
        self.workers = size["table3_workers"] if workers is None else workers
        self.models = size["table3_models"]

    def setup(self):
        from repro.runtime.jobs import JobManager
        from repro.runtime.sizing import resolve_worker_count

        dataset, trained, stems = load_models(self.models)
        cells = len(trained) * (1 + 2 * len(PERFORATIONS))
        manager = JobManager(
            trained,
            {dataset.name: dataset},
            max_workers=resolve_worker_count(self.workers, num_cells=cells),
            requested_workers=self.workers,
            max_eval_images=self.size["table3_images"],
        )
        manager.service.start()
        return {"manager": manager, "dataset": dataset, "trained": trained, "stems": stems}

    def run(self, state) -> Pass:
        from repro.runtime.jobs import sweep_over_jobs

        manager = state["manager"]
        dataset = state["dataset"]
        images = self.size["table3_images"] or len(dataset.test_labels)
        cells = len(state["trained"]) * (1 + 2 * len(PERFORATIONS))
        client = _timed_local_client()(manager)
        errors: list[str] = []
        outputs: dict = {}
        start = time.perf_counter()
        try:
            sweep, totals = sweep_over_jobs(client, perforations=PERFORATIONS)
        except Exception:  # a failed job fails the whole sweep; counted below
            run_s = time.perf_counter() - start
            errors.append(f"sweep failed: {traceback.format_exc(limit=5)}")
            sweep = totals = None
        else:
            run_s = time.perf_counter() - start
        rss_parts = [vm_hwm_mb()] + [vm_hwm_mb(pid) for pid in child_pids(os.getpid())]
        rss = sum(rss_parts)
        stats = manager.stats()
        client.close()
        failed = cells
        if sweep is not None:
            outputs = {
                f"{record.model}/m{record.m}/{'cv' if record.with_control_variate else 'nocv'}": record.approximate_accuracy
                for record in sweep.records
            }
            outputs.update(
                {f"{model}/accurate": acc for (model, _), acc in sweep.baselines.items()}
            )
            failed = cells - totals["cells"]
            if totals["cache_hits"]:
                errors.append(f"table3 expects no cache hits, got {totals['cache_hits']}")
        return Pass(
            run_s=run_s,
            latencies=list(client.latencies),
            jobs=len(client.latencies),
            image_evals=(cells - failed) * images,
            attempted=cells,
            failed=failed,
            rss_mb=rss,
            outputs=outputs,
            errors=errors,
            stats=stats,
            rss_parts=rss_parts,
        )

    def teardown(self, state) -> None:
        state["manager"].close()

    def oracle_cells(self, rng):
        from repro.simulation.inference import ExecutionPlan, PerforatedProduct

        specs = [(name, m, cv) for name in self.models for m in PERFORATIONS for cv in (True, False)]
        picks = rng.choice(len(specs), size=2, replace=False)
        cells = [
            (specs[i][0], ExecutionPlan.uniform(PerforatedProduct(specs[i][1], use_control_variate=specs[i][2])))
            for i in picks
        ]
        lut_model = self.models[int(rng.integers(len(self.models)))]
        cells.append((lut_model, ExecutionPlan.uniform(lut_candidates(1)[0])))
        return cells, self.size["table3_images"]


# ----------------------------------------------------------------------
# dse-lut
# ----------------------------------------------------------------------
class DseLut:
    name = "dse-lut"
    seeded_outputs = False

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.result = None
        self.space = None

    def setup(self):
        from repro.dse.evaluator import PlanEvaluator
        from repro.dse.space import SearchSpace
        from repro.multipliers.library import MultiplierLibrary

        class TimedPlanEvaluator(PlanEvaluator):
            """The serial PlanEvaluator, timing each plan's evaluation."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.latencies: list[float] = []
                predict = self.executor.predict

                def timed_predict(*args, **kwargs):
                    start = time.perf_counter()
                    predictions = predict(*args, **kwargs)
                    self.latencies.append(time.perf_counter() - start)
                    return predictions

                self.executor.predict = timed_predict

        dataset, (trained,), stems = load_models(("vgg13",))
        space = SearchSpace.build(
            trained.model,
            dataset.image_shape,
            library=MultiplierLibrary.synthetic_evoapprox(),
            max_library_candidates=2,
        )
        evaluator = TimedPlanEvaluator(
            trained, dataset, max_eval_images=self.size["dse_images"]
        )
        self.space = space
        return {"dataset": dataset, "trained": trained, "stems": stems,
                "space": space, "evaluator": evaluator}

    def run(self, state) -> Pass:
        from repro.dse import engine
        from repro.dse.ledger import CampaignLedger

        evaluator = state["evaluator"]
        ledger_dir = scratch_dir("dse-ledger")
        errors: list[str] = []
        outputs: dict = {}
        budget = self.size["dse_budget"]
        start = time.perf_counter()
        try:
            result = engine.run_campaign(
                state["trained"],
                state["dataset"],
                strategy="nsga2",
                budget_evals=budget,
                space=state["space"],
                evaluator=evaluator,
                ledger=CampaignLedger(path=ledger_dir),
                # NSGA-II keeps run_campaign's default stream on every
                # seed: a seeded stream changed the campaign's cost by up
                # to 30% between seeds (LUT-heavy trajectories), more than
                # any bound can hold.  The seed picks the oracle sample.
                rng=None,
            )
        except Exception:  # counted as failed evaluations below
            run_s = time.perf_counter() - start
            errors.append(f"campaign failed: {traceback.format_exc(limit=5)}")
            result = None
        else:
            run_s = time.perf_counter() - start
        rss = vm_hwm_mb()
        shutil.rmtree(ledger_dir, ignore_errors=True)
        evaluations = evaluator.evaluations
        failed = budget
        stats = {}
        if result is not None:
            self.result = result
            stats = dict(result.stats)
            failed = 0
            if result.stats["evaluations"] != evaluations:
                errors.append("campaign and evaluator disagree on the evaluation count")
            outputs = {
                "evaluations": result.stats["evaluations"],
                "front": [
                    [point.label, point.energy_nj, point.accuracy]
                    for point in result.front.points()
                ],
            }
        return Pass(
            run_s=run_s,
            latencies=list(evaluator.latencies),
            jobs=len(evaluator.latencies),
            image_evals=evaluations * len(evaluator.eval_labels),
            attempted=max(evaluations, budget),
            failed=failed,
            rss_mb=rss,
            outputs=outputs,
            errors=errors,
            stats=stats,
        )

    def teardown(self, state) -> None:
        state.clear()

    def oracle_cells(self, rng):
        """Two evaluated plans of the last campaign, one of them using a LUT."""
        if self.result is None:  # the failed campaign is already counted
            return [], self.size["dse_images"]
        space_points = [p for p in self.result.points if "assignment" in p.meta]
        lut = [p for p in space_points if "L" in p.label]
        other = [p for p in space_points if "L" not in p.label]
        picks = []
        if lut:
            picks.append(lut[int(rng.integers(len(lut)))])
        if other:
            picks.append(other[int(rng.integers(len(other)))])
        assignments = [p.meta["assignment"] for p in picks]
        # Plus one seeded assignment the campaign need not have visited.
        assignments.append(rng.integers(0, self.space.num_candidates, self.space.num_layers))
        return [("vgg13", self.space.plan(a)) for a in assignments], self.size["dse_images"]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def mac_layer_names(model_name: str) -> list[str]:
    from repro.models.zoo import build_model

    return [node.name for node in build_model(model_name, num_classes=10).conv_dense_nodes()]


def serve_plan(model_name: str, genes, names=None):
    from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

    names = names or mac_layer_names(model_name)
    per_layer = {}
    for name, gene in zip(names, genes):
        choice = SERVE_CHOICES[gene]
        if choice is not None:
            per_layer[name] = PerforatedProduct(choice[0], use_control_variate=choice[1])
    return ExecutionPlan(default=AccurateProduct(), per_layer=per_layer)


def serve_schedules(seed: int, jobs_per_client: int, clients: int = 2):
    """Per-client job lists, generated before any daemon starts.

    An entry is ``("fresh", model, genes)`` or ``("repeat", index)``
    where ``index`` points at an earlier fresh entry of the same client —
    in a closed loop that job has completed before the repeat is sent, so
    the repeat is a guaranteed cache hit.  Fresh recipes are distinct
    across all clients, so no fresh job can hit the cache.

    The shape of the load is the same on every seed: repeats are spread
    evenly through each client's list and fresh jobs alternate between
    the hosted networks.  The seed draws each fresh job's per-layer plan
    and the recipe each repeat returns to.  (A seeded shape changed how
    often the daemon's single-slot executor cache switched networks, and
    with it the latency distribution, from seed to seed.)
    """
    rng = np.random.default_rng(seed)
    layers = {name: len(mac_layer_names(name)) for name in SERVE_MODELS}
    seen = set()
    schedules = []
    for client in range(clients):
        schedule: list[tuple] = []
        fresh_positions: list[int] = []
        for position in range(jobs_per_client):
            repeat = int((position + 1) * REPEAT_SHARE) > int(position * REPEAT_SHARE)
            if repeat and fresh_positions:
                schedule.append(("repeat", fresh_positions[int(rng.integers(len(fresh_positions)))]))
                continue
            model = SERVE_MODELS[(client + len(fresh_positions)) % len(SERVE_MODELS)]
            while True:
                genes = tuple(int(g) for g in rng.integers(0, len(SERVE_CHOICES), layers[model]))
                if (model, genes) not in seen:
                    seen.add((model, genes))
                    break
            fresh_positions.append(len(schedule))
            schedule.append(("fresh", model, genes))
        schedules.append(schedule)
    return schedules


def _counting_http_client():
    from repro.runtime.jobs import HttpJobClient

    class CountingHttpJobClient(HttpJobClient):
        """HttpJobClient counting every HTTP round trip and its failures."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.requests = 0
            self.failed_requests = 0

        def _request_once(self, method, path, payload):
            self.requests += 1
            try:
                return super()._request_once(method, path, payload)
            except Exception:
                self.failed_requests += 1
                raise

    return CountingHttpJobClient


class Serve:
    name = "serve"
    seeded_outputs = True

    def __init__(self, size: dict, seed: int, in_process: bool = False):
        self.size = size
        self.in_process = in_process
        self.schedules = serve_schedules(seed, size["serve_jobs"])
        # Each job polls at its own interval around HttpJobClient's 50 ms
        # default.  With one fixed interval every latency is a whole number
        # of polls, and the median flipped a whole poll (0.17 s <-> 0.22 s)
        # between runs as the machine's speed drifted.
        poll_rng = np.random.default_rng([seed, 1])
        self.poll_intervals = [poll_rng.uniform(0.025, 0.075, len(s)) for s in self.schedules]
        self.names = {name: mac_layer_names(name) for name in SERVE_MODELS}

    # -- daemon lifecycle -------------------------------------------------
    def setup(self):
        if self.in_process:
            return self._setup_in_process()
        log_path = os.path.join(scratch_dir("serve"), "daemon.log")
        log = open(log_path, "w")
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--models", *SERVE_MODELS,
                "--classes", "10",
                "--max-eval-images", str(self.size["serve_images"]),
                "--cache-dir", str(MODEL_CACHE),
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        state = {"daemon": daemon, "log": log, "log_path": log_path,
                 "stems": cache_stems(SERVE_MODELS)}
        line = _read_line(daemon.stdout, timeout=120)
        if not line.startswith("serving on "):
            log.flush()
            with open(log_path) as handle:
                tail = handle.read()[-2000:]
            self.teardown(state)
            raise RuntimeError(f"daemon did not hand shake: {line!r}\n{tail}")
        state["url"] = line.split()[2]
        self._check_models(state)
        return state

    def _setup_in_process(self):
        from repro.runtime.jobs import JobManager
        from repro.runtime.server import JobServer
        from repro.runtime.sizing import resolve_worker_count

        dataset, trained, stems = load_models(SERVE_MODELS)
        manager = JobManager(
            trained,
            {dataset.name: dataset},
            max_workers=resolve_worker_count(1),
            requested_workers=1,
            max_eval_images=self.size["serve_images"],
            calibration_images=CALIBRATION_IMAGES,
        )
        server = JobServer(manager)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.2})
        thread.start()
        state = {"server": server, "manager": manager, "thread": thread, "url": server.url,
                 "stems": stems}
        self._check_models(state)
        return state

    def _check_models(self, state) -> None:
        """The first ``/models`` reply: every network hosted with the MAC
        layers the schedules were generated for (tears down on failure)."""
        try:
            infos = _counting_http_client()(state["url"]).models()
            hosted = {info["name"]: info["mac_layer_names"] for info in infos}
            for name in SERVE_MODELS:
                if hosted.get(name) != self.names[name]:
                    raise RuntimeError(f"daemon hosts {name} with unexpected MAC layers")
        except BaseException:
            self.teardown(state)
            raise

    def teardown(self, state) -> None:
        if "server" in state:
            state["server"].shutdown()
            state["thread"].join()
            state["server"].server_close()
            state["manager"].close()
            return
        daemon = state["daemon"]
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=20)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        daemon.stdout.close()
        state["log"].close()
        shutil.rmtree(os.path.dirname(state["log_path"]), ignore_errors=True)

    # -- the timed pass ---------------------------------------------------
    def run(self, state) -> Pass:
        from repro.runtime.jobs import JobClientError, JobFailedError
        from repro.runtime.jobs.queue import AdmissionError

        url = state["url"]
        results = [[None] * len(schedule) for schedule in self.schedules]
        latencies: list[float] = []
        errors: list[str] = []
        counters = []
        lock = threading.Lock()

        def client_loop(index: int) -> None:
            client = _counting_http_client()(url)
            counters.append(client)
            schedule = self.schedules[index]
            for position, entry in enumerate(schedule):
                source = schedule[entry[1]] if entry[0] == "repeat" else entry
                plan = serve_plan(source[1], source[2], self.names[source[1]])
                client.poll_interval = float(self.poll_intervals[index][position])
                start = time.perf_counter()
                try:
                    job_id = client.submit_job(source[1], [plan], session=f"client-{index}")
                    view = client.wait(job_id, timeout=120)
                except (AdmissionError, JobFailedError, JobClientError, TimeoutError) as error:
                    with lock:
                        errors.append(f"client {index} job {position}: {type(error).__name__}: {error}")
                    continue
                elapsed = time.perf_counter() - start
                results[index][position] = (view["accuracies"][0], view["cache_hits"])
                with lock:
                    latencies.append(elapsed)

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(len(self.schedules))]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run_s = time.perf_counter() - start

        jobs = sum(len(schedule) for schedule in self.schedules)
        failed_jobs = sum(result is None for per_client in results for result in per_client)
        requests = sum(client.requests for client in counters)
        failed_requests = sum(client.failed_requests for client in counters)
        if "daemon" in state:
            pid = state["daemon"].pid
            rss = vm_hwm_mb(pid)
            if state["daemon"].poll() is not None:
                errors.append(f"daemon exited with status {state['daemon'].returncode}")
                failed_jobs = max(failed_jobs, 1)
        else:
            rss = vm_hwm_mb()
        stats = state["manager"].stats() if "manager" in state else {}
        hits = sum(r[1] for per_client in results for r in per_client if r is not None)
        misses = sum(
            1 for per_client, schedule in zip(results, self.schedules)
            for r, entry in zip(per_client, schedule) if r is not None and entry[0] == "fresh"
        )
        errors.extend(self._consistency(results))
        return Pass(
            run_s=run_s,
            latencies=latencies,
            jobs=jobs - failed_jobs,
            image_evals=misses * self.size["serve_images"],
            attempted=jobs + requests,
            failed=failed_jobs + failed_requests,
            rss_mb=rss,
            outputs={
                "accuracies": [[None if r is None else r[0] for r in per_client] for per_client in results],
                "cache_hits": hits,
            },
            errors=errors,
            stats=stats,
        )

    def _consistency(self, results) -> list[str]:
        """Seed-independent checks: every repeat is a hit with its source's value."""
        errors = []
        for index, (schedule, per_client) in enumerate(zip(self.schedules, results)):
            for position, (entry, result) in enumerate(zip(schedule, per_client)):
                if result is None:
                    continue
                expected_hits = 1 if entry[0] == "repeat" else 0
                if result[1] != expected_hits:
                    errors.append(
                        f"client {index} job {position}: {result[1]} cache hits, expected {expected_hits}"
                    )
                if entry[0] == "repeat":
                    source = per_client[entry[1]]
                    if source is None or source[0] != result[0]:
                        errors.append(f"client {index} job {position}: repeat accuracy differs from its source")
        return errors

    def oracle_cells(self, rng):
        from repro.simulation.inference import ExecutionPlan

        fresh = [entry for schedule in self.schedules for entry in schedule if entry[0] == "fresh"]
        picks = rng.choice(len(fresh), size=2, replace=False)
        cells = [(fresh[i][1], serve_plan(fresh[i][1], fresh[i][2], self.names[fresh[i][1]])) for i in picks]
        lut_model = SERVE_MODELS[int(rng.integers(len(SERVE_MODELS)))]
        cells.append((lut_model, ExecutionPlan.uniform(lut_candidates(1)[0])))
        return cells, self.size["serve_images"]


def _read_line(stream, timeout: float) -> str:
    """One line from ``stream``, or ``""`` after ``timeout`` seconds."""
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0].strip() if box else ""


WORKLOADS = {"table3": Table3, "dse-lut": DseLut, "serve": Serve}
