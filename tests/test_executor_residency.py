"""Per-model calibrated executors with one active working set.

A worker state keeps one calibrated
:class:`~repro.simulation.inference.ApproximateExecutor` per hosted model
for its whole life, and the executor it switches away from releases its
batch state.  Pinned here, on every path that reaches
:func:`repro.runtime.worker.executor_for`:

* a serial worker state alternating between two models builds each
  executor once, returns accuracies bit-identical to a freshly built
  executor, and leaves the outgoing executor with no batch state;
* an inference-time weight override stays with its own model across
  switches;
* a 2-worker pool service and a :class:`~repro.runtime.jobs.JobManager`
  report ``executor_builds`` bounded by the hosted models (per worker).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.nn.optimizers import SGD
from repro.nn.training import Trainer
from repro.runtime import EvaluationService
from repro.runtime.jobs import JobManager, LocalJobClient
from repro.runtime.worker import eval_cell_chunk, executor_for, init_worker_state
from repro.simulation.campaign import TrainedModel
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    PerforatedProduct,
)
from repro.simulation.metrics import accuracy

EVAL_IMAGES = 24
CALIBRATION_IMAGES = 32
ROUNDS = 4


@pytest.fixture(scope="module")
def hosted(trained_tiny_model, tiny_dataset):
    """Two different networks over one dataset: a VGG and a grouped ShuffleNet."""
    shufflenet = build_model(
        "shufflenet",
        num_classes=tiny_dataset.num_classes,
        base_width=8,
        rng=np.random.default_rng(1),
    )
    Trainer(shufflenet, SGD(learning_rate=0.08), rng=np.random.default_rng(1)).fit(
        tiny_dataset.train_images, tiny_dataset.train_labels, epochs=1, batch_size=32
    )
    return [
        TrainedModel("vgg13", tiny_dataset.name, trained_tiny_model, 0.0),
        TrainedModel("shufflenet", tiny_dataset.name, shufflenet, 0.0),
    ]


@pytest.fixture(scope="module")
def datasets(tiny_dataset):
    return {tiny_dataset.name: tiny_dataset}


def _plans(trained: TrainedModel, seed: int, count: int = 3) -> list[ExecutionPlan]:
    rng = np.random.default_rng(seed)
    menu = [None, PerforatedProduct(1), PerforatedProduct(2, use_control_variate=False)]
    plans = []
    for _ in range(count):
        per_layer = {}
        for node in trained.model.conv_dense_nodes():
            choice = menu[int(rng.integers(len(menu)))]
            if choice is not None:
                per_layer[node.name] = choice
        plans.append(ExecutionPlan(default=AccurateProduct(), per_layer=per_layer))
    return plans


@pytest.fixture(scope="module")
def plans(hosted):
    return [_plans(trained, seed=index) for index, trained in enumerate(hosted)]


def _fresh_accuracies(trained, dataset, plans, override=None) -> list[float]:
    """One freshly calibrated executor per plan, reuse off: the reference."""
    results = []
    for plan in plans:
        executor = ApproximateExecutor(
            trained.model,
            dataset.train_images[:CALIBRATION_IMAGES],
            reuse_plan_invariant_acts=False,
            reuse_plan_invariant_prefix=False,
        )
        if override is not None:
            executor.set_weight_override(*override)
        predictions = executor.predict(dataset.test_images[:EVAL_IMAGES], plan)
        results.append(accuracy(predictions, dataset.test_labels[:EVAL_IMAGES]))
    return results


@pytest.fixture(scope="module")
def expected(hosted, plans, tiny_dataset):
    return [
        _fresh_accuracies(trained, tiny_dataset, model_plans)
        for trained, model_plans in zip(hosted, plans)
    ]


def _serial_state(hosted, datasets) -> dict:
    state: dict = {}
    init_worker_state(state, hosted, datasets, EVAL_IMAGES, CALIBRATION_IMAGES)
    return state


def _assert_released(executor: ApproximateExecutor) -> None:
    """Only the calibration is left: no kernels, buffers, caches or context."""
    assert len(executor._kernel_cache) == 0
    assert executor._multi_kernel_cache == {}
    assert executor._act_buffers == {}
    assert executor._act_cache == {}
    assert executor._prefix_cache == {}
    assert executor.plan_context is None
    assert executor._nodes


@pytest.mark.runtime
class TestSerialWorkerState:
    def test_alternation_builds_each_model_once_and_stays_bit_exact(
        self, hosted, datasets, plans, expected
    ):
        state = _serial_state(hosted, datasets)
        for _ in range(ROUNDS):
            for index in (0, 1):
                chunk = [(index, plan) for plan in plans[index]]
                assert eval_cell_chunk(state, chunk) == expected[index]
                assert state["active_model"] == index
                outgoing = state["executors"].get(1 - index)
                if outgoing is not None:
                    _assert_released(outgoing)
        # A chunk that switches model on every cell, as a served queue does.
        mixed = [(index, plans[index][k]) for k in range(3) for index in (0, 1)]
        want = [expected[index][k] for k in range(3) for index in (0, 1)]
        assert eval_cell_chunk(state, mixed) == want
        _assert_released(state["executors"][0])
        assert state["executor_builds"] == 2
        assert state["cells_evaluated"] == ROUNDS * 6 + len(mixed)

    def test_release_keeps_the_executor_bit_exact(self, hosted, tiny_dataset, plans, expected):
        trained = hosted[0]
        executor = ApproximateExecutor(
            trained.model, tiny_dataset.train_images[:CALIBRATION_IMAGES]
        )
        images = tiny_dataset.test_images[:EVAL_IMAGES]
        labels = tiny_dataset.test_labels[:EVAL_IMAGES]
        for _ in range(2):
            executor.set_plan_context(plans[0])
            got = [accuracy(executor.predict(images, plan), labels) for plan in plans[0]]
            assert got == expected[0]
            assert executor._act_buffers or executor._act_cache
            executor.release_batch_state()
            _assert_released(executor)

    def test_weight_override_stays_with_its_model(
        self, hosted, datasets, tiny_dataset, plans, expected
    ):
        state = _serial_state(hosted, datasets)
        executor = executor_for(state, 0)
        layer = executor.mac_layer_names()[0]
        zeroed = [np.zeros_like(codes) for codes in executor.quantized_weights(layer)]
        executor.set_weight_override(layer, zeroed)
        overridden = _fresh_accuracies(
            hosted[0], tiny_dataset, plans[0], override=(layer, zeroed)
        )
        assert overridden != expected[0]  # the override is observable
        for _ in range(ROUNDS):
            assert eval_cell_chunk(state, [(0, p) for p in plans[0]]) == overridden
            assert eval_cell_chunk(state, [(1, p) for p in plans[1]]) == expected[1]
        executor.clear_weight_overrides()
        assert eval_cell_chunk(state, [(1, p) for p in plans[1]]) == expected[1]
        assert eval_cell_chunk(state, [(0, p) for p in plans[0]]) == expected[0]
        assert state["executor_builds"] == 2


@pytest.mark.runtime
class TestPoolService:
    def test_alternation_reuses_each_workers_executors(
        self, hosted, datasets, plans, expected
    ):
        workers = 2
        with EvaluationService(
            hosted,
            datasets,
            max_workers=workers,
            use_shared_memory=True,
            max_eval_images=EVAL_IMAGES,
            calibration_images=CALIBRATION_IMAGES,
        ) as service:
            # Each batch carries cells of both models, so a worker's next
            # chunk often belongs to the other model.
            cells = [(index, plan) for index in (1, 0) for plan in plans[index]]
            for _ in range(2 * ROUNDS):
                assert service.evaluate_cells(cells) == expected[1] + expected[0]
            engine = service.stats()["engine"]
        # Summed over the pool workers: each calibrates a model at most once.
        assert 2 <= engine["executor_builds"] <= len(hosted) * workers
        assert engine["cells_evaluated"] == 2 * ROUNDS * len(cells)


@pytest.mark.serve
class TestJobManager:
    def test_alternating_jobs_calibrate_each_model_once(
        self, hosted, datasets, tiny_dataset
    ):
        # Fresh plans, one single-plan job each, alternating models on
        # every job as the served load does: no job is a cache hit.
        job_plans = [_plans(trained, seed=10 + i, count=6) for i, trained in enumerate(hosted)]
        want = [
            _fresh_accuracies(trained, tiny_dataset, model_plans)
            for trained, model_plans in zip(hosted, job_plans)
        ]
        manager = JobManager(
            hosted,
            datasets,
            max_eval_images=EVAL_IMAGES,
            calibration_images=CALIBRATION_IMAGES,
        )
        with LocalJobClient(manager) as client:
            for k in range(6):
                for index in (0, 1):
                    job_id = client.submit_job(index, [job_plans[index][k]])
                    view = client.wait(job_id, timeout=120)
                    assert view["accuracies"] == [want[index][k]]
                    assert view["cache_misses"] == 1
            engine = manager.stats()["engine"]
        assert engine["executor_builds"] == len(hosted)
        assert engine["cells_evaluated"] == 12
