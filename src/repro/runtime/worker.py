"""Per-process worker state and cell evaluation of the evaluation runtime.

One worker process hosts:

* the attached trained models and datasets (read-only views into the
  service's shared blocks when publication is on — see
  :mod:`repro.runtime.publishing`);
* one calibrated
  :class:`~repro.simulation.inference.ApproximateExecutor` per hosted model,
  built on the model's first cell and kept for the life of the state, so a
  host that alternates between networks calibrates each one once.  Only the
  *active* model's executor holds a working set: switching models calls
  :meth:`~repro.simulation.inference.ApproximateExecutor.release_batch_state`
  on the outgoing one (kernels, activation buffers and caches, prefix
  checkpoints, plan context), so peak memory is one executor's working set
  plus each hosted model's calibration (quantizer ranges, weight codes,
  control variates);
* the plan-context arming: every chunk a worker receives carries its plans,
  and the executor's plan-invariant prefix reuse is armed with exactly that
  chunk's plan set before evaluation (bit-exact — checkpoints are only
  substituted on exact fingerprint-prefix matches).

The same functions back both execution modes of the
:class:`~repro.runtime.service.EvaluationService`: worker processes operate
on the module-global :data:`_WORKER_STATE` (populated by the pool
initializer), while the serial in-process path passes the service's own
private state dict, so two live services in one process never collide.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.runtime.publishing import SharedDatasets, SharedTrainedModels
from repro.runtime.scheduling import (
    DEFAULT_PLAN_GROUP_SIZE,
    model_mac_names,
    plan_group_slices,
    shared_prefix_depths,
)
from repro.simulation.inference import ApproximateExecutor, ExecutionPlan
from repro.simulation.metrics import accuracy

#: Pool-worker process state (set by :func:`_init_pool_worker`).  The serial
#: path never touches it — each in-process service owns a private dict.
_WORKER_STATE: dict = {}

#: Counters of a worker state, reported per chunk to the service: the
#: executor counters (mirrored as *deltas* around each model segment, so the
#: totals never depend on which executor a segment ran on), then the
#: ``ApproximateExecutor`` constructions and the evaluated cells.
STAT_COUNTERS = (
    "fused_launches",
    "fused_plans_total",
    "prefix_cache_hits",
    "prefix_cache_misses",
    "act_cache_hits",
    "act_cache_misses",
    "executor_builds",
    "cells_evaluated",
)


def init_worker_state(
    state: dict,
    trained_models,
    datasets,
    max_eval_images: int | None,
    calibration_images: int,
    engine_backend: str | None = None,
    reuse_prefix: bool = True,
    batch_size: int = 256,
    fuse_plans: bool = True,
    plan_group_size: int = DEFAULT_PLAN_GROUP_SIZE,
) -> None:
    """(Re)initialize one worker's state dict, attaching shared blocks."""
    if isinstance(trained_models, SharedTrainedModels):
        # Attach to the published parameter block: the models rebuilt here
        # hold read-only views into shared memory, not private copies.
        trained_models = trained_models.attach()
    if isinstance(datasets, SharedDatasets):
        # Same for the evaluation data — images dwarf the weights for small
        # models, so this is where most of the per-worker RSS would go.
        datasets = datasets.attach()
    state.clear()
    state.update(
        models=list(trained_models),
        datasets=dict(datasets),
        max_eval_images=max_eval_images,
        calibration_images=calibration_images,
        engine_backend=engine_backend,
        reuse_prefix=bool(reuse_prefix),
        batch_size=int(batch_size),
        fuse_plans=bool(fuse_plans),
        plan_group_size=int(plan_group_size),
        executors={},
        active_model=None,
    )
    state.update({counter: 0 for counter in STAT_COUNTERS})


def _init_pool_worker(*initargs) -> None:
    """Pool initializer: populate the process-global worker state."""
    init_worker_state(_WORKER_STATE, *initargs)


def executor_for(
    state: dict, model_index: int, plans: "Sequence[ExecutionPlan] | None" = None
) -> ApproximateExecutor:
    """Calibrated executor of one model, built once per worker state.

    Every hosted model keeps its executor, so no model is calibrated twice.
    When the active model changes, the outgoing executor releases its batch
    state, which bounds peak memory to the active executor's working set
    plus the other models' calibration.
    When ``plans`` is given (and reuse is on) the executor's plan-invariant
    prefix reuse is armed with that plan set, replacing any previous
    context; consecutive cells of the chunk then resume at the deepest
    matching checkpoint instead of re-running shared layer prefixes.
    """
    executors = state["executors"]
    active = state["active_model"]
    if active is not None and active != model_index:
        executors[active].release_batch_state()
    executor = executors.get(model_index)
    if executor is None:
        trained = state["models"][model_index]
        dataset = state["datasets"][trained.dataset_name]
        calib = dataset.train_images[: state["calibration_images"]]
        reuse = state.get("reuse_prefix", True)
        executor = ApproximateExecutor(
            trained.model,
            calib,
            engine_backend=state["engine_backend"],
            reuse_plan_invariant_acts=reuse,
            reuse_plan_invariant_prefix=reuse,
        )
        executors[model_index] = executor
        state["executor_builds"] += 1
    state["active_model"] = model_index
    if plans and state.get("reuse_prefix", True):
        executor.set_plan_context(list(plans))
    return executor


def eval_arrays(state: dict, trained) -> tuple[np.ndarray, np.ndarray]:
    """The (possibly capped) evaluation images and labels of one model."""
    dataset = state["datasets"][trained.dataset_name]
    test_images = dataset.test_images
    test_labels = dataset.test_labels
    max_eval = state["max_eval_images"]
    if max_eval is not None:
        test_images = test_images[:max_eval]
        test_labels = test_labels[:max_eval]
    return test_images, test_labels


def eval_plan_cell(state: dict, model_index: int, plan: ExecutionPlan) -> float:
    """Accuracy of one model under one plan, using the cached executor."""
    trained = state["models"][model_index]
    test_images, test_labels = eval_arrays(state, trained)
    executor = executor_for(state, model_index)
    predictions = executor.predict(test_images, plan, batch_size=state["batch_size"])
    state["cells_evaluated"] += 1
    return accuracy(predictions, test_labels)


def _executor_counters(executor: ApproximateExecutor) -> dict[str, int]:
    """Snapshot of the executor's reuse + fused counters, one flat dict."""
    counters = dict(executor.reuse_stats())
    counters.update(executor.fused_stats())
    return counters


def eval_cell_chunk(
    state: dict, chunk: Sequence[tuple[int, ExecutionPlan]]
) -> list[float]:
    """Accuracies of one contiguous schedule chunk, in chunk order.

    Consecutive cells of the same model are grouped: the group's plan set
    is armed as the executor's plan context once, then each *plan group*
    (up to ``plan_group_size`` consecutive plans — the same granularity the
    service's scheduler cuts chunks at) rides one fused multi-plan launch
    per layer via :meth:`~repro.simulation.inference
    .ApproximateExecutor.predict_many` when ``fuse_plans`` is on and the
    backend advertises the capability; otherwise plans run the classic
    per-plan loop.  Both paths are bit-exact, and the prefix adjacency
    arranged by the scheduler turns into checkpoint hits either way.
    """
    results: list[float] = []
    fuse = bool(state.get("fuse_plans", True))
    group_size = int(state.get("plan_group_size", DEFAULT_PLAN_GROUP_SIZE))
    start = 0
    while start < len(chunk):
        stop = start
        model_index = chunk[start][0]
        while stop < len(chunk) and chunk[stop][0] == model_index:
            stop += 1
        trained = state["models"][model_index]
        segment = chunk[start:stop]
        plans = [plan for _, plan in segment]
        executor = executor_for(state, model_index, plans=plans)
        test_images, test_labels = eval_arrays(state, trained)
        before = _executor_counters(executor)
        fused = fuse and executor.fused_multi_plan
        depths = shared_prefix_depths(segment, {model_index: model_mac_names(trained)})
        for group_start, group_stop in plan_group_slices(
            segment, group_size, split_depths=depths
        ):
            group = plans[group_start:group_stop]
            if fused and len(group) > 1:
                predictions_per_plan = executor.predict_many(
                    test_images, group, batch_size=state["batch_size"]
                )
            else:
                predictions_per_plan = [
                    executor.predict(test_images, plan, batch_size=state["batch_size"])
                    for plan in group
                ]
            for predictions in predictions_per_plan:
                results.append(accuracy(predictions, test_labels))
                state["cells_evaluated"] += 1
        for counter, value in _executor_counters(executor).items():
            state[counter] += value - before[counter]
        start = stop
    return results


def _timed_eval_cell_chunk_task(
    chunk: Sequence[tuple[int, ExecutionPlan]],
) -> tuple[list[float], float, dict[str, int]]:
    """Pool task returning ``(accuracies, wall_clock_seconds, counters)``.

    The wall-clock is measured inside the worker — compute time only, no
    queueing or pickling — which is what the service feeds back into its
    :class:`~repro.runtime.cost_model.CellCostModel` for online refinement
    of the per-technique throughput factors.  ``counters`` is this chunk's
    *delta* of the :data:`STAT_COUNTERS` (fused launches, prefix/act cache
    hits, executor builds, evaluated cells), which the service aggregates
    for :meth:`EvaluationService.stats`.
    """
    before = {
        counter: _WORKER_STATE.get(counter, 0) for counter in STAT_COUNTERS
    }
    start = time.perf_counter()
    results = eval_cell_chunk(_WORKER_STATE, chunk)
    elapsed = time.perf_counter() - start
    delta = {
        counter: _WORKER_STATE.get(counter, 0) - before[counter]
        for counter in STAT_COUNTERS
    }
    return results, elapsed, delta


__all__ = [
    "STAT_COUNTERS",
    "init_worker_state",
    "executor_for",
    "eval_arrays",
    "eval_plan_cell",
    "eval_cell_chunk",
]
