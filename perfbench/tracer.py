"""Outside-in tracing of the repro layers, for the benchmark's traced runs.

Nothing in ``src/`` is instrumented.  :class:`Tracer` replaces the public
functions of each layer *at the sites the engine calls them from* (a
class attribute, or the name a module imported) with thin wrappers that
push a span on a per-thread stack.  Each span records its name, start,
end, parent and, for array stages, the bytes or MACs it touched.  Self
time is a span's duration minus its children's.  Spans stay in memory
and are reduced to per-layer metrics when the run ends.

Two wrapper sets exist: ``"outer"`` (service, jobs, transport and DSE
calls — a few hundred per run) and ``"engine"`` (the per-layer stages of
the forward pass).  A run with only ``"outer"`` installed is effectively
untraced.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np


def _nbytes(value) -> int:
    return int(value.nbytes) if isinstance(value, np.ndarray) else 0


def _quantize_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args[0]) + _nbytes(result)}


def _im2col_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args[0]) + _nbytes(result[0])}


def _epilogue_bytes(args, kwargs, result) -> dict:
    sums = kwargs.get("product_sum", args[3] if len(args) > 3 else None)
    if sums is None:
        sums = kwargs.get("product_sums")
    return {"bytes": _nbytes(args[1]) + _nbytes(sums) + _nbytes(result)}


def _kernel_macs(args, kwargs, result) -> dict:
    kernel, act = args[0], args[1]
    return {"macs": int(act.shape[0]) * kernel.taps * kernel.filters}


def _fused_macs(args, kwargs, result) -> dict:
    kernel = args[0]
    return {"macs": int(result.shape[0]) * kernel.taps * result.shape[1]}


def _track(kind):
    def extra(args, kwargs, result) -> dict:
        return {"instance": (kind, args[0])}

    return extra


def _job_created(args, kwargs, result) -> dict:
    args[0]._bench_created = time.perf_counter()
    return {}


def _job_started(args, kwargs, result) -> dict:
    return {"wait": time.perf_counter() - args[0]._bench_created}


def _wrap_targets(set_name: str):
    """``(owner, attribute, span name, extra)`` of one wrapper set."""
    import repro.simulation.inference as inference
    import repro.runtime.jobs.client as client
    import repro.runtime.server as server
    from repro.core.backends import NumpyBackend
    from repro.core.product_kernels import (
        AccurateKernel,
        LUTKernel,
        MultiPlanKernel,
        PerforatedKernel,
    )
    from repro.dse import engine as dse_engine
    from repro.dse.evaluator import PlanEvaluator
    from repro.dse.ledger import CampaignLedger
    from repro.quantization.qlayers import QuantizedLinearOp
    from repro.runtime.jobs.manager import JobManager
    from repro.runtime.jobs.model import Job
    from repro.runtime.service import EvaluationService

    if set_name == "outer":
        return [
            (EvaluationService, "start", "runtime.start", _track("service")),
            (EvaluationService, "evaluate_cells", "runtime.batch", None),
            (JobManager, "__init__", "jobs.manager", _track("manager")),
            (Job, "__init__", "jobs.admit", _job_created),
            (Job, "mark_running", "jobs.mark_running", _job_started),
            (client.HttpJobClient, "submit_job", "transport.post", None),
            (client.HttpJobClient, "job", "transport.poll", None),
            (client, "encode_plans", "transport.codec", None),
            (server, "decode_plans", "transport.codec", None),
            (dse_engine, "run_campaign", "dse.campaign", None),
            (PlanEvaluator, "evaluate", "dse.evaluate", None),
            (CampaignLedger, "put", "dse.ledger", None),
        ]
    from repro.nn.layers import Conv2D, Dense, Layer

    targets = [
        (QuantizedLinearOp, "output_real", "quantization.epilogue", _epilogue_bytes),
        (QuantizedLinearOp, "output_real_stacked", "quantization.epilogue", _epilogue_bytes),
        (inference, "quantize", "quantization.quantize", _quantize_bytes),
        (inference, "im2col", "nn.im2col", _im2col_bytes),
        (AccurateKernel, "product_sums", "core.kernel_accurate", _kernel_macs),
        (PerforatedKernel, "product_sums", "core.kernel_perforated", _kernel_macs),
        (LUTKernel, "product_sums", "core.kernel_lut", _kernel_macs),
        (MultiPlanKernel, "product_sums_multi", "core.kernel_fused", _fused_macs),
        (NumpyBackend, "compile", "core.compile", None),
        (NumpyBackend, "compile_multi", "core.compile", None),
        (inference.ApproximateExecutor, "__init__", "simulation.calibrate", _track("executor")),
        (inference.ApproximateExecutor, "forward", "simulation.executor", None),
        (inference.ApproximateExecutor, "forward_many", "simulation.executor", None),
        (inference.ApproximateExecutor, "logits", "simulation.executor", None),
        (inference.ApproximateExecutor, "logits_many", "simulation.executor", None),
    ]
    pending = [Layer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in (Conv2D, Dense) and "forward" in cls.__dict__:
            targets.append((cls, "forward", f"nn.nonmac.{cls.__name__}", None))
    return targets


class Tracer:
    """Span recorder plus the installed wrappers (see the module docstring)."""

    def __init__(self):
        self.spans: list[list] = []
        self.instances: list[tuple[str, object]] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn, extra):
        spans, local, instances = self.spans, self._local, self.instances

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # [name, start, end, parent record, extras]
            record = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                spans.append(record)
            if extra is not None:
                info = extra(args, kwargs, result)
                instance = info.pop("instance", None)
                if instance is not None:
                    instances.append(instance)
                record[4] = info
            return result

        return wrapper

    def install(self, set_name: str) -> "Tracer":
        for owner, attr, name, extra in _wrap_targets(set_name):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extra))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    def self_times(self, window: tuple[float, float] | None = None) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and summed extras.

        ``window`` keeps only spans that start inside ``[t0, t1]``.
        """
        child_time: dict[int, float] = {}
        for record in self.spans:
            parent = record[3]
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + (record[2] - record[1])
        table: dict[str, dict] = {}
        for record in self.spans:
            if window is not None and not window[0] <= record[1] <= window[1]:
                continue
            duration = record[2] - record[1]
            row = table.setdefault(record[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(id(record), 0.0)
            for key, value in (record[4] or {}).items():
                row[key] = row.get(key, 0) + value
        return table
