"""Stage contract: the names the engine's stages are reached through.

Outside-in profilers (the repo benchmark's tracer among them) time the
dequantization epilogue and the product kernels by wrapping their public
entry points, so the executor must keep calling exactly those:

* dequantization — ``QuantizedLinearOp.output_real`` and
  ``QuantizedLinearOp.output_real_stacked``;
* per-plan kernels — ``product_sums`` of the compiled accurate,
  perforated and LUT kernels;
* fused launches — ``MultiPlanKernel.product_sums_multi``.

An executor that routed around these names would still compute correct
logits, but every stage time read through them would silently drop to 0.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.product_kernels import (
    AccurateKernel,
    LUTKernel,
    MultiPlanKernel,
    PerforatedKernel,
)
from repro.multipliers.perforated import PerforatedMultiplier
from repro.quantization.qlayers import QuantizedLinearOp
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine

_STAGES = [
    (QuantizedLinearOp, "output_real"),
    (QuantizedLinearOp, "output_real_stacked"),
    (AccurateKernel, "product_sums"),
    (PerforatedKernel, "product_sums"),
    (LUTKernel, "product_sums"),
    (MultiPlanKernel, "product_sums_multi"),
]


@pytest.fixture
def calls(monkeypatch):
    """Counts calls per ``Class.method`` stage entry point."""
    counts: Counter = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in _STAGES:
        key = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, counting(key, owner.__dict__[attr]))
    return counts


@pytest.fixture
def executor(trained_tiny_model, tiny_dataset):
    # Fresh per test: prefix/activation caches never hide a stage call.
    return ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:32])


def _mac_names(executor):
    return [node.name for node in executor.model.conv_dense_nodes()]


def _kernel_calls(calls):
    return sum(
        calls[f"{cls.__name__}.product_sums"]
        for cls in (AccurateKernel, PerforatedKernel, LUTKernel)
    )


class TestStageContract:
    def test_forward_runs_every_stage_through_its_public_name(
        self, executor, tiny_dataset, calls
    ):
        names = _mac_names(executor)
        plan = (
            ExecutionPlan.uniform(AccurateProduct())
            .with_layer(names[0], PerforatedProduct(2))
            .with_layer(names[1], LUTProduct(PerforatedMultiplier(2)))
        )
        executor.forward(tiny_dataset.test_images[:4], plan)
        for cls in (AccurateKernel, PerforatedKernel, LUTKernel):
            assert calls[f"{cls.__name__}.product_sums"] >= 1
        # One kernel launch and one epilogue per MAC layer (all groups = 1).
        assert _kernel_calls(calls) == len(names)
        assert calls["QuantizedLinearOp.output_real"] == len(names)
        assert calls["QuantizedLinearOp.output_real_stacked"] == 0
        assert calls["MultiPlanKernel.product_sums_multi"] == 0

    def test_forward_many_runs_fused_stages_through_their_public_names(
        self, executor, tiny_dataset, calls
    ):
        names = _mac_names(executor)
        plans = [
            ExecutionPlan.uniform(model)
            for model in (
                AccurateProduct(),
                PerforatedProduct(2),
                PerforatedProduct(3, use_control_variate=False),
                LUTProduct(PerforatedMultiplier(1)),
            )
        ]
        assert executor.fused_multi_plan
        executor.forward_many(tiny_dataset.test_images[:4], plans)
        # The plans differ on every layer: the first layer is one shared
        # fused launch, dequantized by the stacked entry; every later layer
        # is a fused launch over the stacked plan blocks, dequantized by
        # output_real.
        assert calls["MultiPlanKernel.product_sums_multi"] == len(names)
        assert calls["QuantizedLinearOp.output_real_stacked"] == 1
        assert calls["QuantizedLinearOp.output_real"] == len(names) - 1
        assert _kernel_calls(calls) == 0
