"""Array ownership in the executor's forward walks.

The executor runs BatchNorm, ReLU and Add in place on arrays its walk
owns (see ``ApproximateExecutor._run_nonmac``).  These tests pin the two
halves of that contract on tiny VGG, ResNet (Add), GoogLeNet (branches,
Concat) and ShuffleNet (grouped convs, ChannelShuffle, Add with the unit
input first) networks, plus hand-built graphs for the corner cases:

* logits are byte-identical to a test-local *allocating* walk (plain
  ``layer.forward`` plus ``_run_mac_node``) under ``forward``, under a
  chunked ``forward_many`` and with a plan context armed over two batches;
* nothing the walk does not own changes: the caller's images, the
  prefix-checkpoint boundary arrays and the activation-code cache entries
  hash the same before and after later forwards.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.multipliers.perforated import PerforatedMultiplier
from repro.nn.graph import Graph
from repro.nn.layers import (
    Add,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    ReLU,
)
from repro.simulation import inference
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine

BATCH = 40
NETWORKS = {
    "vgg13": {"base_width": 4},
    "resnet44": {"base_width": 4},
    "googlenet": {"base_width": 4},
    "shufflenet": {"base_width": 8, "groups": 2},
}


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _randomize_batchnorms(model: Graph, rng: np.random.Generator) -> None:
    for node in model.nodes:
        layer = node.layer
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.normal(scale=0.5, size=layer.channels)
            layer.running_var = rng.uniform(0.2, 2.0, size=layer.channels)
            layer.gamma = rng.uniform(0.5, 1.5, size=layer.channels)
            layer.beta = rng.normal(scale=0.3, size=layer.channels)


def _allocating_walk(executor: ApproximateExecutor, images, plan) -> np.ndarray:
    """The forward pass with every non-MAC layer allocating its output."""
    acts = {"input": images}
    for node in executor.model.nodes:
        inputs = [acts[name] for name in node.inputs]
        if node.name in executor._nodes:
            acts[node.name] = executor._run_mac_node(
                node.name, node.layer, inputs[0], plan.model_for(node.name)
            )
        else:
            acts[node.name] = node.layer.forward(*inputs, training=False)
    return acts[executor.model.output_name]


def _plans(mac_names: list[str]) -> list[ExecutionPlan]:
    """Ten distinct plans diverging at depths spread over the network."""
    n = len(mac_names)
    depths = sorted({int(d) for d in np.linspace(1, n - 1, 7)})
    models = [PerforatedProduct(1), PerforatedProduct(2, False), PerforatedProduct(3)]
    plans = [
        ExecutionPlan.uniform(AccurateProduct()),
        ExecutionPlan.uniform(PerforatedProduct(2)),
    ]
    for i, depth in enumerate(depths):
        plan = ExecutionPlan.uniform(AccurateProduct())
        for name in mac_names[depth:]:
            plan = plan.with_layer(name, models[i % len(models)])
        plans.append(plan)
    lut = LUTProduct(PerforatedMultiplier(2))
    plans.append(ExecutionPlan.uniform(AccurateProduct()).with_layer(mac_names[-1], lut))
    return plans


class _Case:
    """One network with its images, plans and reference logits."""

    def __init__(self, model: Graph, images: np.ndarray, calib: np.ndarray):
        self.model = model
        self.images = images
        self.calib = calib
        self.reference = ApproximateExecutor(
            model,
            calib,
            reuse_plan_invariant_acts=False,
            reuse_plan_invariant_prefix=False,
        )
        self.plans = _plans(self.reference.mac_layer_names())
        self._expected: dict[tuple, bytes] = {}

    def executor(self) -> ApproximateExecutor:
        return ApproximateExecutor(self.model, self.calib)

    def expected(self, start: int, stop: int, plan_index: int) -> bytes:
        key = (start, stop, plan_index)
        if key not in self._expected:
            logits = _allocating_walk(
                self.reference, self.images[start:stop], self.plans[plan_index]
            )
            self._expected[key] = logits.tobytes()
        return self._expected[key]


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def case(request) -> _Case:
    rng = np.random.default_rng(11)
    model = build_model(request.param, num_classes=5, rng=rng, **NETWORKS[request.param])
    _randomize_batchnorms(model, rng)
    images = rng.normal(size=(BATCH, 16, 16, 3))
    calib = rng.normal(size=(16, 16, 16, 3))
    return _Case(model, images, calib)


class TestZooNetworks:
    def test_forward_matches_allocating_walk(self, case):
        executor = case.executor()
        image_digest = _digest(case.images)
        for index, plan in enumerate(case.plans):
            assert executor.forward(case.images, plan).tobytes() == case.expected(
                0, BATCH, index
            )
        assert _digest(case.images) == image_digest

    def test_chunked_forward_many_matches_allocating_walk(self, case):
        # Enough distinct lines that the stacked suffix runs in chunks of
        # sliced phase-1 activations, which the walk must never overwrite.
        assert inference._STACKED_ROWS_TARGET // len(case.plans) < BATCH
        executor = case.executor()
        image_digest = _digest(case.images)
        outputs = executor.forward_many(case.images, case.plans)
        assert executor.fused_launches > 0
        for index, out in enumerate(outputs):
            assert out.tobytes() == case.expected(0, BATCH, index)
        assert _digest(case.images) == image_digest

    def test_plan_context_over_two_batches_leaves_cached_arrays_untouched(self, case):
        executor = case.executor()
        executor.set_plan_context(case.plans)
        halves = [(0, BATCH // 2), (BATCH // 2, BATCH)]
        for start, stop in halves:
            batch = case.images[start:stop]
            for index, plan in enumerate(case.plans):
                assert executor.forward(batch, plan).tobytes() == case.expected(
                    start, stop, index
                )
        assert executor.prefix_cache_hits > 0
        # Every array the walk does not own, by identity, with its digest.
        watched = [case.images]
        for entries in executor._prefix_cache.values():
            for _, _, boundary in entries:
                watched.extend(boundary.values())
        for entries in executor._act_cache.values():
            watched.extend(codes for _, codes in entries)
        assert len(watched) > 1 + len(executor._act_cache)
        digests = [_digest(arr) for arr in watched]
        for start, stop in halves:
            batch = case.images[start:stop]
            for index, out in enumerate(executor.forward_many(batch, case.plans)):
                assert out.tobytes() == case.expected(start, stop, index)
            for index, plan in reversed(list(enumerate(case.plans))):
                assert executor.forward(batch, plan).tobytes() == case.expected(
                    start, stop, index
                )
        assert [_digest(arr) for arr in watched] == digests


def _corner_case_graph(rng: np.random.Generator) -> Graph:
    """Owned arrays with a second consumer, a repeated input and a live view."""
    graph = Graph()
    conv = graph.add("conv", Conv2D(3, 4, 3, rng=rng), "input")
    # ``conv`` feeds two in-place-capable layers; only the last may write.
    bn = graph.add("bn_a", BatchNorm(4), conv)
    relu = graph.add("relu_b", ReLU(), conv)
    merged = graph.add("sum", Add(2), [relu, bn])
    twice = graph.add("twice", Add(2), [merged, merged])
    conv2 = graph.add("conv2", Conv2D(4, 4, 3, rng=rng), twice)
    # ``flat`` views ``conv2``, and stays live past conv2's last use.
    flat = graph.add("flat", Flatten(), conv2)
    relu2 = graph.add("relu_c", ReLU(), conv2)
    pooled = graph.add("gap", GlobalAvgPool(), relu2)
    dense = graph.add("dense", Dense(8 * 8 * 4, 4, rng=rng), flat)
    joined = graph.add("join", Add(2), [dense, pooled])
    graph.add("classifier", Dense(4, 3, rng=rng), joined)
    return graph


class TestCornerCaseGraph:
    @pytest.fixture(scope="class")
    def corner(self):
        rng = np.random.default_rng(5)
        model = _corner_case_graph(rng)
        _randomize_batchnorms(model, rng)
        images = rng.normal(size=(BATCH, 8, 8, 3))
        return _Case(model, images, rng.normal(size=(8, 8, 8, 3)))

    def test_forward_matches_allocating_walk(self, corner):
        executor = corner.executor()
        for index, plan in enumerate(corner.plans):
            assert executor.forward(corner.images, plan).tobytes() == corner.expected(
                0, BATCH, index
            )

    def test_forward_many_matches_allocating_walk(self, corner):
        outputs = corner.executor().forward_many(corner.images, corner.plans)
        for index, out in enumerate(outputs):
            assert out.tobytes() == corner.expected(0, BATCH, index)

    def test_inplace_only_at_last_use_of_an_unviewed_array(self, corner, monkeypatch):
        calls: list[tuple[str, bool]] = []
        for cls in (BatchNorm, ReLU, Add):
            original = cls.forward

            def spy(self, *args, _original=original, **kwargs):
                calls.append((self.name, kwargs.get("inplace", False)))
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "forward", spy)
        corner.executor().forward(corner.images, corner.plans[0])
        assert dict(calls) == {
            "bn_a": False,  # conv is read again by relu_b
            "relu_b": True,
            "sum": True,
            "twice": False,  # one array listed twice
            "relu_c": False,  # flat still views conv2
            "join": True,
        }
