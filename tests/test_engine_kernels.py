"""Parity suite: compiled product kernels vs. the legacy product-sum paths.

Every kernel produced by ``ProductModel.compile`` — through **every
registered engine backend** — must be *bit-exact* against the corresponding
stateless function in :mod:`repro.core.approx_conv`; this is what allows the
executor to run the compiled engine by default while keeping the legacy path
as the reference.  The ``engine_backend`` fixture parametrizes the suite
over the backend registry and skips (with a reason) any backend whose
availability probe fails, e.g. ``numba`` on a numba-less install.
Run standalone with ``pytest -m engine``.
"""

import numpy as np
import pytest

from repro.core.approx_conv import (
    accurate_product_sums,
    lut_product_sums,
    perforated_product_sums,
)
from repro.core.backends import backend_names, get_backend
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    LUTKernel,
    MultiPlanKernel,
    PerforatedKernel,
)
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.lut import LUTMultiplier
from repro.multipliers.perforated import PerforatedMultiplier
from repro.multipliers.truncated import TruncatedMultiplier
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine


@pytest.fixture(params=backend_names())
def engine_backend(request):
    """Every registered backend; unavailable ones skip with their reason."""
    backend = get_backend(request.param)
    available, reason = backend.availability()
    if not available:
        pytest.skip(f"engine backend {backend.name!r} unavailable: {reason}")
    return backend


@pytest.fixture
def operands(rng):
    acts = rng.integers(0, 256, size=(37, 18), dtype=np.uint8)
    weights = rng.integers(0, 256, size=(18, 7), dtype=np.uint8)
    return acts, weights


def random_lut(rng):
    """A structureless multiplier table (worst case for the compiled path)."""
    exact = np.arange(256, dtype=np.int64)[:, None] * np.arange(256, dtype=np.int64)
    noise = rng.integers(-500, 500, size=(256, 256))
    return exact + noise


class TestKernelParity:
    def test_accurate_kernel_bit_exact(self, operands):
        acts, weights = operands
        kernel = AccurateKernel(weights)
        expected = accurate_product_sums(acts, weights)
        result = kernel(acts)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7])
    def test_perforated_kernel_bit_exact(self, operands, m):
        acts, weights = operands
        kernel = PerforatedKernel(weights, m)
        expected = perforated_product_sums(acts, weights, m)
        np.testing.assert_array_equal(kernel(acts), expected)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("quantized", [True, False])
    def test_perforated_cv_kernel_bit_exact(self, operands, m, quantized):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights, quantize=quantized)
        kernel = PerforatedKernel(weights, m, cv)
        expected = perforated_product_sums(acts, weights, m, cv)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)

    def test_lut_kernel_bit_exact_random_table(self, operands, rng):
        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        expected = lut_product_sums(acts, weights, lut)
        np.testing.assert_array_equal(kernel(acts), expected)

    def test_lut_kernel_bit_exact_structured_tables(self, operands):
        acts, weights = operands
        for multiplier in (PerforatedMultiplier(2), TruncatedMultiplier(2, 3)):
            lut = multiplier.build_lut()
            kernel = LUTKernel(weights, lut)
            expected = lut_product_sums(acts, weights, lut)
            np.testing.assert_array_equal(kernel(acts), expected)

    def test_accurate_lut_compiles_to_exact_matmul(self, operands):
        """AccurateMultiplier's LUT has zero error: pure matmul, no error term."""
        acts, weights = operands
        kernel = LUTKernel(weights, AccurateMultiplier().build_lut())
        assert kernel.is_exact
        np.testing.assert_array_equal(kernel(acts), accurate_product_sums(acts, weights))

    def test_lut_kernel_lowmem_mode_bit_exact(self, operands, rng):
        """The low-memory fallback (error matrix over budget) stays bit-exact."""
        acts, weights = operands
        lut = random_lut(rng)
        lowmem = LUTKernel(weights, lut, max_error_matrix_bytes=0)
        assert lowmem._error_matrix is None and not lowmem.is_exact
        np.testing.assert_array_equal(lowmem(acts), lut_product_sums(acts, weights, lut))

    def test_lut_kernel_gather_fallback_bit_exact(self, operands, rng, monkeypatch):
        """The no-scipy per-tap gather path stays bit-exact."""
        import repro.core.product_kernels as pk

        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        monkeypatch.setattr(pk, "_sparse", None)
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_lut_kernel_built_without_scipy_bit_exact(self, operands, rng, monkeypatch):
        """Compile *and* evaluate with scipy absent: the gather loop is the
        only error-sum path, and repeated calls must stay exact."""
        import repro.core.product_kernels as pk

        monkeypatch.setattr(pk, "_sparse", None)
        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        expected = lut_product_sums(acts, weights, lut)
        np.testing.assert_array_equal(kernel(acts), expected)
        np.testing.assert_array_equal(kernel(acts), expected)  # no state decay
        # Varying batch sizes through the same kernel (executor-style reuse).
        np.testing.assert_array_equal(kernel(acts[:5]), expected[:5])

    def test_executor_lut_plan_without_scipy(
        self, trained_tiny_model, tiny_dataset, rng, monkeypatch
    ):
        """End-to-end LUT inference with scipy absent matches the legacy path."""
        import repro.core.product_kernels as pk

        monkeypatch.setattr(pk, "_sparse", None)
        images = tiny_dataset.test_images[:4]
        calib = tiny_dataset.train_images[:32]
        plan = ExecutionPlan.uniform(LUTProduct(LUTMultiplier(random_lut(rng), name="noscipy")))
        compiled = ApproximateExecutor(trained_tiny_model, calib, use_compiled=True)
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        np.testing.assert_array_equal(
            compiled.forward(images, plan), legacy.forward(images, plan)
        )

    def test_callback_kernel_wraps_product_sums(self, operands):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = PerforatedProduct(2, use_control_variate=True)
        kernel = CallbackKernel(model, weights, cv)
        np.testing.assert_array_equal(
            kernel(acts), model.product_sums(acts, weights, cv)
        )

    def test_wide_activation_codes_stay_exact(self, rng):
        """Non-uint8 codes must bypass the float32 fast path and stay exact.

        Small weights enable the float32 sgemm path (bound holds for 8-bit
        activations); direct callers may pass wider int64 codes, for which
        float32 accumulation would be inexact.
        """
        weights = rng.integers(0, 3, size=(6, 4), dtype=np.uint8)
        acts = rng.integers(0, 1 << 22, size=(9, 6)).astype(np.int64)
        np.testing.assert_array_equal(
            AccurateKernel(weights)(acts), accurate_product_sums(acts, weights)
        )
        np.testing.assert_array_equal(
            PerforatedKernel(weights, 2)(acts),
            perforated_product_sums(acts, weights, 2),
        )

    def test_kernel_shape_validation(self, operands):
        _, weights = operands
        kernel = AccurateKernel(weights)
        with pytest.raises(ValueError):
            kernel(np.zeros((4, weights.shape[0] + 1), dtype=np.uint8))

    def test_compile_dispatch(self, operands):
        _, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        assert isinstance(AccurateProduct().compile(weights, cv), AccurateKernel)
        assert isinstance(PerforatedProduct(2).compile(weights, cv), PerforatedKernel)
        lut_model = LUTProduct(PerforatedMultiplier(1))
        assert isinstance(lut_model.compile(weights, cv), LUTKernel)


#: Taps of the largest MAC layer in the model zoo (VGG's 512-channel 3x3
#: convolutions): the longest sum any LUT error path accumulates.
LARGEST_LAYER_TAPS = 512 * 3 * 3


# ``planes=None`` pins the one-hot form: the all-zero table has a bit-plane
# form (no groups), and these paths are about the one-hot error sums.
def _lut_sums_sparse(weights, lut, acts, monkeypatch):
    kernel = LUTKernel(weights, lut, planes=None)
    assert kernel._error_matrix is not None
    return kernel(acts)


def _lut_sums_gather(weights, lut, acts, monkeypatch):
    import repro.core.product_kernels as pk

    kernel = LUTKernel(weights, lut, planes=None)
    monkeypatch.setattr(pk, "_sparse", None)
    return kernel(acts)


def _lut_sums_lowmem(weights, lut, acts, monkeypatch):
    kernel = LUTKernel(weights, lut, max_error_matrix_bytes=0, planes=None)
    assert kernel._error_matrix is None and kernel._err_table is not None
    return kernel(acts)


def _lut_sums_fused(weights, lut, acts, monkeypatch):
    # Two distinct kernels over one table: two slots of the stacked error
    # matrix, each block's one-hot columns offset into its own slot.
    fused = MultiPlanKernel(
        [LUTKernel(weights, lut, planes=None), LUTKernel(weights, lut, planes=None)]
    )
    assert fused._stacked_error is not None
    stacked = fused.product_sums_multi(np.concatenate([acts[::-1], acts]))
    n = acts.shape[0]
    np.testing.assert_array_equal(stacked[:n], stacked[n:][::-1])
    return stacked[n:]


class TestLUTErrorPaths:
    """Every LUT error path runs in float64 and stays bit-exact at the
    largest layer's taps, including the adversarial all-zero table whose
    errors ``w * a`` reach 255 * 255 on every tap."""

    @pytest.mark.parametrize(
        "path",
        [_lut_sums_sparse, _lut_sums_gather, _lut_sums_lowmem, _lut_sums_fused],
        ids=["sparse", "gather", "lowmem", "fused"],
    )
    @pytest.mark.parametrize("table", ["zero", "random"])
    def test_bit_exact_at_largest_taps(self, rng, monkeypatch, path, table):
        taps = LARGEST_LAYER_TAPS
        weights = rng.integers(0, 256, size=(taps, 4), dtype=np.uint8)
        weights[:, 0] = 255
        weights[:, 1] = 0
        acts = rng.integers(0, 256, size=(6, taps), dtype=np.uint8)
        acts[0] = 255
        acts[1] = 0
        if table == "zero":
            lut = np.zeros((256, 256), dtype=np.int64)
        else:
            lut = random_lut(rng)
        expected = lut_product_sums(acts, weights, lut)
        result = path(weights, lut, acts, monkeypatch)
        assert result.dtype == np.float64
        assert result.tobytes() == expected.astype(np.float64).tobytes()


class TestBackendKernelParity:
    """Every registered backend is bit-exact against the legacy reference.

    Unavailable backends (e.g. numba without the package) are skipped with a
    reason by the ``engine_backend`` fixture, never silently dropped.
    """

    def test_accurate(self, operands, engine_backend):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = engine_backend.compile(AccurateProduct(), weights, cv)
        expected = accurate_product_sums(acts, weights)
        result = kernel(acts)
        assert np.asarray(result).dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("m", [0, 2, 7])
    def test_perforated(self, operands, engine_backend, m):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = engine_backend.compile(
            PerforatedProduct(m, use_control_variate=False), weights, cv
        )
        np.testing.assert_array_equal(
            kernel(acts), perforated_product_sums(acts, weights, m)
        )

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("quantized", [True, False])
    def test_perforated_with_control_variate(self, operands, engine_backend, m, quantized):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights, quantize=quantized)
        kernel = engine_backend.compile(PerforatedProduct(m, True), weights, cv)
        expected = perforated_product_sums(acts, weights, m, cv)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)

    def test_lut_random_table(self, operands, engine_backend, rng):
        acts, weights = operands
        lut = random_lut(rng)
        model = LUTProduct(LUTMultiplier(lut, name="random"))
        kernel = engine_backend.compile(model, weights, None)
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_lut_structured_tables(self, operands, engine_backend):
        acts, weights = operands
        for multiplier in (PerforatedMultiplier(2), TruncatedMultiplier(2, 3)):
            model = LUTProduct(multiplier)
            kernel = engine_backend.compile(model, weights, None)
            np.testing.assert_array_equal(
                kernel(acts), lut_product_sums(acts, weights, multiplier.build_lut())
            )

    def test_exotic_model_compiles_through_any_backend(self, operands, engine_backend):
        """Models without a backend-specialized kernel fall back bit-exact."""
        from repro.baselines.weight_oriented import WeightOrientedProduct

        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = WeightOrientedProduct(1, 3, threshold=128, compensate_mean=True)
        kernel = engine_backend.compile(model, weights, cv)
        np.testing.assert_array_equal(kernel(acts), model.product_sums(acts, weights, cv))

    def test_large_batch_chunking_is_exact(self, rng, engine_backend):
        """Batches larger than any internal chunk size stay bit-exact."""
        acts = rng.integers(0, 256, size=(2600, 12), dtype=np.uint8)
        weights = rng.integers(0, 256, size=(12, 5), dtype=np.uint8)
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = engine_backend.compile(PerforatedProduct(2, True), weights, cv)
        np.testing.assert_array_equal(
            kernel(acts), perforated_product_sums(acts, weights, 2, cv)
        )


class TestWeightOrientedKernelParity:
    @pytest.mark.parametrize("compensate", [True, False])
    @pytest.mark.parametrize("m_low,m_high", [(0, 2), (1, 3)])
    def test_bit_exact(self, operands, compensate, m_low, m_high):
        from repro.baselines.weight_oriented import WeightOrientedProduct

        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = WeightOrientedProduct(m_low, m_high, threshold=128, compensate_mean=compensate)
        expected = model.product_sums(acts, weights, cv)
        kernel = model.compile(weights, cv)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)


class TestExecutorEngineParity:
    """Compiled engine vs. legacy executor path on real (tiny) networks."""

    PLANS = {
        "accurate": lambda: ExecutionPlan.uniform(AccurateProduct()),
        "perforated_cv": lambda: ExecutionPlan.uniform(PerforatedProduct(2, True)),
        "perforated": lambda: ExecutionPlan.uniform(PerforatedProduct(3, False)),
        "lut": lambda: ExecutionPlan.uniform(LUTProduct(TruncatedMultiplier(1, 2))),
    }

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_forward_bit_exact(
        self, trained_tiny_model, tiny_dataset, plan_name, engine_backend
    ):
        images = tiny_dataset.test_images[:8]
        calib = tiny_dataset.train_images[:32]
        compiled = ApproximateExecutor(
            trained_tiny_model, calib, use_compiled=True, engine_backend=engine_backend
        )
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        plan = self.PLANS[plan_name]()
        np.testing.assert_array_equal(
            compiled.forward(images, plan), legacy.forward(images, plan)
        )

    def test_grouped_conv_bit_exact(self, tiny_dataset, rng, engine_backend):
        from repro.models.zoo import build_model

        model = build_model("shufflenet", num_classes=tiny_dataset.num_classes, rng=rng)
        calib = tiny_dataset.train_images[:32]
        images = tiny_dataset.test_images[:4]
        compiled = ApproximateExecutor(
            model, calib, use_compiled=True, engine_backend=engine_backend
        )
        legacy = ApproximateExecutor(model, calib, use_compiled=False)
        for plan in (
            ExecutionPlan.uniform(PerforatedProduct(2, True)),
            ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(2))),
        ):
            np.testing.assert_array_equal(
                compiled.forward(images, plan), legacy.forward(images, plan)
            )

    def test_accurate_lut_cross_check(self, trained_tiny_model, tiny_dataset):
        """LUT of the exact multiplier == exact matmul through the full model."""
        images = tiny_dataset.test_images[:8]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        via_lut = executor.forward(
            images, ExecutionPlan.uniform(LUTProduct(AccurateMultiplier()))
        )
        via_matmul = executor.forward(images, ExecutionPlan.uniform(AccurateProduct()))
        np.testing.assert_array_equal(via_lut, via_matmul)

    def test_imported_lut_multiplier_bit_exact(self, trained_tiny_model, tiny_dataset, rng):
        """Externally characterized (LUTMultiplier) tables run compiled."""
        images = tiny_dataset.test_images[:4]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        imported = LUTMultiplier(random_lut(rng), name="imported")
        plan = ExecutionPlan.uniform(LUTProduct(imported))
        np.testing.assert_array_equal(
            executor.forward(images, plan), legacy.forward(images, plan)
        )

    def test_weight_override_invalidates_kernels(self, trained_tiny_model, tiny_dataset):
        """Compiled kernels must track inference-time weight overrides."""
        calib = tiny_dataset.train_images[:32]
        images = tiny_dataset.test_images[:4]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        plan = ExecutionPlan.uniform(AccurateProduct())
        reference = executor.forward(images, plan)
        layer = executor.mac_layer_names()[0]
        zeroed = [np.zeros_like(codes) for codes in executor.quantized_weights(layer)]
        executor.set_weight_override(layer, zeroed)
        overridden = executor.forward(images, plan)
        executor.clear_weight_overrides()
        restored = executor.forward(images, plan)
        assert not np.array_equal(overridden, reference)
        np.testing.assert_array_equal(restored, reference)

    def test_cross_plan_activation_cache(self, trained_tiny_model, tiny_dataset):
        """The first MAC layer's quantized activations are computed once per
        batch and reused across plans — bit-exactly."""
        images = tiny_dataset.test_images[:8]
        calib = tiny_dataset.train_images[:32]
        cached = ApproximateExecutor(trained_tiny_model, calib)
        uncached = ApproximateExecutor(
            trained_tiny_model, calib, reuse_plan_invariant_acts=False
        )
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(2, True)),
            ExecutionPlan.uniform(PerforatedProduct(3, False)),
        ]
        for plan in plans:
            np.testing.assert_array_equal(
                cached.forward(images, plan), uncached.forward(images, plan)
            )
        assert cached.act_cache_misses == 1
        assert cached.act_cache_hits == len(plans) - 1
        assert uncached.act_cache_hits == 0 and uncached.act_cache_misses == 0
        # A different batch (same shape, different window) must re-quantize.
        cached.forward(tiny_dataset.test_images[8:16], plans[0])
        assert cached.act_cache_misses == 2

    def test_cross_plan_cache_across_batched_eval(self, trained_tiny_model, tiny_dataset):
        """Batched multi-plan evaluation quantizes each batch once: the LRU
        holds every batch of the eval set, so the second plan is all hits."""
        images = tiny_dataset.test_images[:12]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        reference = ApproximateExecutor(
            trained_tiny_model, calib, reuse_plan_invariant_acts=False
        )
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(2, True)),
        ]
        for plan in plans:
            np.testing.assert_array_equal(
                executor.logits(images, plan, batch_size=4),
                reference.logits(images, plan, batch_size=4),
            )
        assert executor.act_cache_misses == 3  # three batches, quantized once
        assert executor.act_cache_hits == 3  # all reused by the second plan

    def test_cross_plan_cache_with_distinct_live_batches(
        self, trained_tiny_model, tiny_dataset
    ):
        """Two independently allocated same-shape batches, both alive: the
        identity tokens must compare by referent identity (never ndarray
        ``==``) and each batch must be re-quantized."""
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        plan = ExecutionPlan.uniform(AccurateProduct())
        a = tiny_dataset.test_images[:4].copy()
        b = tiny_dataset.test_images[:4].copy()
        out_a = executor.forward(a, plan)
        out_b = executor.forward(b, plan)
        assert executor.act_cache_misses == 2 and executor.act_cache_hits == 0
        # Same batch again under another plan: now a genuine hit.
        np.testing.assert_array_equal(out_b, executor.forward(b, plan))
        assert executor.act_cache_hits == 1
        np.testing.assert_array_equal(
            out_a, ApproximateExecutor(trained_tiny_model, calib).forward(a, plan)
        )

    def test_batched_logits_match_single_batch(self, trained_tiny_model, tiny_dataset):
        """Persistent activation buffers must not leak state across batches."""
        images = tiny_dataset.test_images[:10]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        plan = ExecutionPlan.uniform(PerforatedProduct(2, True))
        whole = executor.logits(images, plan, batch_size=10)
        batched = executor.logits(images, plan, batch_size=3)
        np.testing.assert_array_equal(whole, batched)
