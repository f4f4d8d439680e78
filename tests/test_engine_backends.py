"""Engine-backend registry semantics and exactness-boundary property tests.

Complements the parity suite in ``test_engine_kernels.py``: this file pins
the *registry* contract (selection, availability, clean fallback, config /
CLI threading) and the numeric exactness boundaries of the float-BLAS
machinery (``_WeightOperand``'s float64 products and f32/f64 promotion)
with randomized property tests.
"""

import numpy as np
import pytest

from repro.core.accelerator_model import AcceleratorConfig
from repro.core.approx_conv import accurate_product_sums, lut_product_sums
from repro.core.backends import (
    DEFAULT_BACKEND,
    BackendUnavailableError,
    EngineBackend,
    LowMemoryBackend,
    NumpyBackend,
    available_backend_names,
    backend_names,
    get_backend,
    has_backend,
    register_backend,
    resolve_backend,
)
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    ChunkedKernel,
    KernelOptions,
    LUTKernel,
    PerforatedKernel,
    _F32_EXACT_BOUND,
    _WeightOperand,
)
from repro.simulation.inference import (
    ApproximateExecutor,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        for expected in ("numpy", "numba", "lowmem"):
            assert expected in names
        assert DEFAULT_BACKEND == "numpy"
        assert has_backend("numpy") and not has_backend("gpu")

    def test_numpy_backend_always_available(self):
        assert "numpy" in available_backend_names()
        assert get_backend("numpy").availability() == (True, "")

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(KeyError, match="numpy"):
            get_backend("does-not-exist")

    def test_register_rejects_duplicates_and_anonymous(self):
        with pytest.raises(ValueError):
            register_backend(NumpyBackend())

        class Anonymous(NumpyBackend):
            name = "abstract"

        with pytest.raises(ValueError):
            register_backend(Anonymous())

    def test_resolve_backend_identity_and_default(self):
        assert resolve_backend(None).name == DEFAULT_BACKEND
        backend = get_backend("lowmem")
        assert resolve_backend(backend) is backend
        assert resolve_backend("lowmem") is backend

    def test_unavailable_backend_falls_back_with_warning(self):
        """The 'falls back cleanly' contract, exercised through a stub so it
        holds regardless of whether numba is installed."""

        class Unavailable(EngineBackend):
            name = "stub-unavailable"

            def availability(self):
                return False, "stubbed out"

            def compile(self, product_model, weight_codes, control_variate):
                raise AssertionError("must never compile")

        stub = Unavailable()
        with pytest.warns(RuntimeWarning, match="stubbed out"):
            resolved = resolve_backend(stub)
        assert resolved.name == DEFAULT_BACKEND
        with pytest.raises(BackendUnavailableError, match="stubbed out"):
            resolve_backend(stub, allow_fallback=False)

    def test_numba_backend_honest_about_availability(self):
        backend = get_backend("numba")
        available, reason = backend.availability()
        try:
            import numba  # noqa: F401

            assert available
        except ImportError:
            assert not available and "numba" in reason
            with pytest.raises(BackendUnavailableError):
                backend._require_available()

    def test_accelerator_config_validates_backend(self):
        assert AcceleratorConfig().engine_backend == "numpy"
        assert AcceleratorConfig(engine_backend="lowmem").engine_backend == "lowmem"
        with pytest.raises(ValueError, match="engine backend"):
            AcceleratorConfig(engine_backend="not-a-backend")

    def test_executor_from_config_honors_backend(self, trained_tiny_model, tiny_dataset):
        config = AcceleratorConfig(perforation=2, engine_backend="lowmem")
        executor = ApproximateExecutor.from_config(
            trained_tiny_model, tiny_dataset.train_images[:32], config
        )
        assert executor.engine_backend.name == "lowmem"

    def test_executor_falls_back_for_unavailable_backend(
        self, trained_tiny_model, tiny_dataset
    ):
        if "numba" in available_backend_names():
            pytest.skip("numba installed: no unavailable builtin backend to test")
        calib = tiny_dataset.train_images[:32]
        with pytest.warns(RuntimeWarning, match="falling back"):
            executor = ApproximateExecutor(trained_tiny_model, calib, engine_backend="numba")
        assert executor.engine_backend.name == DEFAULT_BACKEND


class TestNumbaBackendWithStubJit:
    """Validate the numba kernel bodies without numba installed.

    The kernels are plain-python loop nests that only gain speed from
    ``numba.njit``; substituting an identity decorator runs the exact same
    code paths the JIT would compile, pinning the algorithm (and the
    backend's dispatch / fallback wiring) bit-exact on any machine.
    """

    @pytest.fixture
    def stub_backend(self, monkeypatch):
        import repro.core.backends as backends_mod

        class _StubNumba:
            @staticmethod
            def njit(*args, **kwargs):
                return lambda fn: fn

        monkeypatch.setattr(backends_mod, "_numba", _StubNumba())
        backend = backends_mod.NumbaBackend()
        assert backend.availability() == (True, "")
        return backend

    @pytest.fixture
    def small_operands(self, rng):
        # Small on purpose: the stubbed kernels run as pure-python loops.
        acts = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        weights = rng.integers(0, 256, size=(7, 4), dtype=np.uint8)
        return acts, weights

    def test_accurate_bit_exact(self, stub_backend, small_operands):
        from repro.simulation.inference import AccurateProduct

        acts, weights = small_operands
        kernel = stub_backend.compile(AccurateProduct(), weights, None)
        np.testing.assert_array_equal(kernel(acts), accurate_product_sums(acts, weights))

    @pytest.mark.parametrize("m", [0, 2, 7])
    @pytest.mark.parametrize("use_cv", [True, False])
    def test_perforated_bit_exact(self, stub_backend, small_operands, m, use_cv):
        from repro.core.approx_conv import perforated_product_sums

        acts, weights = small_operands
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = stub_backend.compile(PerforatedProduct(m, use_cv), weights, cv)
        expected = perforated_product_sums(acts, weights, m, cv if use_cv else None)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)

    def test_lut_bit_exact(self, stub_backend, small_operands, rng):
        from repro.multipliers.lut import LUTMultiplier

        acts, weights = small_operands
        lut = np.arange(256, dtype=np.int64)[:, None] * np.arange(256, dtype=np.int64)
        lut = lut + rng.integers(-300, 300, size=(256, 256))
        kernel = stub_backend.compile(
            LUTProduct(LUTMultiplier(lut, name="stub")), weights, None
        )
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_exotic_model_falls_back_to_own_kernel(self, stub_backend, small_operands):
        from repro.baselines.weight_oriented import WeightOrientedProduct

        acts, weights = small_operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = WeightOrientedProduct(1, 3, threshold=128)
        kernel = stub_backend.compile(model, weights, cv)
        np.testing.assert_array_equal(
            kernel(acts), model.product_sums(acts, weights, cv)
        )

    def test_validation_errors_propagate_without_disabling_backend(
        self, stub_backend, small_operands
    ):
        """A bad compile input raises like any backend — it must not be
        misdiagnosed as a broken JIT and permanently disable numba."""
        acts, weights = small_operands
        bad_cv = ControlVariate(np.zeros(weights.shape[1] + 1))
        with pytest.raises(ValueError, match="filters"):
            stub_backend.compile(PerforatedProduct(1, True), weights, bad_cv)
        assert stub_backend.availability() == (True, "")
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = stub_backend.compile(PerforatedProduct(1, True), weights, cv)
        from repro.core.approx_conv import perforated_product_sums

        np.testing.assert_array_equal(
            kernel(acts), perforated_product_sums(acts, weights, 1, cv)
        )

    def test_broken_jit_disables_backend_with_warning(self, monkeypatch, small_operands):
        """A numba install whose JIT blows up must not take the run down."""
        import repro.core.backends as backends_mod
        from repro.simulation.inference import AccurateProduct

        class _BrokenNumba:
            @staticmethod
            def njit(*args, **kwargs):
                raise RuntimeError("llvmlite ABI mismatch")

        monkeypatch.setattr(backends_mod, "_numba", _BrokenNumba())
        backend = backends_mod.NumbaBackend()
        acts, weights = small_operands
        with pytest.warns(RuntimeWarning, match="falling back"):
            kernel = backend.compile(AccurateProduct(), weights, None)
        np.testing.assert_array_equal(kernel(acts), accurate_product_sums(acts, weights))
        available, reason = backend.availability()
        assert not available and "ABI mismatch" in reason


def _structureless_lut(rng) -> np.ndarray:
    """A table without a bit-plane form: it compiles to the one-hot kernel."""
    exact = np.arange(256)[:, None] * np.arange(256)[None, :]
    return exact + rng.integers(-50, 50, size=(256, 256))


class TestLowMemoryBackend:
    def test_caps_lut_error_matrix_and_chunks(self, rng):
        acts = rng.integers(0, 256, size=(50, 16), dtype=np.uint8)
        weights = rng.integers(0, 256, size=(16, 6), dtype=np.uint8)
        lut = _structureless_lut(rng)
        backend = LowMemoryBackend(max_error_matrix_bytes=0, chunk_patches=7)
        from repro.multipliers.lut import LUTMultiplier

        kernel = backend.compile(LUTProduct(LUTMultiplier(lut, name="t")), weights, None)
        assert isinstance(kernel, ChunkedKernel) and kernel.chunk_patches == 7
        assert isinstance(kernel.base, LUTKernel)
        # The cap forced the streaming per-tap mode: no error matrix built.
        assert kernel.base._error_matrix is None and not kernel.base.is_exact
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_validation(self):
        with pytest.raises(ValueError):
            LowMemoryBackend(max_error_matrix_bytes=-1)
        with pytest.raises(ValueError):
            LowMemoryBackend(chunk_patches=0)

    def test_chunked_kernel_preserves_float_dtype(self, rng):
        """Chunk concatenation must not disturb the unquantized-CV float path."""
        acts = rng.integers(0, 256, size=(23, 9), dtype=np.uint8)
        weights = rng.integers(0, 256, size=(9, 4), dtype=np.uint8)
        cv = ControlVariate.from_weight_matrix(weights, quantize=False)
        chunked = ChunkedKernel(PerforatedKernel(weights, 2, cv), chunk_patches=5)
        reference = PerforatedKernel(weights, 2, cv)(acts)
        result = chunked(acts)
        assert np.asarray(result).dtype == np.asarray(reference).dtype == np.float64
        np.testing.assert_array_equal(result, reference)

    def test_kernel_options_reach_lut_compile(self, rng):
        weights = rng.integers(0, 256, size=(8, 3), dtype=np.uint8)
        from repro.multipliers.lut import LUTMultiplier

        model = LUTProduct(LUTMultiplier(_structureless_lut(rng), name="t"))
        assert model.bit_planes is None
        capped = model.compile(weights, None, options=KernelOptions(max_error_matrix_bytes=0))
        uncapped = model.compile(weights, None)
        assert capped._error_matrix is None
        assert uncapped._error_matrix is not None

    def test_bit_linear_lut_builds_no_error_matrix_under_either_cap(self, rng):
        weights = rng.integers(0, 256, size=(8, 3), dtype=np.uint8)
        acts = rng.integers(0, 256, size=(11, 8), dtype=np.uint8)
        from repro.multipliers.lut import LUTMultiplier

        lut = np.arange(256)[:, None] * np.arange(256)[None, :] + 2
        model = LUTProduct(LUTMultiplier(lut, name="t"))
        assert model.bit_planes is not None
        for options in (KernelOptions(max_error_matrix_bytes=0), KernelOptions()):
            kernel = model.compile(weights, None, options=options)
            assert kernel.is_bit_plane and kernel._error_matrix is None
            np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))


class TestExactnessBoundaries:
    """Randomized property tests of the float-BLAS exactness machinery."""

    def test_weight_operand_wide_integers_randomized(self, rng):
        """Wide integer operands take the float64 path, exact in both dtypes."""
        for _ in range(20):
            patches = int(rng.integers(1, 40))
            taps = int(rng.integers(1, 60))
            filters = int(rng.integers(1, 20))
            # Bound values so every partial sum stays far below 2^53.
            lhs = rng.integers(0, 1 << 22, size=(patches, taps))
            rhs = rng.integers(0, 1 << 22, size=(taps, filters))
            expected = lhs @ rhs  # exact int64 reference
            op = _WeightOperand(rhs)
            assert op._f32 is None
            for dtype in (np.int64, np.float64):
                result = op.matmul(lhs, dtype=dtype)
                assert result.dtype == dtype
                np.testing.assert_array_equal(result, expected)

    @staticmethod
    def _column_with_sum(total: int) -> np.ndarray:
        """A column of 8-bit codes summing exactly to ``total``."""
        full, rem = divmod(total, 255)
        col = [255] * full + ([rem] if rem else [])
        return np.array(col, dtype=np.int64)

    def test_f32_promotion_boundary_exact_on_both_sides(self, rng):
        """255 * max_col_sum straddling 2^24: f32 allowed below, denied at/above."""
        threshold = _F32_EXACT_BOUND // 255  # last column sum with 255*s < 2^24
        assert 255 * threshold < _F32_EXACT_BOUND <= 255 * (threshold + 1)
        for col_sum, expect_f32 in ((threshold, True), (threshold + 1, False)):
            col = self._column_with_sum(col_sum)
            weights = np.concatenate(
                [col[:, None], np.zeros((col.shape[0], 1), dtype=np.int64)], axis=1
            )
            op = _WeightOperand(weights)
            assert (op._f32 is not None) == expect_f32
            # All-255 activations hit the boundary product sum exactly.
            acts = np.full((3, weights.shape[0]), 255, dtype=np.uint8)
            expected = acts.astype(np.int64) @ weights
            assert expected.max() == 255 * col_sum
            np.testing.assert_array_equal(op.matmul(acts), expected)

    def test_randomized_weight_operand_parity(self, rng):
        """Any uint8 operand mix: _WeightOperand == int64 matmul, both paths."""
        for _ in range(20):
            taps = int(rng.integers(1, 50))
            filters = int(rng.integers(1, 12))
            weights = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
            acts = rng.integers(0, 256, size=(int(rng.integers(1, 30)), taps), dtype=np.uint8)
            op = _WeightOperand(weights.astype(np.int64))
            np.testing.assert_array_equal(
                op.matmul(acts), acts.astype(np.int64) @ weights.astype(np.int64)
            )

    def test_empty_weights(self):
        for shape in ((0, 4), (5, 0), (0, 0)):
            weights = np.zeros(shape, dtype=np.int64)
            op = _WeightOperand(weights)
            # Empty weights trivially satisfy the f32 bound.
            assert op._f32 is not None
            acts = np.zeros((3, shape[0]), dtype=np.uint8)
            result = op.matmul(acts)
            assert result.shape == (3, shape[1])
            np.testing.assert_array_equal(result, np.zeros((3, shape[1]), dtype=np.int64))

    def test_signed_weights_disable_f32_but_stay_exact(self, rng):
        weights = rng.integers(-4, 4, size=(6, 3))
        weights[0, 0] = -1  # force at least one negative entry
        op = _WeightOperand(weights.astype(np.int64))
        assert op._f32 is None
        acts = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        np.testing.assert_array_equal(op.matmul(acts), acts.astype(np.int64) @ weights)

    def test_out_of_range_weights_disable_f32_but_stay_exact(self, rng):
        weights = rng.integers(0, 2, size=(6, 3)).astype(np.int64)
        weights[0, 0] = 300  # beyond 8-bit codes: f32 bound argument is void
        op = _WeightOperand(weights)
        assert op._f32 is None
        acts = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        np.testing.assert_array_equal(op.matmul(acts), acts.astype(np.int64) @ weights)

    def test_wide_activations_bypass_f32_path(self, rng):
        """Non-uint8 activations must never take the f32 shortcut, even when
        the weight-side bound holds."""
        weights = rng.integers(0, 3, size=(5, 2)).astype(np.int64)
        op = _WeightOperand(weights)
        assert op._f32 is not None  # tiny column sums: f32 allowed for uint8
        acts = rng.integers(0, 1 << 24, size=(7, 5)).astype(np.int64)
        np.testing.assert_array_equal(op.matmul(acts), acts @ weights)

    def test_accurate_product_cross_check(self, rng):
        """End cross-check: the boundary machinery agrees with the reference."""
        weights = rng.integers(0, 256, size=(11, 4), dtype=np.uint8)
        acts = rng.integers(0, 256, size=(13, 11), dtype=np.uint8)
        np.testing.assert_array_equal(
            _WeightOperand(weights.astype(np.int64)).matmul(acts),
            accurate_product_sums(acts, weights),
        )
