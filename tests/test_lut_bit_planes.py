"""Property tests of the bit-plane LUT kernel.

Partial-product tables — bit-drop ("evolved"), truncated and
constant-compensated multipliers — compile to ``k`` dense products plus a
per-filter constant instead of the one-hot error product.  The invariant is
the one every kernel keeps: the float64 sums equal
:func:`repro.core.approx_conv.lut_product_sums` value for value, on every
backend, and executor logits do not move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_conv import lut_product_sums
from repro.core.backends import get_backend
from repro.core.product_kernels import (
    _F32_EXACT_BOUND,
    ChunkedKernel,
    LUTKernel,
    bit_planes,
)
from repro.multipliers.base import OPERAND_BITS
from repro.multipliers.library import MultiplierLibrary, _evolved_multiplier
from repro.multipliers.lut import LUTMultiplier
from repro.simulation.inference import ApproximateExecutor, ExecutionPlan, LUTProduct

pytestmark = pytest.mark.engine

PAIRS = [(i, j) for i in range(OPERAND_BITS) for j in range(OPERAND_BITS)]


def partial_product_table(dropped, weight_bits: int, act_bits: int, offset: int):
    """``sum w_i a_j 2^(i+j)`` over the kept partial-product bits, with the
    low ``weight_bits``/``act_bits`` operand bits truncated, plus ``offset``."""
    w = np.arange(256, dtype=np.int64)[:, None] & ~((1 << weight_bits) - 1)
    a = np.arange(256, dtype=np.int64)[None, :] & ~((1 << act_bits) - 1)
    lut = w * a + offset
    for i, j in dropped:
        lut -= ((w >> i) & 1) * ((a >> j) & 1) << (i + j)
    return lut


tables = st.builds(
    partial_product_table,
    dropped=st.sets(st.sampled_from(PAIRS), max_size=16),
    weight_bits=st.integers(0, 3),
    act_bits=st.integers(0, 3),
    offset=st.integers(-2000, 2000),
)


def operands(seed: int, taps: int, filters: int, patches: int):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
    acts = rng.integers(0, 256, size=(patches, taps), dtype=np.uint8)
    acts[0] = 255  # the largest activation on every tap
    return weights, acts


def assert_matches_reference(result, acts, weights, lut):
    expected = lut_product_sums(acts, weights, lut)
    assert result.dtype == np.float64
    np.testing.assert_array_equal(result, expected)


class TestBitPlaneKernel:
    @given(
        lut=tables,
        seed=st.integers(0, 2**32 - 1),
        # 700 taps of random 8-bit weights push 255 * sum_j |H[w_j]| past
        # 2^24, so those draws exercise the float64 group operand.
        taps=st.one_of(st.integers(1, 24), st.just(700)),
        filters=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_partial_product_tables_match_reference(self, lut, seed, taps, filters):
        weights, acts = operands(seed, taps, filters, patches=4)
        planes = bit_planes(lut)
        assert planes is not None and planes.groups <= OPERAND_BITS
        kernel = LUTKernel(weights, lut)
        assert kernel.is_bit_plane and kernel._error_matrix is None
        for (mask, op), slope in zip(kernel._planes, planes.slopes):
            bound = 255 * int(np.abs(slope[weights]).sum(axis=0).max())
            assert (op._f32 is not None) == (bound < _F32_EXACT_BOUND)
        assert_matches_reference(kernel(acts), acts, weights, lut)
        # Wider-than-uint8 codes take every group's float64 operand.
        assert_matches_reference(
            kernel(acts.astype(np.int64)), acts, weights, lut
        )

    def test_large_taps_use_the_float64_operand(self):
        lut = partial_product_table({(7, 7)}, 0, 2, offset=-17)
        weights, acts = operands(5, 700, 3, patches=3)
        weights[:, 0] = 255
        kernel = LUTKernel(weights, lut)
        assert any(op._f32 is None for _, op in kernel._planes)
        assert_matches_reference(kernel(acts), acts, weights, lut)

    @given(library_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_evolved_multipliers_match_reference(self, library_seed, seed):
        multiplier = _evolved_multiplier(np.random.default_rng(library_seed), 0)
        lut = multiplier.build_lut()
        weights, acts = operands(seed, 30, 4, patches=5)
        kernel = LUTProduct(multiplier).compile(weights, None)
        assert kernel.is_bit_plane
        assert_matches_reference(kernel(acts), acts, weights, lut)

    @given(
        lut=tables,
        seed=st.integers(0, 2**32 - 1),
        w=st.integers(0, 255),
        a=st.integers(0, 255),
        delta=st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_structureless_tables_take_the_one_hot_path(self, lut, seed, w, a, delta):
        lut = lut.copy()
        lut[w, a] += delta
        assert bit_planes(lut) is None
        weights, acts = operands(seed, 12, 3, patches=4)
        kernel = LUTKernel(weights, lut)
        assert not kernel.is_bit_plane and kernel._error_matrix is not None
        assert_matches_reference(kernel(acts), acts, weights, lut)

    @given(lut=tables, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lowmem_backend_and_chunked_kernel_agree(self, lut, seed):
        weights, acts = operands(seed, 20, 3, patches=23)
        model = LUTProduct(LUTMultiplier(lut, name="drawn"))
        lowmem = get_backend("lowmem").compile(model, weights, None)
        assert isinstance(lowmem, ChunkedKernel) and lowmem.base.is_bit_plane
        numpy_sums = get_backend("numpy").compile(model, weights, None)(acts)
        chunked = ChunkedKernel(LUTKernel(weights, lut), chunk_patches=5)(acts)
        for result in (lowmem(acts), numpy_sums, chunked):
            assert_matches_reference(result, acts, weights, lut)


class TestExecutorLogits:
    @pytest.mark.parametrize(
        "name", ["truncated_w2a3", "evolved_0", "compensated[truncated_w0a2]"]
    )
    def test_compiled_logits_byte_identical_to_legacy(
        self, trained_tiny_model, tiny_dataset, name
    ):
        multiplier = MultiplierLibrary.synthetic_evoapprox()[name].multiplier
        plan = ExecutionPlan.uniform(LUTProduct(multiplier))
        assert plan.default.bit_planes is not None
        images = tiny_dataset.test_images[:6]
        calib = tiny_dataset.train_images[:32]
        compiled = ApproximateExecutor(trained_tiny_model, calib, use_compiled=True)
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        assert (
            compiled.forward(images, plan).tobytes()
            == legacy.forward(images, plan).tobytes()
        )
