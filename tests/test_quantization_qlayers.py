"""Tests of the quantized linear-operation core."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.quantization.qlayers import QuantizedLinearOp
from repro.quantization.quantize import calibrate_minmax, quantize
from repro.quantization.schemes import QuantParams


def _make_op(rng, taps=20, filters=6, with_bias=True):
    weights = rng.normal(0, 0.4, size=(taps, filters))
    w_params = calibrate_minmax(weights)
    bias = rng.normal(size=filters) if with_bias else None
    op = QuantizedLinearOp(quantize(weights, w_params), w_params, bias)
    return op, weights, bias


class TestValidation:
    def test_weight_codes_must_be_uint8(self):
        with pytest.raises(TypeError):
            QuantizedLinearOp(np.zeros((4, 2), dtype=np.int64), QuantParams(1.0, 0))

    def test_weight_codes_must_be_2d(self):
        with pytest.raises(ValueError):
            QuantizedLinearOp(np.zeros(4, dtype=np.uint8), QuantParams(1.0, 0))

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError):
            QuantizedLinearOp(
                np.zeros((4, 2), dtype=np.uint8), QuantParams(1.0, 0), bias=np.zeros(3)
            )

    def test_activation_shape_checked(self, rng):
        op, _, _ = _make_op(rng)
        with pytest.raises(ValueError):
            op.exact_product_sum(np.zeros((3, 5), dtype=np.uint8))

    def test_activation_dtype_checked(self, rng):
        op, _, _ = _make_op(rng)
        with pytest.raises(TypeError):
            op.exact_product_sum(np.zeros((3, op.taps), dtype=np.int32))

    def test_product_sum_shape_checked(self, rng):
        op, _, _ = _make_op(rng)
        acts = np.zeros((3, op.taps), dtype=np.uint8)
        params = QuantParams(1.0, 0)
        with pytest.raises(ValueError):
            op.output_real(acts, params, product_sum=np.zeros((3, op.filters + 1)))


class TestDequantizedOutput:
    def test_matches_float_matmul(self, rng):
        op, weights, bias = _make_op(rng)
        acts = rng.uniform(0, 1, size=(15, weights.shape[0]))
        a_params = calibrate_minmax(acts)
        act_codes = quantize(acts, a_params)
        out = op.output_real(act_codes, a_params)
        reference = acts @ weights + bias
        # Quantization error only: bounded by the quantization steps.
        tolerance = (
            weights.shape[0]
            * (op.weight_params.scale + a_params.scale)
            * max(np.abs(acts).max(), np.abs(weights).max())
        )
        assert np.abs(out - reference).max() < tolerance

    def test_without_bias(self, rng):
        op, weights, _ = _make_op(rng, with_bias=False)
        acts = rng.uniform(0, 1, size=(7, weights.shape[0]))
        a_params = calibrate_minmax(acts)
        out = op.output_real(quantize(acts, a_params), a_params)
        assert np.abs(out - acts @ weights).max() < 0.5

    def test_custom_product_sum_shifts_output(self, rng):
        op, weights, bias = _make_op(rng)
        acts = rng.uniform(0, 1, size=(5, weights.shape[0]))
        a_params = calibrate_minmax(acts)
        act_codes = quantize(acts, a_params)
        exact = op.exact_product_sum(act_codes)
        shifted = op.output_real(act_codes, a_params, product_sum=exact + 10)
        base = op.output_real(act_codes, a_params, product_sum=exact)
        expected_delta = 10 * op.weight_params.scale * a_params.scale
        assert np.allclose(shifted - base, expected_delta)

    def test_exact_product_sum_is_integer_matmul(self, rng):
        op, _, _ = _make_op(rng, taps=9, filters=3)
        act_codes = rng.integers(0, 256, size=(4, 9)).astype(np.uint8)
        expected = act_codes.astype(np.int64) @ op.weight_codes.astype(np.int64)
        assert np.array_equal(op.exact_product_sum(act_codes), expected)


def _reference_output_real(op, act, act_params, product_sum):
    """The dequantization chain as a fresh-temporary expression (the
    epilogue before it ran in place), kept verbatim as the oracle."""
    product_sum = np.asarray(product_sum, dtype=np.float64)
    act_sums = act.astype(np.int64).sum(axis=1, keepdims=True).astype(np.float64)
    z_w = float(op.weight_params.zero_point)
    z_a = float(act_params.zero_point)
    corrected = (
        product_sum
        - z_w * act_sums
        - z_a * op._weight_code_sums.astype(np.float64)[None, :]
        + float(op.taps) * z_w * z_a
    )
    scale = op.weight_params.scale * act_params.scale
    return scale * corrected + op.bias[None, :]


_zero_points = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))
_scales = st.floats(1e-4, 10.0, allow_nan=False, allow_infinity=False)


class TestInPlaceEpilogue:
    """The shared in-place epilogue is bit-identical to the oracle chain."""

    @settings(max_examples=60, deadline=None)
    @given(
        taps=st.sampled_from([1, 2, 9, 27, 576, 4608]),
        filters=st.integers(1, 5),
        patches=st.integers(0, 6),
        plans=st.integers(1, 4),
        z_w=_zero_points,
        z_a=_zero_points,
        w_scale=_scales,
        a_scale=_scales,
        codes=st.sampled_from(["random", "all255", "all0"]),
        sums_kind=st.sampled_from(["exact", "int64", "float", "small_float"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Pinned extremes: the largest possible sum under both zero-point
    # extremes, and non-integer sums through the stacked entry.
    @example(4608, 3, 4, 3, 255, 255, 0.02, 0.7, "all255", "exact", 0)
    @example(4608, 3, 4, 2, 0, 0, 0.02, 0.7, "all255", "exact", 0)
    @example(4608, 2, 5, 3, 255, 0, 3e-3, 0.05, "random", "float", 1)
    @example(4608, 2, 5, 2, 0, 255, 3e-3, 0.05, "all0", "int64", 2)
    @example(4608, 4, 6, 3, 255, 255, 3e-3, 0.05, "all255", "small_float", 3)
    def test_bit_identical_to_oracle(
        self, taps, filters, patches, plans, z_w, z_a, w_scale, a_scale,
        codes, sums_kind, seed,
    ):
        rng = np.random.default_rng(seed)
        if codes == "random":
            weight_codes = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
            act = rng.integers(0, 256, size=(patches, taps), dtype=np.uint8)
        else:
            fill = 255 if codes == "all255" else 0
            weight_codes = np.full((taps, filters), fill, dtype=np.uint8)
            act = np.full((patches, taps), fill, dtype=np.uint8)
        op = QuantizedLinearOp(
            weight_codes, QuantParams(w_scale, z_w), rng.normal(size=filters)
        )
        act_params = QuantParams(a_scale, z_a)
        exact = act.astype(np.int64) @ weight_codes.astype(np.int64)
        if sums_kind == "exact":
            # The largest sums: all-255 codes give taps * 255 * 255.
            sums = np.concatenate([exact] * plans)
        elif sums_kind == "int64":
            sums = rng.integers(0, 255 * 255 * taps + 1, size=(plans * patches, filters))
        elif sums_kind == "float":
            # Unquantized control-variate sums are not integers.
            sums = np.concatenate([exact] * plans) + rng.normal(
                scale=1000.0, size=(plans * patches, filters)
            )
        else:
            # Fractions far below the corrections' magnitude: every step of
            # the chain rounds, so any reordering or folding of the
            # corrections changes bits.
            shape = (plans * patches, filters)
            sums = rng.uniform(-1, 1, size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
        expected = np.concatenate(
            [
                _reference_output_real(
                    op, act, act_params, sums[p * patches : (p + 1) * patches]
                )
                for p in range(plans)
            ]
        )
        before = sums.copy()

        stacked = op.output_real_stacked(act, act_params, sums, plans)
        assert stacked.dtype == np.float64
        assert stacked.tobytes() == expected.tobytes()
        if plans == 1:
            assert op.output_real(act, act_params, sums).tobytes() == expected.tobytes()
            if sums_kind == "exact":
                assert op.output_real(act, act_params).tobytes() == expected.tobytes()
        # The public entries never touch the caller's array.
        assert sums.tobytes() == before.tobytes()

        owned = sums.astype(np.float64)
        result = op.output_real_stacked(
            act, act_params, owned, plans, overwrite_product_sum=True
        )
        assert result.tobytes() == expected.tobytes()
        assert result is owned

    def test_output_real_never_mutates_caller_sums(self, rng):
        op, _, _ = _make_op(rng, taps=12, filters=4)
        act = rng.integers(0, 256, size=(5, 12), dtype=np.uint8)
        act_params = QuantParams(0.03, 17)
        sums = rng.normal(scale=1e4, size=(5, 4))
        before = sums.copy()
        out = op.output_real(act, act_params, product_sum=sums)
        assert not np.shares_memory(out, sums)
        assert sums.tobytes() == before.tobytes()
        # Owned, but not float64 or not contiguous: converted, never mutated.
        strided = np.tile(sums, (1, 2))[:, ::2]
        for foreign in (sums.astype(np.float32), strided):
            kept = foreign.copy()
            op.output_real(act, act_params, product_sum=foreign, overwrite_product_sum=True)
            assert foreign.tobytes() == kept.tobytes()
        owned = sums.copy()
        out = op.output_real(act, act_params, product_sum=owned, overwrite_product_sum=True)
        assert out is owned
