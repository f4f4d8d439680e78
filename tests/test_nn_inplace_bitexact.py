"""Bit-exactness of the copy-free forward-pass primitives.

Pins the three rewrites the executor's forward pass relies on to their
previous formulations, byte for byte:

* :func:`repro.nn.im2col.im2col` (one copy of a strided window view)
  against the fancy-index gather ``x[:, rows, cols, :]`` over
  :func:`repro.nn.im2col.im2col_indices`, kept here as a test-local oracle;
* :class:`MaxPool2D` inference (elementwise maximum over strided slices)
  against the reduction of the reshaped window view;
* the ``inplace=True`` paths of :class:`BatchNorm`, :class:`ReLU` and
  :class:`Add` against their allocating paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import im2col, im2col_indices
from repro.nn.layers import Add, BatchNorm, MaxPool2D, ReLU

pytestmark = pytest.mark.engine


def _gather_im2col(x, kernel_h, kernel_w, stride, pad, pad_value=0):
    """The fancy-index gather im2col used to be."""
    batch, height, width, channels = x.shape
    if pad:
        x = np.pad(
            x,
            ((0, 0), (pad, pad), (pad, pad), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    rows, cols, out_h, out_w = im2col_indices(height, width, kernel_h, kernel_w, stride, pad)
    patches = x[:, rows, cols, :]
    return patches.reshape(batch * out_h * out_w, kernel_h * kernel_w * channels), out_h, out_w


def _float_array(draw, shape):
    """Float64 values with ties, large magnitudes and no signed zeros."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e6])), size=shape)
    # Coarse rounding creates ties inside pooling windows; +0.0 stays +0.0.
    if draw(st.booleans()):
        x = np.round(x, 1) + 0.0
    return x


@st.composite
def _conv_case(draw):
    kernel_h = draw(st.integers(1, 5))
    kernel_w = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    height = draw(st.integers(max(1, kernel_h - 2 * pad), 9))
    width = draw(st.integers(max(1, kernel_w - 2 * pad), 9))
    batch = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 5))
    return batch, height, width, channels, kernel_h, kernel_w, stride, pad


class TestIm2colWindowCopy:
    @given(case=_conv_case(), seed=st.integers(0, 2**32 - 1), pad_code=st.integers(0, 255))
    @settings(max_examples=150, deadline=None)
    def test_uint8_codes_match_gather(self, case, seed, pad_code):
        batch, height, width, channels, kh, kw, stride, pad = case
        x = np.random.default_rng(seed).integers(
            0, 256, size=(batch, height, width, channels), dtype=np.uint8
        )
        got = im2col(x, kh, kw, stride, pad, pad_value=pad_code)
        want = _gather_im2col(x, kh, kw, stride, pad, pad_value=pad_code)
        assert got[1:] == want[1:]
        assert got[0].dtype == want[0].dtype == np.uint8
        assert got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()

    @given(case=_conv_case(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_float64_match_gather(self, case, data):
        batch, height, width, channels, kh, kw, stride, pad = case
        x = _float_array(data.draw, (batch, height, width, channels))
        got = im2col(x, kh, kw, stride, pad)
        want = _gather_im2col(x, kh, kw, stride, pad)
        assert got[1:] == want[1:]
        assert got[0].dtype == np.float64
        assert got[0].tobytes() == want[0].tobytes()

    def test_grouped_channel_slice_input(self, rng):
        # The executor unfolds channel slices (grouped convs): a
        # non-contiguous input must give the same rows as a contiguous copy.
        x = rng.integers(0, 256, size=(2, 6, 7, 8), dtype=np.uint8)
        view = x[..., 2:5]
        got = im2col(view, 3, 2, 2, 1, pad_value=9)[0]
        want = _gather_im2col(np.ascontiguousarray(view), 3, 2, 2, 1, pad_value=9)[0]
        assert got.tobytes() == want.tobytes()

    def test_output_is_a_fresh_contiguous_array(self, rng):
        # Even the 1x1, stride-1, unpadded unfold (a pure reshape) copies:
        # a caller may keep or modify the columns without touching ``x``.
        x = rng.integers(0, 256, size=(2, 4, 4, 3), dtype=np.uint8)
        before = x.copy()
        for kernel, stride, pad in [(1, 1, 0), (3, 1, 1), (2, 2, 0)]:
            cols, _, _ = im2col(x, kernel, kernel, stride, pad)
            assert cols.flags.c_contiguous and cols.flags.writeable
            assert not np.shares_memory(cols, x)
            cols[...] = 0
        assert np.array_equal(x, before)


class TestMaxPoolInference:
    @given(
        batch=st.integers(1, 3),
        out_h=st.integers(1, 4),
        out_w=st.integers(1, 4),
        channels=st.integers(1, 4),
        pool=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_window_reduction(self, batch, out_h, out_w, channels, pool, data):
        shape = (batch, out_h * pool, out_w * pool, channels)
        x = _float_array(data.draw, shape)
        layer = MaxPool2D(pool)
        want = layer._windows(x).max(axis=(2, 4))
        got = layer.forward(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), pool=st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_nan_positions_and_values_match(self, seed, pool):
        rng = np.random.default_rng(seed)
        x = rng.choice(np.array([-0.0, 0.0, 1.5, -2.0, np.inf, np.nan]), size=(2, 2 * pool, 3 * pool, 2))
        layer = MaxPool2D(pool)
        want = layer._windows(x).max(axis=(2, 4))
        got = layer.forward(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(got, want)  # NaNs compare equal here

    def test_training_path_keeps_backward_mask(self, rng):
        x = rng.normal(size=(2, 4, 4, 3))
        layer = MaxPool2D(2)
        out = layer.forward(x, training=True)
        assert out.tobytes() == layer.forward(x).tobytes()
        grad = layer.backward(np.ones_like(out))[0]
        assert grad.shape == x.shape

    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 3, 4, 1)))


def _random_batchnorm(rng, channels):
    layer = BatchNorm(channels)
    layer.running_mean = rng.normal(size=channels)
    layer.running_var = rng.uniform(0.01, 4.0, size=channels)
    layer.gamma = rng.normal(size=channels)
    layer.beta = rng.normal(size=channels)
    return layer


class TestInplaceLayers:
    @given(
        shape=st.sampled_from([(3, 5), (2, 4, 4, 3), (1, 2, 3, 7)]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_batchnorm_inplace_is_byte_identical(self, shape, seed, data):
        layer = _random_batchnorm(np.random.default_rng(seed), shape[-1])
        x = _float_array(data.draw, shape)
        want = layer.forward(x.copy())
        owned = x.copy()
        got = layer.forward(owned, inplace=True)
        assert got is owned
        assert got.tobytes() == want.tobytes()

    @given(shape=st.sampled_from([(3, 5), (2, 4, 4, 3)]), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_relu_inplace_is_byte_identical(self, shape, data):
        x = _float_array(data.draw, shape)
        # Negative inputs give -0.0 in both paths; NaN propagates.
        x.flat[::7] = -x.flat[::7]
        x.flat[::11] = np.nan
        want = ReLU().forward(x.copy())
        owned = x.copy()
        got = ReLU().forward(owned, inplace=True)
        assert got is owned
        assert got.tobytes() == want.tobytes()

    @given(n_inputs=st.integers(1, 4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_inplace_is_byte_identical(self, n_inputs, data):
        inputs = [_float_array(data.draw, (2, 3, 3, 4)) for _ in range(n_inputs)]
        want = Add(n_inputs).forward(*[x.copy() for x in inputs])
        owned = inputs[0].copy()
        got = Add(n_inputs).forward(owned, *inputs[1:], inplace=True)
        assert got is owned
        assert got.tobytes() == want.tobytes()

    def test_inexact_cases_fall_back_to_fresh_arrays(self, rng):
        bn = _random_batchnorm(rng, 4)
        # float32 input: the allocating path promotes to float64.
        x32 = rng.normal(size=(2, 4)).astype(np.float32)
        out = bn.forward(x32, inplace=True)
        assert out is not x32 and out.dtype == np.float64
        assert out.tobytes() == bn.forward(x32).tobytes()
        # Broadcasting the overwritten operand would change its shape.
        small = rng.normal(size=(1, 4))
        big = rng.normal(size=(3, 4))
        out = Add(2).forward(small, big, inplace=True)
        assert out is not small and out.shape == (3, 4)
        # An operand viewing the overwritten array must read old values.
        x = rng.normal(size=(4, 4))
        want = x + x.T
        assert Add(2).forward(x, x.T, inplace=True).tobytes() == want.tobytes()
        # Read-only arrays are never written.
        frozen = rng.normal(size=(2, 3))
        frozen.flags.writeable = False
        out = ReLU().forward(frozen, inplace=True)
        assert out is not frozen

    def test_training_ignores_inplace(self, rng):
        x = rng.normal(size=(4, 3))
        before = x.copy()
        BatchNorm(3).forward(x, training=True, inplace=True)
        ReLU().forward(x, training=True, inplace=True)
        Add(2).forward(x, x.copy(), training=True, inplace=True)
        assert np.array_equal(x, before)
