"""im2col / col2im helpers for NHWC convolution.

Convolutions are lowered to matrix multiplications: every receptive-field
patch becomes one row of a ``(patches, kh*kw*cin)`` matrix, and the filters
become a ``(kh*kw*cin, cout)`` matrix.  This is also exactly the layout the
quantized / approximate executors need, because the systolic MAC array of
Section IV consumes one weight column per filter and streams activation
patches through it.

:func:`im2col` unfolds with one contiguous copy of a read-only
``as_strided`` window view of the (padded) input: no index arrays, no
fancy-index gather.  The adjoint :func:`col2im` scatters through explicit
``(rows, cols)`` indices; those depend only on the convolution geometry,
so :func:`im2col_indices` memoizes them (LRU, keyed by the geometry
tuple) and returns them read-only and shared between callers.
"""

from __future__ import annotations

import functools

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


@functools.lru_cache(maxsize=256)
def _cached_im2col_indices(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    base_r = np.repeat(np.arange(out_h) * stride, out_w)
    base_c = np.tile(np.arange(out_w) * stride, out_h)
    off_r = np.repeat(np.arange(kernel_h), kernel_w)
    off_c = np.tile(np.arange(kernel_w), kernel_h)
    rows = base_r[:, None] + off_r[None, :]
    cols = base_c[:, None] + off_c[None, :]
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols, out_h, out_w


def im2col_indices(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Row/column patch indices on a padded ``(H, W)`` plane (for :func:`col2im`).

    Returns ``(rows, cols, out_h, out_w)`` where ``rows`` and ``cols`` have
    shape ``(out_h * out_w, kernel_h * kernel_w)`` and index into the padded
    input plane; ``x[:, rows, cols, :]`` gathers the same patches
    :func:`im2col` copies out of its window view.  The index arrays are
    memoized per geometry and returned as shared read-only views.
    """
    return _cached_im2col_indices(
        int(height), int(width), int(kernel_h), int(kernel_w), int(stride), int(pad)
    )


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
    pad_value: float | int = 0,
) -> tuple[np.ndarray, int, int]:
    """Unfold an NHWC tensor into patch rows.

    Parameters
    ----------
    x:
        Input of shape ``(batch, height, width, channels)``.
    kernel_h, kernel_w, stride, pad:
        Convolution geometry (symmetric padding).
    pad_value:
        Constant used for the padded border (default 0).  The quantized
        executor unfolds uint8 *codes* rather than real values and pads with
        the zero-point code — the code of the real value 0 — so that
        quantize-then-unfold equals unfold-then-quantize elementwise.

    Returns
    -------
    (columns, out_h, out_w):
        ``columns`` has shape ``(batch * out_h * out_w, kernel_h * kernel_w *
        channels)`` with the tap ordering ``(kh, kw, channel)`` — matching the
        filter reshape used by :class:`repro.nn.layers.Conv2D`.  It is always
        a fresh C-contiguous array (never a view of ``x``, even for a 1x1,
        stride-1, unpadded kernel), so callers may keep or modify it.

    The patches are read through a read-only ``as_strided`` window view of
    shape ``(batch, out_h, out_w, kernel_h, kernel_w, channels)`` over the
    padded input and copied out once — the same elements, in the same
    order, as gathering ``x[:, rows, cols, :]`` over :func:`im2col_indices`.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    if pad:
        x = np.pad(
            x,
            ((0, 0), (pad, pad), (pad, pad), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    s_batch, s_row, s_col, s_chan = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kernel_h, kernel_w, channels),
        strides=(s_batch, s_row * stride, s_col * stride, s_row, s_col, s_chan),
        writeable=False,
    )
    columns = windows.copy()
    return (
        columns.reshape(batch * out_h * out_w, kernel_h * kernel_w * channels),
        out_h,
        out_w,
    )


def col2im(
    columns: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold patch-row gradients back onto the (padded) input — adjoint of im2col."""
    batch, height, width, channels = input_shape
    rows, cols, out_h, out_w = im2col_indices(
        height, width, kernel_h, kernel_w, stride, pad
    )
    padded = np.zeros(
        (batch, height + 2 * pad, width + 2 * pad, channels), dtype=columns.dtype
    )
    patches = columns.reshape(batch, out_h * out_w, kernel_h * kernel_w, channels)
    # Scatter-add each tap back to its padded-plane position.
    np.add.at(padded, (slice(None), rows, cols, slice(None)), patches)
    if pad:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded
