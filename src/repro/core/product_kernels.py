"""Compiled per-layer product kernels for the approximate executor.

The legacy product-sum functions in :mod:`repro.core.approx_conv` re-derive
all per-layer state (int64 weight copies, LUT gathers, control constants) on
every batch.  A :class:`ProductKernel` is the compiled counterpart: it is
built **once** per (layer, execution plan) by ``ProductModel.compile`` and
then evaluated on every activation batch, so all weight-dependent work is
hoisted out of the hot loop.

The LUT kernel is the important one, and it compiles a table to one of two
forms.  Most approximate multipliers — truncated, perforated, constant-
compensated, and the "evolved" tables that drop partial-product bits — are
*affine in the activation's bits* for every weight.  Such a table has the
**bit-plane form**

    lut[w, a] = l0[w] + sum_k H_k[w] * (a & mask_k)

with at most eight disjoint activation-bit groups ``mask_k``: bit ``c`` joins
group ``k`` when ``lut[:, 2^c] - l0 == 2^c * H_k`` for a shared ``H_k``.
:func:`bit_planes` finds that form and checks it on all 65,536 entries, and
the kernel then evaluates

    sums[p, f] = sum_k (act & mask_k)[p, :] @ H_k[w[:, f]] + sum_j l0[w[j, f]]

as ``k`` dense BLAS products (one for the exact multiplier, which is the
single group ``mask = 0xFF, H = w``) plus a per-filter constant.

A table without that structure keeps the **one-hot form**

    lut[w, a] = w * a - err[w, a]

so the exact part ``sum_j w_j a_j`` is a single matrix product, and the error
part becomes a matrix product of the *one-hot encoded* activations against a
precompiled ``(taps * 256, filters)`` error matrix::

    err_sums[p, f] = sum_j err[w[j, f], act[p, j]]
                   = onehot(act)[p, :] @ E[:, f],
    E[j * 256 + a, f] = err[w[j, f], a]

The one-hot matrix has exactly ``taps`` ones per row, so the product is
evaluated through a scipy CSR matrix when scipy is available, or through a
per-tap gather loop otherwise — either way the 3-D gather is gone.  Its cost
is bound by row gathers from an error matrix that does not fit in cache; on
vgg13 it ran about 20x slower per MAC than the bit-plane form.

All integer matrix products are executed in float32/float64 BLAS: every
partial product and every partial sum is an integer bounded by
``taps * 255 * 255 << 2^53``, so the floating-point accumulation is exact
and the results are bit-identical to the int64 reference paths (enforced by
the ``pytest -m engine`` parity suite).  Accurate and perforated kernels
cast their sums back to int64, the dtype of the reference functions.  LUT
kernels stay in float64 end to end, and the result is returned in the dtype
the dequantization epilogue consumes — with no int64 round trip.  The
one-hot error matrix is stored as float64 (``|err| <= 255 * 255``, so every
entry and every sum is exact).  A bit-plane group takes float32 sgemm only
when ``255 * max_f sum_j |H_k[w[j, f]]| < 2^24``, and float64 otherwise; a
layer whose sums could reach 2^53 keeps the one-hot form.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.control_variate import ControlVariate
from repro.multipliers.base import OPERAND_BITS, OPERAND_LEVELS

try:  # pragma: no cover - exercised indirectly via LUTKernel paths
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy is available in CI
    _sparse = None


#: Largest precompiled LUT error matrix, in bytes, before :class:`LUTKernel`
#: falls back to the low-memory per-tap evaluation.
DEFAULT_MAX_ERROR_MATRIX_BYTES = 1 << 28


@dataclass(frozen=True)
class KernelOptions:
    """Backend-tunable knobs honored by ``ProductModel.compile``.

    An :class:`repro.core.backends.EngineBackend` passes these to the
    product models it compiles; models honor the knobs that apply to them
    (only the LUT kernel has a memory/speed trade-off today) and ignore the
    rest, so options never change results — only footprint and speed.
    """

    #: Cap on the precompiled LUT error matrix; layers whose matrix would
    #: exceed it use the streaming per-tap evaluation instead.
    max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES


def _as_int64_weights(weight_codes: np.ndarray) -> np.ndarray:
    w = np.asarray(weight_codes)
    if w.ndim != 2:
        raise ValueError(f"weight_codes must be 2-D (taps, filters), got {w.shape}")
    return w.astype(np.int64)


#: Largest per-(patch, filter) product sum for which float32 accumulation is
#: still exact (integers below 2^24).
_F32_EXACT_BOUND = 1 << 24


class _WeightOperand:
    """A weight matrix prepared for exact floating-point BLAS products.

    When every possible product sum of 8-bit activations against the
    weights fits below 2^24 (``255 * max_f sum_j w[j, f] < 2^24``), the
    operand keeps a float32 copy — float32 sgemm is about twice as fast as
    dgemm and still bit-exact in that regime, because every partial sum is
    an integer below the float32 exact-integer limit.  The float64 copy is
    then only built on the first product against wider-than-uint8
    activations.  Otherwise the operand is a float64 copy alone.

    ``signed=True`` admits any integer weights, bounding the float32 case by
    absolute column sums (``255 * max_f sum_j |w[j, f]| < 2^24``), as the
    bit-plane LUT slopes need.  By default the bound argument requires
    genuine 8-bit codes.
    """

    def __init__(self, w: np.ndarray, signed: bool = False):
        w64 = w.astype(np.int64)
        # Unless ``signed``, signed or out-of-range weights disqualify the
        # f32 copy entirely, as the 8-bit bound argument requires.
        eligible = signed or w64.size == 0 or (
            w64.min() >= 0 and w64.max() < OPERAND_LEVELS
        )
        max_col_sum = int(np.abs(w64).sum(axis=0).max()) if w64.size else 0
        if eligible and 255 * max_col_sum < _F32_EXACT_BOUND:
            self._f32: np.ndarray | None = w64.astype(np.float32)
            self._f64: np.ndarray | None = None
        else:
            self._f32 = None
            self._f64 = w64.astype(np.float64)

    def matmul(self, lhs: np.ndarray, dtype=np.int64) -> np.ndarray:
        """Exact ``lhs @ w`` as ``dtype`` (int64 or float64) for
        integer-valued ``lhs``.

        The float32 path is only taken for uint8 operands — the dtype
        guarantees the <= 255 bound the exactness argument needs; any other
        integer input goes through float64, which is exact for every partial
        sum below 2^53 (and an order of magnitude faster than numpy's native
        int64 matmul).  Every sum is an integer either way, so the cast to
        ``dtype`` is exact.
        """
        if self._f32 is not None and lhs.dtype == np.uint8:
            sums = lhs.astype(np.float32) @ self._f32
        else:
            if self._f64 is None:
                # Every float32 entry is an exact integer below 2^24.
                self._f64 = self._f32.astype(np.float64)
            sums = lhs.astype(np.float64) @ self._f64
        return sums.astype(dtype, copy=False)


class ProductKernel(abc.ABC):
    """A product model compiled against one layer's quantized weights.

    Calling the kernel with ``(patches, taps)`` activation codes returns the
    ``(patches, filters)`` raw product sums, exactly as the corresponding
    legacy function in :mod:`repro.core.approx_conv` would.  The result is
    a new array owned by the caller: the executor dequantizes float64 sums
    in place (``overwrite_product_sum=True``), so a kernel must never
    return an array it keeps or reuses.
    """

    def __init__(self, taps: int, filters: int):
        self.taps = int(taps)
        self.filters = int(filters)

    @abc.abstractmethod
    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        """Raw ``sum_j product(wq_j, aq_j)`` of shape ``(patches, filters)``."""

    def __call__(self, act_codes: np.ndarray) -> np.ndarray:
        return self.product_sums(act_codes)

    def _check_acts(self, act_codes: np.ndarray) -> np.ndarray:
        """Validate shape; keep integer dtypes as-is — uint8 stays uint8, so
        the executor's persistent buffers reach BLAS without an int64 detour.
        Non-integer inputs are truncated to int64, matching the legacy
        ``_check_codes`` behaviour of :mod:`repro.core.approx_conv`."""
        act = np.asarray(act_codes)
        if act.ndim != 2 or act.shape[1] != self.taps:
            raise ValueError(
                f"activations must have shape (patches, {self.taps}), got {act.shape}"
            )
        if not np.issubdtype(act.dtype, np.integer):
            act = act.astype(np.int64)
        return act


class AccurateKernel(ProductKernel):
    """Compiled exact ``act @ weights`` product sums."""

    def __init__(self, weight_codes: np.ndarray):
        w = _as_int64_weights(weight_codes)
        super().__init__(*w.shape)
        self._w_op = _WeightOperand(w)

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        return self._w_op.matmul(act)


class PerforatedKernel(ProductKernel):
    """Compiled perforated product sums, optionally CV-corrected.

    ``m = 0`` degenerates to the accurate array: the products equal
    :func:`repro.core.approx_conv.accurate_product_sums` and the control
    variate correction is exactly zero (``x = A mod 1 = 0``).
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        m: int,
        control_variate: ControlVariate | None = None,
    ):
        if not 0 <= int(m) < 8:
            raise ValueError(f"m must be within [0, 7], got {m}")
        w = _as_int64_weights(weight_codes)
        super().__init__(*w.shape)
        if control_variate is not None and control_variate.n_filters != self.filters:
            raise ValueError(
                f"control variate has {control_variate.n_filters} filters, "
                f"weights have {self.filters}"
            )
        self.m = int(m)
        self._mask = (1 << self.m) - 1
        self._w_op = _WeightOperand(w)
        self.control_variate = control_variate

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        # The mask fits any 8-bit operand dtype, so these ops stay in the
        # input dtype (uint8 in the executor) — no int64 round trip.
        x = act & self._mask
        sums = self._w_op.matmul(act - x)
        cv = self.control_variate
        if cv is None:
            return sums
        correction = cv.correction(x.sum(axis=1, dtype=np.int64))
        if cv.quantized:
            return sums + correction.astype(np.int64)
        return sums.astype(np.float64) + correction


@dataclass(frozen=True)
class BitPlanes:
    """A 256x256 table in bit-plane form (see the module docstring).

    ``lut[w, a] = offset[w] + sum_k slopes[k, w] * (a & masks[k])`` with
    disjoint, non-empty activation-bit ``masks``.
    """

    offset: np.ndarray
    masks: tuple[int, ...]
    slopes: np.ndarray

    @property
    def groups(self) -> int:
        """Number of dense products the bit-plane kernel evaluates."""
        return len(self.masks)


def bit_planes(lut: np.ndarray) -> BitPlanes | None:
    """The bit-plane form of a 256x256 table, or None when it has none.

    Activation bit ``c`` joins group ``k`` when ``lut[:, 2^c] - lut[:, 0]``
    equals ``2^c * H_k`` for a shared integer ``H_k``; bits that never
    change the product join no group.  The form is accepted only when it
    reproduces all 65,536 entries.
    """
    lut = np.asarray(lut, dtype=np.int64)
    if lut.shape != (OPERAND_LEVELS, OPERAND_LEVELS):
        raise ValueError(f"lut must have shape (256, 256), got {lut.shape}")
    offset = lut[:, 0].copy()
    masks: list[int] = []
    slopes: list[np.ndarray] = []
    for bit in range(OPERAND_BITS):
        step = lut[:, 1 << bit] - offset
        if not step.any():
            continue
        # A step not divisible by 2^bit fails the rebuild check below.
        slope = step >> bit
        for k, other in enumerate(slopes):
            if np.array_equal(other, slope):
                masks[k] |= 1 << bit
                break
        else:
            masks.append(1 << bit)
            slopes.append(slope)
    levels = np.arange(OPERAND_LEVELS, dtype=np.int64)
    rebuilt = np.repeat(offset[:, None], OPERAND_LEVELS, axis=1)
    for mask, slope in zip(masks, slopes):
        rebuilt += slope[:, None] * (levels & mask)[None, :]
    if not np.array_equal(rebuilt, lut):
        return None
    return BitPlanes(
        offset=offset,
        masks=tuple(masks),
        slopes=np.array(slopes, dtype=np.int64).reshape(len(masks), OPERAND_LEVELS),
    )


#: Bound below which every float64 partial sum of a bit-plane kernel is an
#: exact integer.
_F64_EXACT_BOUND = float(1 << 53)

#: ``planes`` default of :class:`LUTKernel`: decompose the table itself.
_DECOMPOSE = object()


class LUTKernel(ProductKernel):
    """Compiled product sums for an arbitrary 256x256 multiplier LUT.

    A table with a bit-plane form compiles to one dense product per group
    plus a per-filter constant; any other table to the ``exact - err``
    one-hot form (see the module docstring).  ``planes`` passes a
    decomposition already made by :func:`bit_planes` — ``LUTProduct``
    decomposes its table once for all its layers; by default the kernel
    decomposes the table itself.  Sums are returned as float64 (exact
    integers) on every path: bit-plane products, compiled sparse product,
    no-scipy per-tap gather and low-memory streaming.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        lut: np.ndarray,
        max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES,
        planes=_DECOMPOSE,
    ):
        lut = np.asarray(lut, dtype=np.int64)
        if lut.shape != (OPERAND_LEVELS, OPERAND_LEVELS):
            raise ValueError(f"lut must have shape (256, 256), got {lut.shape}")
        w = _as_int64_weights(weight_codes)
        if w.size and (w.min() < 0 or w.max() >= OPERAND_LEVELS):
            raise ValueError(f"weight codes out of range [0, {OPERAND_LEVELS - 1}]")
        super().__init__(*w.shape)
        if planes is _DECOMPOSE:
            planes = bit_planes(lut)
        # _err_table/_w are only needed by the low-memory per-batch fallback.
        self._err_table: np.ndarray | None = None
        self._w: np.ndarray | None = None
        self._error_matrix: np.ndarray | None = None
        self._tap_offsets: np.ndarray | None = None
        self._planes: list[tuple[int, _WeightOperand]] | None = None
        self._offset_sums: np.ndarray | None = None
        self._w_op: _WeightOperand | None = None
        self._exact = False
        if planes is not None and self._compile_bit_planes(w, planes):
            return
        self._w_op = _WeightOperand(w)
        levels = np.arange(OPERAND_LEVELS, dtype=np.int64)
        err_table = (levels[:, None] * levels[None, :] - lut).astype(np.float64)
        matrix_bytes = self.taps * OPERAND_LEVELS * self.filters * 8
        if matrix_bytes > max_error_matrix_bytes:
            # Low-memory mode: per-tap gather against the raw table.
            self._err_table = err_table
            self._w = w
            return
        # E[j * 256 + a, f] = err[w[j, f], a], built in tap chunks to bound
        # the transient (taps, filters, 256) intermediate.
        matrix = np.empty((self.taps * OPERAND_LEVELS, self.filters), dtype=np.float64)
        view = matrix.reshape(self.taps, OPERAND_LEVELS, self.filters)
        chunk = max(1, (1 << 24) // max(1, OPERAND_LEVELS * self.filters * 8))
        for start in range(0, self.taps, chunk):
            stop = min(start + chunk, self.taps)
            view[start:stop] = err_table[w[start:stop]].transpose(0, 2, 1)
        self._error_matrix = matrix
        self._tap_offsets = np.arange(self.taps, dtype=np.int64) * OPERAND_LEVELS
        self._ones = np.empty(0, dtype=np.int8)

    def _compile_bit_planes(self, w: np.ndarray, planes: BitPlanes) -> bool:
        """Bind the bit-plane groups to ``w``; False when a sum could reach
        2^53, where float64 accumulation would stop being exact."""
        slopes = [slope[w] for slope in planes.slopes]
        offsets = planes.offset[w]
        bound = np.abs(offsets).sum(axis=0, dtype=np.float64)
        for h in slopes:
            bound += 255.0 * np.abs(h).sum(axis=0, dtype=np.float64)
        if w.size and bound.max() >= _F64_EXACT_BOUND:
            return False
        self._planes = [
            (mask, _WeightOperand(h, signed=True))
            for mask, h in zip(planes.masks, slopes)
        ]
        if offsets.any():
            self._offset_sums = offsets.sum(axis=0).astype(np.float64)
        self._exact = (
            self._offset_sums is None
            and planes.masks == (OPERAND_LEVELS - 1,)
            and np.array_equal(slopes[0], w)
        )
        if self._exact:
            self._w_op = self._planes[0][1]
        return True

    @property
    def is_exact(self) -> bool:
        """True when the LUT is the exact multiplier on these weights: one
        full-width group whose slopes are the weights themselves."""
        return self._exact

    @property
    def is_bit_plane(self) -> bool:
        """True when the table compiled to bit-plane products (no error
        matrix and no one-hot product)."""
        return self._planes is not None

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        if act.dtype != np.uint8 and act.size and (
            act.min() < 0 or act.max() >= OPERAND_LEVELS
        ):
            raise ValueError(f"activation codes out of range [0, {OPERAND_LEVELS - 1}]")
        if self._planes is not None:
            return self._bit_plane_sums(act)
        sums = self._w_op.matmul(act, dtype=np.float64)
        if self._error_matrix is not None:
            sums -= self._error_sums_compiled(act)
        else:
            sums -= self._error_sums_lowmem(act)
        return sums

    def _bit_plane_sums(self, act: np.ndarray) -> np.ndarray:
        # Masks fit any 8-bit operand dtype, so uint8 codes stay uint8 and
        # keep the float32 path of every group that qualifies for it.
        sums: np.ndarray | None = None
        for mask, op in self._planes:
            lhs = act if mask == OPERAND_LEVELS - 1 else act & mask
            part = op.matmul(lhs, dtype=np.float64)
            if sums is None:
                sums = part
            else:
                sums += part
        if sums is None:
            sums = np.zeros((act.shape[0], self.filters), dtype=np.float64)
        if self._offset_sums is not None:
            sums += self._offset_sums
        return sums

    # ------------------------------------------------------------------
    def _error_sums_compiled(self, act: np.ndarray) -> np.ndarray:
        patches = act.shape[0]
        indices = (act + self._tap_offsets[None, :]).ravel()
        if _sparse is not None:
            # int8 ones: 8x smaller than float64 for a patches*taps-long
            # array that is pure structure; scipy promotes the product to the
            # error matrix's float64 and runs its float64 sparse loop.
            if self._ones.shape[0] < indices.shape[0]:
                self._ones = np.ones(indices.shape[0], dtype=np.int8)
            indptr = np.arange(patches + 1, dtype=np.int64) * self.taps
            onehot = _sparse.csr_matrix(
                (self._ones[: indices.shape[0]], indices, indptr),
                shape=(patches, self.taps * OPERAND_LEVELS),
            )
            return np.asarray(onehot @ self._error_matrix)
        view = self._error_matrix.reshape(self.taps, OPERAND_LEVELS, self.filters)
        err = np.zeros((patches, self.filters), dtype=np.float64)
        for j in range(self.taps):
            err += view[j][act[:, j]]
        return err

    def _error_sums_lowmem(self, act: np.ndarray) -> np.ndarray:
        err = np.zeros((act.shape[0], self.filters), dtype=np.float64)
        for j in range(self.taps):
            err += self._err_table[self._w[j][None, :], act[:, j][:, None]]
        return err


class ChunkedKernel(ProductKernel):
    """Evaluate a wrapped kernel in bounded patch chunks.

    Rows (patches) are computed independently by every kernel, so splitting
    the batch along the patch axis is bit-exact while capping the transient
    memory of the wrapped kernel (one-hot products, correction terms) at the
    chunk size.  Used by the low-memory engine backend.
    """

    def __init__(self, base: ProductKernel, chunk_patches: int):
        if chunk_patches < 1:
            raise ValueError(f"chunk_patches must be positive, got {chunk_patches}")
        super().__init__(base.taps, base.filters)
        self.base = base
        self.chunk_patches = int(chunk_patches)

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = np.asarray(act_codes)
        patches = act.shape[0]
        if patches <= self.chunk_patches:
            return self.base(act_codes)
        parts = [
            self.base(act[start : start + self.chunk_patches])
            for start in range(0, patches, self.chunk_patches)
        ]
        return np.concatenate(parts, axis=0)


class CallbackKernel(ProductKernel):
    """Fallback kernel wrapping an uncompiled ``ProductModel.product_sums``.

    Used by product models that do not provide a specialized compiled form;
    the weight codes and control variate are still bound once at compile
    time, so callers need no per-batch layer state.  The wrapped
    ``product_sums`` must return a fresh array, as every kernel does.
    """

    def __init__(self, product_model, weight_codes: np.ndarray, control_variate):
        w = np.asarray(weight_codes)
        if w.ndim != 2:
            raise ValueError(f"weight_codes must be 2-D (taps, filters), got {w.shape}")
        super().__init__(*w.shape)
        self._product_model = product_model
        self._weight_codes = weight_codes
        self._control_variate = control_variate

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        return self._product_model.product_sums(
            act_codes, self._weight_codes, self._control_variate
        )


#: :class:`MultiPlanKernel` block kinds evaluated through their own kernel:
#: bit-plane LUTs are already dense BLAS products, and fallbacks are kernel
#: types the fusion does not understand.
_PER_BLOCK_KINDS = ("bitplane", "fallback")


class MultiPlanKernel:
    """P per-plan kernels of one layer, fused into one batched launch.

    The sweep's outer plan loop evaluates the same layer under P product
    models, one :class:`ProductKernel` launch each.  This kernel collapses
    those P launches into one: the per-plan ``exact - err`` decompositions
    are *stacked along the patch axis*, so the dense parts become a single
    ``(P*N, taps)``-shaped BLAS product against the shared weight operand
    and the one-hot LUT error parts become one block-stacked one-hot sparse
    product (block p's one-hot columns are offset into its own copy of the
    error matrix).  Bit-plane LUT blocks are already dense BLAS products;
    each runs through its own kernel.  Two input conventions are supported:

    * ``shared=False`` — ``act_codes`` is the ``(P*N, taps)`` stack of P
      per-plan activation blocks (plans already diverged upstream);
    * ``shared=True`` — ``act_codes`` is one ``(N, taps)`` block shared by
      every plan (the divergence layer itself).  The shared accurate term
      is computed **once** and broadcast, and perforated blocks are deduped
      by mask so e.g. the ±V variants of one ``m`` share a single masked
      matmul.

    Output is always a fresh ``(P*N, filters)`` float64 array of product
    sums — the dense products are taken in float64 straight from BLAS and
    the LUT error sums subtracted in float64, so no block round-trips
    through int64 — with block p bit-identical (as a value) to
    ``kernels[p](act_block_p)``.  The executor hands this array to
    :meth:`QuantizedLinearOp.output_real_stacked` (or ``output_real``) with
    ``overwrite_product_sum=True``, which dequantizes it in place.
    Bit-plane LUTs and the kernel types the fusion does not understand
    (chunked, callback, streaming low-memory LUTs) are evaluated per block
    through their own kernel, so fusion never changes results, only launch
    count.

    All kernels must be compiled against the same weight codes; the shared
    weight operand is borrowed from the first fusable kernel.
    """

    def __init__(
        self,
        kernels,
        max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES,
    ):
        kernels = list(kernels)
        if not kernels:
            raise ValueError("MultiPlanKernel needs at least one kernel")
        self.taps = kernels[0].taps
        self.filters = kernels[0].filters
        for kernel in kernels:
            if (kernel.taps, kernel.filters) != (self.taps, self.filters):
                raise ValueError(
                    "all fused kernels must share one layer shape; got "
                    f"({kernel.taps}, {kernel.filters}) vs ({self.taps}, {self.filters})"
                )
        self.kernels = kernels
        self._kinds: list[str] = []
        self._w_op: _WeightOperand | None = None
        for kernel in kernels:
            if isinstance(kernel, AccurateKernel):
                kind = "exact"
            elif isinstance(kernel, LUTKernel) and kernel.is_exact:
                kind = "exact"
            elif isinstance(kernel, LUTKernel) and kernel.is_bit_plane:
                kind = "bitplane"
            elif isinstance(kernel, LUTKernel) and kernel._error_matrix is not None:
                kind = "lut"
            elif isinstance(kernel, PerforatedKernel):
                kind = "perf"
            else:
                kind = "fallback"
            if kind not in _PER_BLOCK_KINDS and self._w_op is None:
                self._w_op = kernel._w_op
            self._kinds.append(kind)
        self._lut_blocks = [i for i, k in enumerate(self._kinds) if k == "lut"]
        # One stacked error matrix over the *distinct* per-block matrices
        # (blocks may share a kernel instance, e.g. suffix layers where only
        # the prefix diverged); block p's one-hot columns land at
        # slot(p) * taps * 256.  Falls back to per-block products when the
        # stack would exceed the byte cap.
        self._stacked_error: np.ndarray | None = None
        self._block_slots: dict[int, int] = {}
        if self._lut_blocks:
            distinct: list[np.ndarray] = []
            ids: dict[int, int] = {}
            for i in self._lut_blocks:
                matrix = self.kernels[i]._error_matrix
                slot = ids.setdefault(id(matrix), len(distinct))
                if slot == len(distinct):
                    distinct.append(matrix)
                self._block_slots[i] = slot
            total_bytes = sum(m.nbytes for m in distinct)
            if total_bytes <= max_error_matrix_bytes and _sparse is not None:
                self._stacked_error = (
                    distinct[0] if len(distinct) == 1 else np.vstack(distinct)
                )
        self._tap_offsets = np.arange(self.taps, dtype=np.int64) * OPERAND_LEVELS
        self._ones = np.empty(0, dtype=np.int8)

    @property
    def plans(self) -> int:
        """Number of fused per-plan blocks."""
        return len(self.kernels)

    def product_sums_multi(
        self, act_codes: np.ndarray, shared: bool = False
    ) -> np.ndarray:
        """Stacked ``(plans * N, filters)`` float64 product sums.

        ``act_codes`` is ``(N, taps)`` when ``shared`` (one activation block
        evaluated under every plan) or ``(plans * N, taps)`` otherwise
        (block p = rows ``[p*N, (p+1)*N)``).
        """
        act = np.asarray(act_codes)
        if act.ndim != 2 or act.shape[1] != self.taps:
            raise ValueError(
                f"activations must have shape (patches, {self.taps}), got {act.shape}"
            )
        if not np.issubdtype(act.dtype, np.integer):
            act = act.astype(np.int64)
        if shared:
            return self._sums_shared(act)
        if act.shape[0] % self.plans:
            raise ValueError(
                f"stacked activations ({act.shape[0]} rows) do not divide "
                f"into {self.plans} equal plan blocks"
            )
        return self._sums_stacked(act)

    def __call__(self, act_codes: np.ndarray, shared: bool = False) -> np.ndarray:
        return self.product_sums_multi(act_codes, shared=shared)

    # ------------------------------------------------------------------
    def _sums_stacked(self, act: np.ndarray) -> np.ndarray:
        n = act.shape[0] // self.plans
        out = np.empty((self.plans * n, self.filters), dtype=np.float64)
        blocks = [act[p * n : (p + 1) * n] for p in range(self.plans)]
        dense_blocks = [
            p for p, k in enumerate(self._kinds) if k not in _PER_BLOCK_KINDS
        ]
        if dense_blocks:
            # One (D*N, taps) dense product: perforated blocks contribute
            # their masked activations, exact/LUT blocks contribute as-is.
            # The stack keeps uint8 inputs uint8, so the weight operand's
            # float32 fast path applies exactly as it does per plan.
            needs_copy = any(
                self._kinds[p] == "perf" and self.kernels[p]._mask for p in dense_blocks
            )
            masked_sums: dict[int, np.ndarray] = {}
            if len(dense_blocks) == self.plans and not needs_copy:
                lhs = act
            else:
                lhs = np.empty((len(dense_blocks) * n, self.taps), dtype=act.dtype)
                for row, p in enumerate(dense_blocks):
                    dst = lhs[row * n : (row + 1) * n]
                    if self._kinds[p] == "perf" and self.kernels[p]._mask:
                        block = blocks[p]
                        x = block & self.kernels[p]._mask
                        if self.kernels[p].control_variate is not None:
                            masked_sums[p] = x.sum(axis=1, dtype=np.int64)
                        np.subtract(block, x, out=dst)
                    else:
                        dst[...] = blocks[p]
            dense = self._w_op.matmul(lhs, dtype=np.float64)
            for row, p in enumerate(dense_blocks):
                sums = dense[row * n : (row + 1) * n]
                self._finish_block(
                    out, p, n, blocks[p], sums, masked_sums=masked_sums.get(p)
                )
        if self._lut_blocks:
            self._subtract_errors(out, n, blocks)
        for p, kind in enumerate(self._kinds):
            if kind in _PER_BLOCK_KINDS:
                out[p * n : (p + 1) * n] = self._own_sums(p, blocks[p])
        return out

    def _sums_shared(self, act: np.ndarray) -> np.ndarray:
        n = act.shape[0]
        out = np.empty((self.plans * n, self.filters), dtype=np.float64)
        # Exact sums feed every accurate/LUT block and every m = 0
        # perforated block — computed once, broadcast into each.
        exact: np.ndarray | None = None
        masked: dict[int, np.ndarray] = {}
        masked_x_sums: dict[int, np.ndarray] = {}
        distinct_masks = sorted(
            {
                self.kernels[p]._mask
                for p, k in enumerate(self._kinds)
                if k == "perf" and self.kernels[p]._mask
            }
        )
        if distinct_masks:
            # One (D*N, taps) product over the distinct masked variants.
            lhs = np.empty((len(distinct_masks) * n, self.taps), dtype=act.dtype)
            for row, mask in enumerate(distinct_masks):
                x = act & mask
                masked_x_sums[mask] = x.sum(axis=1, dtype=np.int64)
                np.subtract(act, x, out=lhs[row * n : (row + 1) * n])
            dense = self._w_op.matmul(lhs, dtype=np.float64)
            masked = {
                mask: dense[row * n : (row + 1) * n]
                for row, mask in enumerate(distinct_masks)
            }
        for p, kind in enumerate(self._kinds):
            if kind in _PER_BLOCK_KINDS:
                out[p * n : (p + 1) * n] = self._own_sums(p, act)
                continue
            if kind == "perf" and self.kernels[p]._mask:
                sums = masked[self.kernels[p]._mask]
            else:
                if exact is None:
                    exact = self._w_op.matmul(act, dtype=np.float64)
                sums = exact
            self._finish_block(
                out, p, n, act, sums,
                masked_sums=masked_x_sums.get(self.kernels[p]._mask)
                if kind == "perf"
                else None,
            )
        if self._lut_blocks:
            self._subtract_errors(out, n, [act] * self.plans)
        return out

    def _own_sums(self, p: int, act_block: np.ndarray) -> np.ndarray:
        """Block ``p`` evaluated by its own kernel.  A bit-plane LUT runs its
        body rather than its public ``product_sums``, so a fused launch stays
        one ``product_sums_multi`` stage for profilers that wrap both."""
        kernel = self.kernels[p]
        if self._kinds[p] == "bitplane":
            return kernel._bit_plane_sums(act_block)
        return kernel(act_block)

    def _finish_block(
        self,
        out: np.ndarray,
        p: int,
        n: int,
        act_block: np.ndarray,
        sums: np.ndarray,
        masked_sums: np.ndarray | None = None,
    ) -> None:
        """Write block ``p``'s dense sums (+ CV correction) into ``out``.

        ``masked_sums`` optionally carries the per-row sums of
        ``act_block & mask`` already computed while assembling the dense
        product, saving the second full pass over the activations.  LUT
        error terms are subtracted afterwards by ``_subtract_errors``.
        """
        dst = out[p * n : (p + 1) * n]
        kernel = self.kernels[p]
        if self._kinds[p] == "perf" and kernel.control_variate is not None:
            if masked_sums is None:
                x = act_block & kernel._mask
                masked_sums = x.sum(axis=1, dtype=np.int64)
            correction = kernel.control_variate.correction(masked_sums)
            if kernel.control_variate.quantized:
                correction = correction.astype(np.int64)
            np.add(sums, correction, out=dst)
        else:
            dst[...] = sums

    def _subtract_errors(self, out: np.ndarray, n: int, blocks) -> None:
        """Subtract every LUT block's error sums, fused when possible."""
        if self._stacked_error is None:
            for p in self._lut_blocks:
                kernel = self.kernels[p]
                out[p * n : (p + 1) * n] -= kernel._error_sums_compiled(blocks[p])
            return
        # Block-stacked one-hot product: row r of LUT block p selects
        # columns act[r, j] + j*256 + slot(p)*taps*256 of the stacked error
        # matrix — one CSR matmul for all LUT blocks at once.
        rows = len(self._lut_blocks) * n
        width = self.taps * OPERAND_LEVELS
        indices = np.empty((len(self._lut_blocks), n, self.taps), dtype=np.int64)
        for row, p in enumerate(self._lut_blocks):
            offset = self._block_slots[p] * width
            np.add(blocks[p], self._tap_offsets[None, :] + offset, out=indices[row])
        flat = indices.reshape(rows * self.taps)
        if self._ones.shape[0] < flat.shape[0]:
            self._ones = np.ones(flat.shape[0], dtype=np.int8)
        indptr = np.arange(rows + 1, dtype=np.int64) * self.taps
        onehot = _sparse.csr_matrix(
            (self._ones[: flat.shape[0]], flat, indptr),
            shape=(rows, self._stacked_error.shape[0]),
        )
        errors = np.asarray(onehot @ self._stacked_error)
        for row, p in enumerate(self._lut_blocks):
            out[p * n : (p + 1) * n] -= errors[row * n : (row + 1) * n]


__all__ = [
    "DEFAULT_MAX_ERROR_MATRIX_BYTES",
    "BitPlanes",
    "bit_planes",
    "KernelOptions",
    "ProductKernel",
    "AccurateKernel",
    "PerforatedKernel",
    "LUTKernel",
    "ChunkedKernel",
    "CallbackKernel",
    "MultiPlanKernel",
]
