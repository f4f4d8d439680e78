"""Integer execution core shared by quantized convolution and dense layers.

With the affine scheme ``r = s (q - z)`` a real dot product of ``k`` taps
expands into integer arithmetic as

    sum_j w_j a_j = s_w s_a * ( sum_j wq_j aq_j
                                - z_w sum_j aq_j
                                - z_a sum_j wq_j
                                + k z_w z_a )

Only the first term, ``sum_j wq_j aq_j``, involves per-element products and
is therefore the term executed on the (possibly approximate) MAC array.  The
remaining terms are exact integer corrections.  :class:`QuantizedLinearOp`
keeps the weights and the exact correction terms and accepts the raw product
sum from any product model — the accurate matmul by default, or the
approximate / control-variate-corrected sums produced by
:mod:`repro.core.approx_conv`.

The dequantization (:meth:`QuantizedLinearOp.output_real` for one block of
sums, :meth:`QuantizedLinearOp.output_real_stacked` for several plan blocks
over one shared activation block) runs through one body that applies the
correction chain in place on a float64 array.  Callers that own their
float64 sums pass ``overwrite_product_sum=True`` to spare the copy.
"""

from __future__ import annotations

import numpy as np

from repro.quantization.schemes import QuantParams


class QuantizedLinearOp:
    """A quantized ``(patches x taps) @ (taps x filters)`` operation.

    Parameters
    ----------
    weight_codes:
        uint8 array of shape ``(taps, filters)`` — the quantized weights laid
        out exactly as the MAC array consumes them (one column per filter).
    weight_params:
        Quantization parameters of the weights.
    bias:
        Optional real-valued bias per filter, added after dequantization.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        weight_params: QuantParams,
        bias: np.ndarray | None = None,
    ):
        weight_codes = np.asarray(weight_codes)
        if weight_codes.ndim != 2:
            raise ValueError(
                f"weight_codes must be 2-D (taps, filters), got {weight_codes.shape}"
            )
        if weight_codes.dtype != np.uint8:
            raise TypeError(f"weight_codes must be uint8, got {weight_codes.dtype}")
        self.weight_codes = weight_codes
        self.weight_params = weight_params
        self.taps, self.filters = weight_codes.shape
        if bias is None:
            bias = np.zeros(self.filters, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (self.filters,):
            raise ValueError(f"bias must have shape ({self.filters},), got {bias.shape}")
        self.bias = bias
        # Exact per-filter weight-code sums used by the zero-point correction,
        # kept as float64 (integers far below 2^53, so the conversion is exact).
        self._weight_code_sums = weight_codes.sum(axis=0, dtype=np.int64).astype(
            np.float64
        )

    # ------------------------------------------------------------------
    def exact_product_sum(self, act_codes: np.ndarray) -> np.ndarray:
        """Accurate ``sum_j wq_j aq_j`` for every (patch, filter) pair."""
        act = self._check_activations(act_codes)
        return act.astype(np.int64) @ self.weight_codes.astype(np.int64)

    def output_real(
        self,
        act_codes: np.ndarray,
        act_params: QuantParams,
        product_sum: np.ndarray | None = None,
        *,
        overwrite_product_sum: bool = False,
    ) -> np.ndarray:
        """Dequantized real output of the quantized linear operation.

        Parameters
        ----------
        act_codes:
            uint8 activations of shape ``(patches, taps)``.
        act_params:
            Quantization parameters of the activations.
        product_sum:
            Raw ``sum_j product(wq_j, aq_j)`` of shape ``(patches, filters)``.
            When ``None``, the exact sum is used.  Approximate product models
            (perforation, LUT multipliers, control-variate correction) pass
            their own sums here.
        overwrite_product_sum:
            The caller owns ``product_sum`` and does not read it again: a
            C-contiguous float64 array is then dequantized in place and
            returned, sparing a full-size copy.  Off by default, so a
            caller's array is never modified.
        """
        act = self._check_activations(act_codes)
        if product_sum is None:
            product_sum = self.exact_product_sum(act)
        return self._dequantize(act, act_params, product_sum, 1, overwrite_product_sum)

    def output_real_stacked(
        self,
        act_codes: np.ndarray,
        act_params: QuantParams,
        product_sums: np.ndarray,
        plans: int,
        *,
        overwrite_product_sum: bool = False,
    ) -> np.ndarray:
        """Dequantized outputs of ``plans`` product-sum blocks sharing one
        activation block (block ``p`` = rows ``[p*N, (p+1)*N)``).

        Bit-exact with tiling ``act_codes`` ``plans`` times and calling
        :meth:`output_real` once — both run the same body, which computes
        the per-patch activation sums once and broadcasts them across the
        blocks.  ``overwrite_product_sum`` is as in :meth:`output_real`.
        """
        act = self._check_activations(act_codes)
        return self._dequantize(act, act_params, product_sums, plans, overwrite_product_sum)

    def _dequantize(
        self,
        act: np.ndarray,
        act_params: QuantParams,
        product_sums: np.ndarray,
        plans: int,
        overwrite: bool,
    ) -> np.ndarray:
        """The correction chain ``scale * (sums - z_w*Σa - z_a*Σw + K*z_w*z_a)
        + bias`` over ``plans`` stacked blocks of ``act``'s rows.

        Each step is one in-place elementwise operation with the operands
        and order of the textbook expression, so the result is bit-exact
        with evaluating that expression on fresh temporaries, for any float
        input (unquantized control-variate sums included).  The product
        sums are converted to float64 at most once, and the activation
        sums reduce the uint8 codes straight into int64 accumulators
        rather than widening a ``(patches, taps)`` copy first.
        """
        product_sums = np.asarray(product_sums)
        n = act.shape[0]
        expected = (plans * n, self.filters)
        if product_sums.shape != expected:
            raise ValueError(
                f"product_sums must have shape {expected}, got {product_sums.shape}"
            )
        owned = (
            overwrite
            and product_sums.dtype == np.float64
            and product_sums.flags.c_contiguous
            and product_sums.flags.writeable
        )
        out = product_sums if owned else product_sums.astype(np.float64, order="C")
        act_sums = act.sum(axis=1, keepdims=True, dtype=np.int64).astype(np.float64)
        z_w = float(self.weight_params.zero_point)
        z_a = float(act_params.zero_point)
        blocks = out.reshape(plans, n, self.filters)
        np.subtract(blocks, (z_w * act_sums)[None], out=blocks)
        np.subtract(blocks, (z_a * self._weight_code_sums)[None, None, :], out=blocks)
        np.add(blocks, float(self.taps) * z_w * z_a, out=blocks)
        np.multiply(blocks, self.weight_params.scale * act_params.scale, out=blocks)
        np.add(blocks, self.bias[None, None, :], out=blocks)
        return out

    # ------------------------------------------------------------------
    def _check_activations(self, act_codes: np.ndarray) -> np.ndarray:
        act = np.asarray(act_codes)
        if act.ndim != 2 or act.shape[1] != self.taps:
            raise ValueError(
                f"activations must have shape (patches, {self.taps}), got {act.shape}"
            )
        if act.dtype != np.uint8:
            raise TypeError(f"activations must be uint8, got {act.dtype}")
        return act
