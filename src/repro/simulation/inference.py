"""Approximate quantized inference executor (the TFApprox substitute).

The executor re-runs a trained float :class:`repro.nn.graph.Graph` with its
convolution and dense layers executed in the quantized integer domain.  The
per-element products of those integer accumulations — the operations the
MAC array performs — are produced by a pluggable :class:`ProductModel`:

* :class:`AccurateProduct` — the accurate array (quantization error only);
* :class:`PerforatedProduct` — the paper's perforated multiplier, with or
  without the control-variate MAC+ column;
* :class:`LUTProduct` — an arbitrary library multiplier (used by the
  state-of-the-art baselines), optionally with ALWANN-style weight tuning.

An :class:`ExecutionPlan` assigns one product model per MAC layer, which is
how layer-wise techniques (ALWANN [7], the reconfigurable approach [8]) are
expressed.  Everything that is not a convolution or dense layer (batch-norm,
ReLU, pooling, merges) runs in float exactly as during training, matching
the fake-quantization methodology of the TFApprox flow the paper uses.

Kernel compilation
------------------
Every :class:`ProductModel` can be *compiled* against one layer's quantized
weights via :meth:`ProductModel.compile`, yielding a
:class:`repro.core.product_kernels.ProductKernel` that hoists all
weight-dependent work (int64 weight conversion, LUT error-matrix
construction, control constants) out of the per-batch hot loop.  The
executor compiles each (layer, group, product model) combination once,
caches the kernel for the lifetime of the product-model instance, and reuses
persistent uint8 activation buffers across batches, so a sweep that runs the
same plan over a full test set performs only the unavoidable per-batch work.
The legacy uncompiled path is kept behind ``use_compiled=False`` and the
``pytest -m engine`` parity suite pins both paths bit-exact.

Engine backends
---------------
*How* kernels are compiled is pluggable: the executor's ``engine_backend``
parameter selects an :class:`repro.core.backends.EngineBackend` by name —
``numpy`` (default BLAS kernels), ``numba`` (JIT per-tap loops, available
only when numba is installed) or ``lowmem`` (capped LUT error matrix plus
chunked evaluation).  All backends are bit-exact; they trade speed and
memory only.  Selection is exposed end to end::

    executor = ApproximateExecutor(model, calib, engine_backend="lowmem")
    parallel_sweep(models, datasets, engine_backend="numba")  # falls back
    # CLI: python -m repro accuracy --model vgg13 --engine-backend lowmem
    # CLI: python -m repro backends   # list backends + availability

An unavailable backend (e.g. ``numba`` without the package) resolves to the
numpy backend with a warning, so scripts stay portable.

Cross-plan reuse
----------------
A Table III-style sweep re-runs the *same* trained network and the *same*
eval batches under many execution plans, so most of the simulated work is
plan-invariant and the executor reuses it at two levels:

* **Activation codes** — the quantized input codes of the first MAC layer
  depend only on the images, so they are cached per input batch (keyed by
  the identity of the underlying buffer) and reused across plans.  Disable
  with ``reuse_plan_invariant_acts=False`` if the caller mutates input
  arrays in place between calls.
* **Plan-invariant prefix** — per-layer plans usually leave the early
  layers exact, so whole leading chunks of the network compute identical
  outputs under several plans of a sweep.  :meth:`ApproximateExecutor.\
set_plan_context` takes the sweep's plan set and resolves its sharing
  structure (via :meth:`ProductModel.fingerprint`): at every depth where
  two or more plans stop agreeing, ``forward`` records the shared
  prefix's boundary activations per input batch, and later calls under a
  plan matching a recorded prefix resume at the deepest such checkpoint —
  the classical "deepest prefix all plans agree on" is the shallowest of
  these levels.  The quantized input codes of each checkpoint layer are
  plan-invariant among the sharing plans and join the activation-code
  cache above.  Each checkpoint costs one float copy of the boundary
  activations the remaining layers consume (typically a single
  ``(batch, H, W, C)`` array); ``prefix_cache_batches`` bounds the number
  of retained batches per depth.  Pair with
  :func:`repro.simulation.campaign.order_plan_cells`, which orders sweep
  cells so prefix-sharing plans run back to back.  Disable with
  ``reuse_plan_invariant_prefix=False`` (the CLI exposes this as
  ``--no-prefix-reuse``).

Both reuse levels are bit-exact: a cached value is only ever substituted
for a recomputation that would have produced the identical array.
"""

from __future__ import annotations

import abc
import hashlib
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.accelerator_model import AcceleratorConfig
from repro.core.backends import EngineBackend, resolve_backend
from repro.core.approx_conv import (
    accurate_product_sums,
    lut_product_sums,
    perforated_product_sums,
)
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    KernelOptions,
    LUTKernel,
    PerforatedKernel,
    ProductKernel,
)
from repro.multipliers.base import Multiplier
from repro.nn.graph import Graph
from repro.nn.im2col import im2col
from repro.nn.layers import Conv2D, Dense
from repro.quantization.qlayers import QuantizedLinearOp
from repro.quantization.quantize import calibrate_minmax, calibrate_percentile, quantize
from repro.quantization.schemes import QuantParams


class ProductModel(abc.ABC):
    """Strategy producing the raw product sums of one quantized linear op."""

    @abc.abstractmethod
    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        """Return ``sum_j product(wq_j, aq_j)`` of shape ``(patches, filters)``."""

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        """Compile this model against one layer's weights (run once per plan).

        The default implementation wraps :meth:`product_sums`; subclasses
        with an exploitable structure return a specialized kernel instead.
        ``options`` carries backend-tunable knobs (see
        :class:`~repro.core.product_kernels.KernelOptions`); models honor
        the knobs that apply to them and ignore the rest.
        """
        return CallbackKernel(self, weight_codes, control_variate)

    def fingerprint(self) -> tuple:
        """Hashable token identifying the *numerical behavior* of this model.

        Two product models with equal fingerprints produce bit-identical
        product sums for every input, which is what the cross-plan prefix
        reuse keys on.  The default is instance identity — conservative but
        never wrong; subclasses whose behavior is fully determined by their
        configuration return a structural token instead.  The instance is
        anchored by a weak reference (never a raw ``id()``): fingerprints
        outlive the plan objects inside cached checkpoints, and a recycled
        id must not let a new, different model match an old checkpoint.  A
        dead weakref only compares equal to itself.
        """
        return (type(self).__qualname__, weakref.ref(self))

    @property
    def name(self) -> str:
        return type(self).__name__


class AccurateProduct(ProductModel):
    """Exact integer products — the accurate MAC array."""

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        return accurate_product_sums(act_codes, weight_codes)

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        return AccurateKernel(weight_codes)

    def fingerprint(self) -> tuple:
        return ("accurate",)


class PerforatedProduct(ProductModel):
    """Perforated multiplier, optionally corrected by the control variate.

    ``m = 0`` is the degenerate accurate array: products are identical to
    :class:`AccurateProduct` and the control-variate correction is exactly
    zero, matching :func:`repro.core.approx_conv.perforated_product_sums`.
    """

    def __init__(self, m: int, use_control_variate: bool = True):
        if not 0 <= int(m) < 8:
            raise ValueError(f"m must be within [0, 7], got {m}")
        self.m = int(m)
        self.use_control_variate = bool(use_control_variate)

    @classmethod
    def from_config(cls, config: AcceleratorConfig) -> "ProductModel":
        """Product model implied by an accelerator configuration."""
        if not config.is_approximate:
            return AccurateProduct()
        return cls(config.perforation, config.use_control_variate)

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        cv = control_variate if self.use_control_variate else None
        return perforated_product_sums(act_codes, weight_codes, self.m, cv)

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        cv = control_variate if self.use_control_variate else None
        return PerforatedKernel(weight_codes, self.m, cv)

    def fingerprint(self) -> tuple:
        # m=0 is bit-identical to the accurate array (the control-variate
        # correction is exactly zero), so it shares the accurate fingerprint.
        if self.m == 0:
            return ("accurate",)
        return ("perforated", self.m, self.use_control_variate)

    @property
    def name(self) -> str:
        suffix = "+V" if self.use_control_variate else ""
        return f"perforated_m{self.m}{suffix}"


class LUTProduct(ProductModel):
    """Arbitrary approximate multiplier evaluated through its 256x256 LUT."""

    def __init__(self, multiplier: Multiplier, chunk_patches: int = 256):
        self.multiplier = multiplier
        self._lut = multiplier.build_lut()
        self.chunk_patches = int(chunk_patches)
        # Products are fully determined by the table contents, so the
        # fingerprint digests the table — two LUT products over equal tables
        # are interchangeable regardless of the multiplier's name.
        self._lut_digest = hashlib.sha1(
            np.ascontiguousarray(self._lut).tobytes()
        ).hexdigest()

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        return lut_product_sums(
            act_codes, weight_codes, self._lut, chunk_patches=self.chunk_patches
        )

    @property
    def lut(self) -> np.ndarray:
        """The precomputed 256x256 product table (shared by all backends)."""
        return self._lut

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        if options is None:
            options = KernelOptions()
        return LUTKernel(
            weight_codes,
            self._lut,
            max_error_matrix_bytes=options.max_error_matrix_bytes,
        )

    def fingerprint(self) -> tuple:
        return ("lut", self._lut_digest)

    @property
    def name(self) -> str:
        return f"lut[{self.multiplier.name}]"


@dataclass
class ExecutionPlan:
    """Assignment of a product model to every MAC (conv/dense) node."""

    default: ProductModel
    per_layer: dict[str, ProductModel]

    @classmethod
    def uniform(cls, model: ProductModel) -> "ExecutionPlan":
        """Use the same product model for every layer."""
        return cls(default=model, per_layer={})

    @classmethod
    def from_config(cls, config: AcceleratorConfig) -> "ExecutionPlan":
        """Plan implied by a single accelerator configuration."""
        return cls.uniform(PerforatedProduct.from_config(config))

    def model_for(self, layer_name: str) -> ProductModel:
        return self.per_layer.get(layer_name, self.default)

    def with_layer(self, layer_name: str, model: ProductModel) -> "ExecutionPlan":
        """Return a copy of the plan with one layer overridden."""
        per_layer = dict(self.per_layer)
        per_layer[layer_name] = model
        return ExecutionPlan(default=self.default, per_layer=per_layer)

    def fingerprints(self, layer_names: "Sequence[str]") -> tuple:
        """Per-layer :meth:`ProductModel.fingerprint` tokens of this plan.

        Two plans with equal fingerprints over the same layer names compute
        bit-identical outputs through those layers — the invariant behind
        cross-plan prefix reuse and the prefix-aware sweep scheduler.
        """
        return tuple(self.model_for(name).fingerprint() for name in layer_names)


def plan_fingerprint_sort_key(fingerprints: Sequence[tuple]) -> tuple[str, ...]:
    """Lexicographic sort key of one plan's per-layer fingerprint sequence.

    Fingerprint elements are heterogeneous tuples (strings, ints, weakrefs),
    so sequences are compared by element ``repr`` to avoid cross-type
    comparisons.  Equal prefixes sort adjacent — the property both the
    executor's checkpoint-depth computation and the sweep scheduler
    (:func:`repro.simulation.campaign.order_plan_cells`) rely on; they must
    share this key so schedule adjacency matches checkpoint structure.
    """
    return tuple(repr(fp) for fp in fingerprints)


@dataclass
class _QuantizedMacNode:
    """Pre-quantized data of one conv/dense node (one entry per group)."""

    node_name: str
    ops: list[QuantizedLinearOp]
    weight_overrides: list[np.ndarray | None]
    control_variates: list[ControlVariate]
    act_params: QuantParams


@dataclass(frozen=True)
class _PlanContext:
    """Resolved plan-invariant structure of one sweep's plan set.

    Built by :meth:`ApproximateExecutor.set_plan_context`.  ``depths`` are
    the checkpoint depths — the MAC-layer counts at which at least two
    plans of the set stop agreeing (every pairwise longest-common-prefix
    length).  For each depth ``d``: ``boundary_index[d]`` is the node index
    of MAC layer ``d`` (``len(nodes)`` when ``d`` covers the whole net),
    ``needed[d]`` names the activations the remaining nodes consume, and
    ``shared[d]`` holds the fingerprint prefixes of length ``d`` assigned
    by two or more plans — the only prefixes worth checkpointing.
    ``global_depth`` is the deepest prefix on which *all* plans agree.
    ``checkpoint_macs`` maps each checkpoint MAC layer name to its depth.
    """

    mac_names: tuple[str, ...]
    depths: tuple[int, ...]
    max_depth: int
    global_depth: int
    boundary_index: dict[int, int]
    needed: dict[int, tuple[str, ...]]
    shared: dict[int, frozenset]
    checkpoint_macs: dict[str, int]


#: Row budget of one stacked suffix launch (images per chunk scale as
#: target // lines).  Tuned empirically on the fused sweep bench (128 and
#: 256 tie, 512 and 1024 are slower): far below it the chunked walk
#: degenerates into the per-plan loop's call counts; far above it the
#: stacked activations (and every astype/matmul temp behind them) fall out
#: of cache into allocation churn.
_STACKED_ROWS_TARGET = 256

class ApproximateExecutor:
    """Runs a trained model with quantized, possibly approximate, MAC layers.

    Parameters
    ----------
    model:
        The trained float model.
    calibration_images:
        A batch of representative inputs used to calibrate the activation
        quantizers of every MAC layer (post-training quantization).
    activation_percentile:
        Percentile used for activation calibration; 100 gives min/max.
    use_compiled:
        Run each MAC layer through its compiled
        :class:`~repro.core.product_kernels.ProductKernel` (compiled once
        per (layer, group, product model) and cached).  Disable to force
        the legacy per-batch ``ProductModel.product_sums`` path; both paths
        are bit-exact.
    engine_backend:
        Name (or instance) of the :class:`~repro.core.backends.EngineBackend`
        that compiles the kernels — ``"numpy"`` (default), ``"numba"`` or
        ``"lowmem"``.  An unavailable backend falls back to numpy with a
        warning; all backends are bit-exact.
    reuse_plan_invariant_acts:
        Cache the quantized activation codes of the first MAC layer (and,
        under an active plan context, of every checkpoint-depth MAC layer —
        their inputs are cached prefix boundaries) per input batch and
        reuse them across execution plans.  The cache is keyed by the
        identity of the input buffer — disable when input arrays are
        mutated in place between ``forward`` calls.
    act_cache_batches:
        How many distinct batches the plan-invariant cache retains per
        layer (LRU).  A multi-plan sweep over an eval set of up to
        ``act_cache_batches`` batches quantizes each batch once; each entry
        costs one uint8 copy of the first MAC layer's input.
    reuse_plan_invariant_prefix:
        Under an active plan context (:meth:`set_plan_context`), checkpoint
        the boundary activations of plan-shared layer prefixes per input
        batch and resume ``forward`` at the deepest checkpoint matching
        the plan.  A sweep cell then re-runs only the layers past its last
        shared prefix.  Bit-exact; disable to force full re-execution (the
        CLI exposes this as ``--no-prefix-reuse``).
    prefix_cache_batches:
        How many distinct batches the prefix cache retains per checkpoint
        depth (LRU); defaults to ``act_cache_batches``.  Each entry costs
        one float copy of the boundary activations the remaining layers
        consume — typically a single ``(batch, H, W, C)`` array, so sized
        like one input batch of the checkpoint layer.
    """

    def __init__(
        self,
        model: Graph,
        calibration_images: np.ndarray,
        activation_percentile: float = 99.9,
        use_compiled: bool = True,
        engine_backend: str | EngineBackend | None = None,
        reuse_plan_invariant_acts: bool = True,
        act_cache_batches: int = 16,
        reuse_plan_invariant_prefix: bool = True,
        prefix_cache_batches: int | None = None,
    ):
        self.model = model
        self.use_compiled = bool(use_compiled)
        self.engine_backend = resolve_backend(engine_backend)
        self._nodes: dict[str, _QuantizedMacNode] = {}
        # Compiled kernels, keyed by product-model instance (weakly, so plans
        # can be discarded) then by (layer, group).
        self._kernel_cache: "weakref.WeakKeyDictionary[ProductModel, dict[tuple[str, int], ProductKernel]]" = (
            weakref.WeakKeyDictionary()
        )
        # Batch-persistent uint8 activation-code buffers per (layer, group).
        self._act_buffers: dict[tuple[str, int], np.ndarray] = {}
        # Cross-plan reuse of plan-invariant quantized activations: the
        # first MAC layer's input never depends on the plan, and the first
        # *divergent* MAC layer's input is plan-invariant within a plan
        # context.  Per layer key, a small LRU of (identity token, codes)
        # pairs keeps reuse alive for batched eval sets, not just
        # single-batch calls.
        self.reuse_plan_invariant_acts = bool(reuse_plan_invariant_acts)
        self.act_cache_batches = int(act_cache_batches)
        mac_nodes = model.conv_dense_nodes()
        self._first_mac_name = mac_nodes[0].name if mac_nodes else None
        self._act_cache: dict[tuple[str, int], list[tuple[tuple, np.ndarray]]] = {}
        self.act_cache_hits = 0
        self.act_cache_misses = 0
        # Cross-plan reuse of plan-invariant layer prefixes: under an active
        # plan context, per-depth LRUs of (identity token, fingerprint
        # prefix, boundary activations) checkpoints let forward calls
        # resume at the deepest layer whose prefix matches the plan.
        self.reuse_plan_invariant_prefix = bool(reuse_plan_invariant_prefix)
        self.prefix_cache_batches = int(
            act_cache_batches if prefix_cache_batches is None else prefix_cache_batches
        )
        self._plan_context: _PlanContext | None = None
        self._prefix_cache: dict[int, list[tuple[tuple, tuple, dict[str, np.ndarray]]]] = {}
        # Set by logits() while an eval set cycles through more batches than
        # the LRU can hold: storing checkpoints would then evict every entry
        # before its batch comes around again — maximum memory, zero hits.
        self._suppress_prefix_stores = False
        self.prefix_cache_hits = 0
        self.prefix_cache_misses = 0
        # Fused multi-plan launches: compiled MultiPlanKernels keyed by
        # (layer, group, per-block fingerprints), plus the observability
        # counters surfaced through EvaluationService.stats().
        self._multi_kernel_cache: dict[tuple, object] = {}
        self.fused_launches = 0
        self.fused_plans_total = 0
        self._calibrate(calibration_images, activation_percentile)

    @classmethod
    def from_config(
        cls,
        model: Graph,
        calibration_images: np.ndarray,
        config: AcceleratorConfig,
        **kwargs,
    ) -> "ApproximateExecutor":
        """Executor honoring ``config.engine_backend``.

        Pair with :meth:`ExecutionPlan.from_config` on the same config to
        run the product model the accelerator configuration implies::

            executor = ApproximateExecutor.from_config(model, calib, config)
            logits = executor.forward(images, ExecutionPlan.from_config(config))
        """
        return cls(
            model,
            calibration_images,
            engine_backend=config.engine_backend,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def _calibrate(self, images: np.ndarray, percentile: float) -> None:
        _, activations = self.model.forward(images, training=False, return_activations=True)
        for node in self.model.conv_dense_nodes():
            layer = node.layer
            parent_output = activations[node.inputs[0]]
            if percentile >= 100.0:
                act_params = calibrate_minmax(parent_output)
            else:
                act_params = calibrate_percentile(parent_output, percentile)
            ops: list[QuantizedLinearOp] = []
            cvs: list[ControlVariate] = []
            for weight_matrix, bias in _group_weight_matrices(layer):
                weight_params = calibrate_minmax(weight_matrix)
                weight_codes = quantize(weight_matrix, weight_params)
                ops.append(QuantizedLinearOp(weight_codes, weight_params, bias))
                cvs.append(ControlVariate.from_weight_matrix(weight_codes))
            self._nodes[node.name] = _QuantizedMacNode(
                node_name=node.name,
                ops=ops,
                weight_overrides=[None] * len(ops),
                control_variates=cvs,
                act_params=act_params,
            )

    # ------------------------------------------------------------------
    def mac_layer_names(self) -> list[str]:
        """Names of the quantized MAC layers, in execution order."""
        return [node.name for node in self.model.conv_dense_nodes()]

    def quantized_weights(self, layer_name: str) -> list[np.ndarray]:
        """The uint8 weight matrices (one per group) of a MAC layer."""
        return [op.weight_codes for op in self._nodes[layer_name].ops]

    def set_weight_override(self, layer_name: str, codes_per_group: list[np.ndarray]) -> None:
        """Replace the weight codes used at inference time (ALWANN weight tuning).

        The override only affects the products sent to the MAC array; the
        dequantization, zero-point corrections and control variates keep
        using the original weights, mirroring how ALWANN retunes the stored
        weights without retraining.
        """
        node = self._nodes[layer_name]
        if len(codes_per_group) != len(node.ops):
            raise ValueError(
                f"expected {len(node.ops)} weight matrices for layer {layer_name!r}"
            )
        overrides: list[np.ndarray | None] = []
        for op, codes in zip(node.ops, codes_per_group):
            codes = np.asarray(codes, dtype=np.uint8)
            if codes.shape != op.weight_codes.shape:
                raise ValueError("override shape mismatch")
            overrides.append(codes)
        node.weight_overrides = overrides
        self._kernel_cache = weakref.WeakKeyDictionary()
        self._multi_kernel_cache = {}
        # Prefix checkpoints embed the (old) weights of prefix MAC layers.
        self._prefix_cache = {}

    def clear_weight_overrides(self) -> None:
        """Remove all inference-time weight overrides."""
        for node in self._nodes.values():
            node.weight_overrides = [None] * len(node.ops)
        self._kernel_cache = weakref.WeakKeyDictionary()
        self._multi_kernel_cache = {}
        self._prefix_cache = {}

    # ------------------------------------------------------------------
    # Plan-invariant prefix reuse
    # ------------------------------------------------------------------
    def plan_invariant_prefix(self, plans: Iterable[ExecutionPlan]) -> int:
        """Number of leading MAC layers on which all ``plans`` agree.

        Agreement is by :meth:`ProductModel.fingerprint`: the returned depth
        is the largest ``k`` such that every plan assigns a behaviorally
        identical product model to each of the first ``k`` MAC layers.
        """
        plans = list(plans)
        depth = 0
        for name in self.mac_layer_names():
            first = None
            for plan in plans:
                fp = plan.model_for(name).fingerprint()
                if first is None:
                    first = fp
                elif fp != first:
                    return depth
            depth += 1
        return depth

    def _prefix_boundary(self, depth: int) -> tuple[int, tuple[str, ...]]:
        """Node index of MAC layer ``depth`` and the activations needed past it."""
        mac_names = self.mac_layer_names()
        if depth < len(mac_names):
            boundary_index = next(
                i
                for i, node in enumerate(self.model.nodes)
                if node.name == mac_names[depth]
            )
        else:
            boundary_index = len(self.model.nodes)
        prefix_names = {node.name for node in self.model.nodes[:boundary_index]}
        needed = set()
        for node in self.model.nodes[boundary_index:]:
            for parent in node.inputs:
                if parent == "input" or parent in prefix_names:
                    needed.add(parent)
        if boundary_index == len(self.model.nodes):
            # The checkpoint covers the whole network: it *is* the output.
            needed.add(self.model.output_name)
        return boundary_index, tuple(sorted(needed))

    def set_plan_context(self, plans: Iterable[ExecutionPlan]) -> int:
        """Declare the plan set of an upcoming sweep; returns the global depth.

        Resolves the plan set's sharing structure and arms the prefix
        checkpoint cache: for every depth at which two or more plans stop
        agreeing, :meth:`forward` records the boundary activations of the
        shared prefix per input batch, and later calls under a plan
        matching a recorded prefix resume at the deepest such checkpoint
        instead of re-running the prefix.  Pair with a schedule that keeps
        prefix-sharing plans adjacent (see
        :func:`repro.simulation.campaign.order_plan_cells`) for maximal
        reuse.  Plans outside the declared set are still executed
        correctly — checkpoints are only substituted on an exact
        fingerprint-prefix match — so the context is always safe to leave
        armed.  Any previous context's checkpoints are dropped.

        Returns the deepest prefix on which *all* plans agree (the
        classical plan-invariant prefix).
        """
        plans = list(plans)
        if not plans:
            raise ValueError("plan context requires at least one plan")
        mac_names = tuple(self.mac_layer_names())
        global_depth = self.plan_invariant_prefix(plans)
        fp_seqs = [plan.fingerprints(mac_names) for plan in plans]
        # Checkpoint depths: every pairwise longest-common-prefix length.
        # Adjacent pairs of the lexicographically sorted sequences realize
        # every pairwise LCP, so sorting keeps this O(n log n).
        sorted_seqs = sorted(fp_seqs, key=plan_fingerprint_sort_key)
        depths: set[int] = set()
        for left, right in zip(sorted_seqs, sorted_seqs[1:]):
            lcp = 0
            while lcp < len(left) and left[lcp] == right[lcp]:
                lcp += 1
            if lcp > 0:
                depths.add(lcp)
        boundary_index: dict[int, int] = {}
        needed: dict[int, tuple[str, ...]] = {}
        shared: dict[int, frozenset] = {}
        for depth in depths:
            boundary_index[depth], needed[depth] = self._prefix_boundary(depth)
            # Only prefixes assigned by >= 2 plans can ever be re-used; a
            # singleton plan's checkpoint would just burn memory.
            counts: dict[tuple, int] = {}
            for seq in fp_seqs:
                counts[seq[:depth]] = counts.get(seq[:depth], 0) + 1
            shared[depth] = frozenset(fp for fp, n in counts.items() if n >= 2)
        ordered = tuple(sorted(depths))
        self._plan_context = _PlanContext(
            mac_names=mac_names,
            depths=ordered,
            max_depth=max(ordered) if ordered else 0,
            global_depth=global_depth,
            boundary_index=boundary_index,
            needed=needed,
            shared=shared,
            checkpoint_macs={
                mac_names[d]: d for d in ordered if d < len(mac_names)
            },
        )
        self._prefix_cache = {}
        return global_depth

    def clear_plan_context(self) -> None:
        """Drop the plan context and every prefix checkpoint."""
        self._plan_context = None
        self._prefix_cache = {}

    @property
    def plan_context(self) -> _PlanContext | None:
        """The active plan context, if any (read-only)."""
        return self._plan_context

    def reuse_stats(self) -> dict[str, int]:
        """Hit/miss counters of both cross-plan caches (cumulative)."""
        return {
            "act_cache_hits": self.act_cache_hits,
            "act_cache_misses": self.act_cache_misses,
            "prefix_cache_hits": self.prefix_cache_hits,
            "prefix_cache_misses": self.prefix_cache_misses,
        }

    def fused_stats(self) -> dict[str, int]:
        """Fused multi-plan launch counters (cumulative)."""
        return {
            "fused_launches": self.fused_launches,
            "fused_plans_total": self.fused_plans_total,
        }

    @property
    def fused_multi_plan(self) -> bool:
        """Whether :meth:`forward_many` can take the fused multi-plan path.

        Requires the compiled engine and a backend advertising the
        ``fused_multi_plan`` capability flag; otherwise ``forward_many``
        degrades to the bit-exact per-plan loop.
        """
        return self.use_compiled and self.engine_backend.fused_multi_plan

    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
        """Run quantized inference on ``images`` under ``plan``.

        With an armed plan context (:meth:`set_plan_context`), execution
        resumes at the deepest cached checkpoint whose fingerprint prefix
        matches ``plan`` for this batch, and records checkpoints at every
        context depth it passes whose prefix is shared with other plans of
        the set — bit-exact with full execution.
        """
        ctx = self._plan_context
        if ctx is not None and self.reuse_plan_invariant_prefix and ctx.depths:
            return self._forward_with_context(images, plan, ctx)
        return self._run_nodes({"input": images}, 0, plan)

    def _run_nodes(
        self,
        activations: dict[str, np.ndarray],
        start_index: int,
        plan: ExecutionPlan,
        checkpoints: "list[tuple[int, int, tuple, tuple]] | None" = None,
        token: tuple | None = None,
    ) -> np.ndarray:
        """Execute nodes from ``start_index`` on top of seeded ``activations``.

        ``checkpoints`` is an ascending list of pending snapshot points
        ``(node index, depth, fingerprint prefix, needed names)``: when
        execution reaches one, the named activations are recorded into the
        prefix cache under ``(token, fingerprint prefix)``.
        """
        pending = list(checkpoints) if checkpoints else []
        for index, node in enumerate(self.model.nodes[start_index:], start=start_index):
            while pending and pending[0][0] == index:
                self._store_checkpoint(activations, pending.pop(0), token)
            inputs = [activations[name] for name in node.inputs]
            if node.name in self._nodes:
                activations[node.name] = self._run_mac_node(
                    node.name, node.layer, inputs[0], plan.model_for(node.name)
                )
            else:
                activations[node.name] = node.layer.forward(*inputs, training=False)
        while pending:  # checkpoints at the very end of the network
            self._store_checkpoint(activations, pending.pop(0), token)
        return activations[self.model.output_name]

    def _store_checkpoint(
        self,
        activations: dict[str, np.ndarray],
        checkpoint: tuple[int, int, tuple, tuple],
        token: tuple,
    ) -> None:
        if self._suppress_prefix_stores:
            return
        _, depth, fp_prefix, needed = checkpoint
        # The boundary holds *references*, not copies.  This is safe because
        # every Layer.forward and ProductKernel allocates a fresh output
        # array per call (nothing upstream reuses a persistent output
        # buffer), and it is what lets the activation-code cache recognize
        # a resumed boundary array by identity.  If a prefix layer ever
        # gains a persistent output buffer, these entries must copy.
        boundary = {name: activations[name] for name in needed}
        entries = self._prefix_cache.setdefault(depth, [])
        entries.insert(0, (token, fp_prefix, boundary))
        del entries[self.prefix_cache_batches :]

    def _forward_with_context(
        self, images: np.ndarray, plan: ExecutionPlan, ctx: _PlanContext
    ) -> np.ndarray:
        """Forward pass resuming at the deepest matching prefix checkpoint."""
        fps = plan.fingerprints(ctx.mac_names[: ctx.max_depth])
        token = _array_identity_token(images)
        activations: dict[str, np.ndarray] | None = None
        start_index = 0
        resumed_depth = 0
        for depth in reversed(ctx.depths):
            entries = self._prefix_cache.get(depth)
            if not entries:
                continue
            fp_prefix = fps[:depth]
            for index, (cached_token, cached_fp, boundary) in enumerate(entries):
                if cached_fp == fp_prefix and _tokens_match(cached_token, token):
                    if index:
                        entries.insert(0, entries.pop(index))
                    activations = dict(boundary)
                    start_index = ctx.boundary_index[depth]
                    resumed_depth = depth
                    break
            if activations is not None:
                break
        if activations is None:
            self.prefix_cache_misses += 1
            activations = {"input": images}
        else:
            self.prefix_cache_hits += 1
            if start_index == len(self.model.nodes):
                return activations[self.model.output_name]
        # Snapshot points still ahead of the resume point whose prefix at
        # least one *other* plan of the context shares.
        checkpoints = [
            (ctx.boundary_index[depth], depth, fps[:depth], ctx.needed[depth])
            for depth in ctx.depths
            if depth > resumed_depth and fps[:depth] in ctx.shared[depth]
        ]
        return self._run_nodes(activations, start_index, plan, checkpoints, token)

    def logits(self, images: np.ndarray, plan: ExecutionPlan, batch_size: int = 256) -> np.ndarray:
        """Batched forward pass returning the concatenated logits.

        When the eval set spans more batches than ``prefix_cache_batches``,
        a plan-major sweep would evict every prefix checkpoint before its
        batch is revisited under the next plan — paying peak checkpoint
        memory for zero hits.  Checkpoint *stores* are therefore suppressed
        from batch ``prefix_cache_batches`` onward: the first cap-many
        batches stay pinned (same peak memory, never evicted in plan-major
        order), so every later plan still resumes on them; lookups and the
        activation-code cache work for all batches.
        """
        outputs = []
        previous = self._suppress_prefix_stores
        try:
            for batch_index, start in enumerate(range(0, images.shape[0], batch_size)):
                self._suppress_prefix_stores = (
                    previous or batch_index >= self.prefix_cache_batches
                )
                outputs.append(self.forward(images[start : start + batch_size], plan))
        finally:
            self._suppress_prefix_stores = previous
        return np.concatenate(outputs, axis=0)

    def predict(self, images: np.ndarray, plan: ExecutionPlan, batch_size: int = 256) -> np.ndarray:
        """Predicted class labels."""
        return self.logits(images, plan, batch_size=batch_size).argmax(axis=1)

    # ------------------------------------------------------------------
    # Fused multi-plan evaluation
    def forward_many(
        self, images: np.ndarray, plans: Sequence[ExecutionPlan]
    ) -> list[np.ndarray]:
        """Run quantized inference under every plan of ``plans`` at once.

        Bit-exact with ``[self.forward(images, p) for p in plans]``, but the
        shared plan-invariant prefix is walked once (resuming from PR 3
        checkpoints when the plan context is armed) and, from each divergence
        depth on, all diverging plans ride a single stacked backend launch
        per MAC layer (:meth:`EngineBackend.compile_multi`) instead of one
        launch per plan.  Falls back to the per-plan loop when the backend
        lacks the ``fused_multi_plan`` capability, the legacy (non-compiled)
        engine is selected, or only one distinct plan is present.
        """
        plans = list(plans)
        if not plans:
            return []
        if len(plans) == 1 or not self.fused_multi_plan:
            return [self.forward(images, plan) for plan in plans]
        mac_names = tuple(self.mac_layer_names())
        fp_seqs = [plan.fingerprints(mac_names) for plan in plans]
        # Dedupe plans by their full fingerprint sequence: identical plans
        # (even distinct objects) share one evaluation line.
        line_of: dict[tuple, int] = {}
        reps: list[ExecutionPlan] = []
        seqs: list[tuple] = []
        for plan, seq in zip(plans, fp_seqs):
            if seq not in line_of:
                line_of[seq] = len(reps)
                reps.append(plan)
                seqs.append(seq)
        if len(reps) == 1 or not mac_names:
            out = self.forward(images, reps[0])
            return [out] * len(plans)
        # Sort lines so prefix-sharing plans are adjacent: splits then form
        # contiguous runs and every divergence is a cut between neighbours.
        order = sorted(range(len(reps)), key=lambda i: plan_fingerprint_sort_key(seqs[i]))
        lines = [seqs[i] for i in order]
        line_plans = [reps[i] for i in order]
        position = {seq: pos for pos, seq in enumerate(lines)}
        stacked = self._forward_many_lines(images, lines, line_plans)
        batch = images.shape[0]
        return [
            stacked[position[seq] * batch : (position[seq] + 1) * batch]
            for seq in fp_seqs
        ]

    def _forward_many_lines(
        self,
        images: np.ndarray,
        lines: list[tuple],
        line_plans: list[ExecutionPlan],
    ) -> np.ndarray:
        """Stacked walk over deduped, sorted plan "lines"; returns the
        ``(lines * batch, ...)`` output stack in line order."""
        num_lines = len(lines)
        batch = images.shape[0]
        mac_names = tuple(self.mac_layer_names())
        mac_depth = {name: d for d, name in enumerate(mac_names)}
        depth_count = len(mac_names)
        # Adjacent LCPs of the sorted lines; splits[d] holds the boundary
        # positions (between line i and i+1) that open at MAC depth d.
        splits: dict[int, list[int]] = {}
        first_split = depth_count
        for i in range(num_lines - 1):
            left, right = lines[i], lines[i + 1]
            lcp = 0
            while lcp < depth_count and left[lcp] == right[lcp]:
                lcp += 1
            splits.setdefault(lcp, []).append(i)
            first_split = min(first_split, lcp)
        token = _array_identity_token(images)
        fps = lines[0]
        ctx = self._plan_context
        activations: dict[str, np.ndarray] | None = None
        start_index = 0
        resumed_depth = 0
        pending: list[tuple[int, int, tuple, tuple]] = []
        if ctx is not None and self.reuse_plan_invariant_prefix and ctx.depths:
            # Resume from the deepest checkpoint within the single-block
            # region (depth <= first_split: beyond it the walk is stacked
            # and checkpoint boundaries would no longer be per-plan arrays).
            for depth in reversed(ctx.depths):
                if depth > first_split:
                    continue
                entries = self._prefix_cache.get(depth)
                if not entries:
                    continue
                fp_prefix = fps[:depth]
                for index, (cached_token, cached_fp, boundary) in enumerate(entries):
                    if cached_fp == fp_prefix and _tokens_match(cached_token, token):
                        if index:
                            entries.insert(0, entries.pop(index))
                        activations = dict(boundary)
                        start_index = ctx.boundary_index[depth]
                        resumed_depth = depth
                        break
                if activations is not None:
                    break
            if activations is None:
                self.prefix_cache_misses += 1
            else:
                self.prefix_cache_hits += 1
            pending = sorted(
                (ctx.boundary_index[depth], depth, fps[:depth], ctx.needed[depth])
                for depth in ctx.depths
                if resumed_depth < depth <= first_split
                and fps[:depth] in ctx.shared[depth]
            )
        if activations is None:
            activations = {"input": images}
        nodes = self.model.nodes
        # The walk is two-phase.  Phase 1 runs the single-block shared
        # prefix at the FULL image batch — exactly like the per-plan path,
        # so checkpoint/activation-cache tokens line up with it and reuse
        # carries across groups.  Phase 2 (from the first splitting MAC on)
        # is the stacked walk, chunked over images so each launch carries
        # ~batch rows: feeding it lines * batch rows at once would blow the
        # arrays (and every astype/matmul behind them) past cache into
        # allocation churn — measurably slower than the loop it replaces.
        split_index = len(nodes)
        for index, node in enumerate(nodes):
            depth = mac_depth.get(node.name)
            if depth is not None and depth in splits:
                split_index = index
                break
        for index in range(start_index, split_index):
            node = nodes[index]
            while pending and pending[0][0] == index:
                self._store_checkpoint(activations, pending.pop(0), token)
            depth = mac_depth.get(node.name)
            if depth is not None:
                activations[node.name] = self._run_mac_node(
                    node.name,
                    node.layer,
                    activations[node.inputs[0]],
                    line_plans[0].model_for(node.name),
                )
            else:
                inputs = [activations[name] for name in node.inputs]
                activations[node.name] = node.layer.forward(*inputs, training=False)
        while pending:  # boundaries at or before the first splitting MAC
            self._store_checkpoint(activations, pending.pop(0), token)
        if split_index >= len(nodes):  # pragma: no cover - lines must differ
            out = activations[self.model.output_name]
            return np.concatenate([out] * num_lines, axis=0)
        needed = self._names_needed_from(split_index)
        live = {name: arr for name, arr in activations.items() if name in needed}
        chunk_rows = max(16, _STACKED_ROWS_TARGET // num_lines)
        if chunk_rows >= batch:
            return self._stacked_suffix(
                live, batch, split_index, line_plans, splits, mac_depth
            )
        num_chunks = -(-batch // chunk_rows)
        bounds = [(i * batch) // num_chunks for i in range(num_chunks + 1)]
        chunks: list[np.ndarray] = []
        sizes: list[int] = []
        for start, stop in zip(bounds, bounds[1:]):
            sliced = {name: arr[start:stop] for name, arr in live.items()}
            chunks.append(
                self._stacked_suffix(
                    sliced, stop - start, split_index, line_plans, splits, mac_depth
                )
            )
            sizes.append(stop - start)
        return np.concatenate(
            [
                chunk[line * size : (line + 1) * size]
                for line in range(num_lines)
                for chunk, size in zip(chunks, sizes)
            ],
            axis=0,
        )

    def _stacked_suffix(
        self,
        activations: dict[str, np.ndarray],
        batch: int,
        start_index: int,
        line_plans: list[ExecutionPlan],
        splits: dict[int, list[int]],
        mac_depth: dict[str, int],
    ) -> np.ndarray:
        """Stacked walk from the first splitting MAC to the output.

        ``activations`` holds single-block arrays of ``batch`` rows;
        returns the ``(lines * batch, ...)`` line-major output stack."""
        num_lines = len(line_plans)
        runs: list[tuple[int, int]] = [(0, num_lines)]
        nodes = self.model.nodes
        for index in range(start_index, len(nodes)):
            node = nodes[index]
            depth = mac_depth.get(node.name)
            shared_split = False
            if depth is not None and depth in splits:
                cuts = splits[depth]
                new_runs: list[tuple[int, int]] = []
                counts: list[int] = []
                for s, e in runs:
                    inner = [i for i in cuts if s <= i < e - 1]
                    bounds = [s] + [i + 1 for i in inner] + [e]
                    counts.append(len(bounds) - 1)
                    new_runs.extend(zip(bounds, bounds[1:]))
                shared_split = len(runs) == 1 and counts[0] > 1
                mac_input = node.inputs[0]
                raw_input = activations[mac_input]
                needed = self._names_needed_from(index)
                needed_after = self._names_needed_from(index + 1)
                expanded: dict[str, np.ndarray] = {}
                for name, arr in activations.items():
                    if name not in needed:
                        continue
                    if shared_split and name == mac_input and name not in needed_after:
                        # Consumed only by the fused shared-input launch;
                        # skip the blockwise copy entirely.
                        continue
                    expanded[name] = _expand_line_blocks(arr, batch, counts)
                activations = expanded
                runs = new_runs
                x = raw_input if shared_split else activations[node.inputs[0]]
            elif depth is not None:
                x = activations[node.inputs[0]]
            if depth is not None:
                models = [line_plans[s].model_for(node.name) for s, _ in runs]
                if len(runs) == 1 or len({m.fingerprint() for m in models}) == 1:
                    activations[node.name] = self._run_mac_node(
                        node.name, node.layer, x, models[0]
                    )
                else:
                    activations[node.name] = self._run_mac_node_multi(
                        node.name, node.layer, x, models, shared_split
                    )
            else:
                inputs = [activations[name] for name in node.inputs]
                activations[node.name] = node.layer.forward(*inputs, training=False)
        return activations[self.model.output_name]

    def _names_needed_from(self, index: int) -> set[str]:
        """Activation names any node from ``index`` on still consumes."""
        needed = {self.model.output_name}
        for node in self.model.nodes[index:]:
            needed.update(node.inputs)
        return needed

    def logits_many(
        self,
        images: np.ndarray,
        plans: Sequence[ExecutionPlan],
        batch_size: int = 256,
    ) -> list[np.ndarray]:
        """Batched :meth:`forward_many`; one concatenated logits array per plan.

        Applies the same checkpoint-store suppression policy as
        :meth:`logits` from batch ``prefix_cache_batches`` onward.
        """
        plans = list(plans)
        if not plans:
            return []
        outputs: list[list[np.ndarray]] = [[] for _ in plans]
        previous = self._suppress_prefix_stores
        try:
            for batch_index, start in enumerate(range(0, images.shape[0], batch_size)):
                self._suppress_prefix_stores = (
                    previous or batch_index >= self.prefix_cache_batches
                )
                batch_out = self.forward_many(images[start : start + batch_size], plans)
                for chunks, out in zip(outputs, batch_out):
                    chunks.append(out)
        finally:
            self._suppress_prefix_stores = previous
        return [np.concatenate(chunks, axis=0) for chunks in outputs]

    def predict_many(
        self,
        images: np.ndarray,
        plans: Sequence[ExecutionPlan],
        batch_size: int = 256,
    ) -> list[np.ndarray]:
        """Predicted class labels per plan, via the fused multi-plan path."""
        return [
            logits.argmax(axis=1)
            for logits in self.logits_many(images, plans, batch_size=batch_size)
        ]

    def _run_mac_node_multi(
        self,
        name: str,
        layer: Conv2D | Dense,
        x: np.ndarray,
        models: list[ProductModel],
        shared: bool,
    ) -> np.ndarray:
        """One fused launch evaluating ``len(models)`` plan blocks of a MAC.

        ``shared=False``: ``x`` is the block-stacked input (``blocks *
        batch`` leading rows).  ``shared=True``: ``x`` is a single shared
        block and the output fans out to ``len(models)`` stacked blocks.
        """
        qnode = self._nodes[name]
        if isinstance(layer, Conv2D):
            return self._run_conv_multi(layer, qnode, x, models, shared)
        return self._run_dense_multi(qnode, x, models, shared)

    def _run_conv_multi(
        self,
        layer: Conv2D,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        models: list[ProductModel],
        shared: bool,
    ) -> np.ndarray:
        out_images = x.shape[0] * (len(models) if shared else 1)
        cin_per_group = layer.in_channels // layer.groups
        cout_per_group = layer.out_channels // layer.groups
        codes = self._quantize_acts(qnode, -1, x)
        pad_code = int(np.clip(qnode.act_params.zero_point, 0, 255))
        outputs = []
        for g in range(layer.groups):
            codes_g = codes[..., g * cin_per_group : (g + 1) * cin_per_group]
            act_codes, out_h, out_w = im2col(
                codes_g,
                layer.kernel_size,
                layer.kernel_size,
                layer.stride,
                layer.pad,
                pad_value=pad_code,
            )
            out_flat = self._run_group_multi(qnode, g, act_codes, models, shared)
            outputs.append(out_flat.reshape(out_images, out_h, out_w, cout_per_group))
        return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]

    def _run_dense_multi(
        self,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        models: list[ProductModel],
        shared: bool,
    ) -> np.ndarray:
        act_codes = self._quantize_acts(qnode, 0, x)
        return self._run_group_multi(qnode, 0, act_codes, models, shared)

    _MULTI_KERNEL_CACHE_CAP = 256

    def _multi_kernel_for(
        self, qnode: _QuantizedMacNode, group: int, models: list[ProductModel]
    ):
        """Compiled fused kernel for one per-block model assignment."""
        fps = tuple(model.fingerprint() for model in models)
        key = (qnode.node_name, group, fps)
        kernel = self._multi_kernel_cache.get(key)
        if kernel is None:
            # Per-block kernels deduped by fingerprint: blocks repeating a
            # model reuse one compiled kernel (and its LUT error matrix).
            by_fp: dict[tuple, ProductKernel] = {}
            kernels = []
            for model, fp in zip(models, fps):
                block_kernel = by_fp.get(fp)
                if block_kernel is None:
                    block_kernel = self._kernel_for(qnode, group, model)
                    by_fp[fp] = block_kernel
                kernels.append(block_kernel)
            override = qnode.weight_overrides[group]
            weight_codes = (
                override if override is not None else qnode.ops[group].weight_codes
            )
            kernel = self.engine_backend.compile_multi(
                models, weight_codes, qnode.control_variates[group], kernels=kernels
            )
            if len(self._multi_kernel_cache) >= self._MULTI_KERNEL_CACHE_CAP:
                self._multi_kernel_cache.pop(next(iter(self._multi_kernel_cache)))
            self._multi_kernel_cache[key] = kernel
        return kernel

    def _run_group_multi(
        self,
        qnode: _QuantizedMacNode,
        group: int,
        act_codes: np.ndarray,
        models: list[ProductModel],
        shared: bool,
    ) -> np.ndarray:
        op = qnode.ops[group]
        kernel = self._multi_kernel_for(qnode, group, models)
        sums = kernel.product_sums_multi(act_codes, shared=shared)
        self.fused_launches += 1
        self.fused_plans_total += len(models)
        if shared:
            # Every correction is per-patch, so the stacked variant (act
            # terms computed once, broadcast across blocks) reproduces the
            # per-block output_real calls bit-exactly without tiling.
            return op.output_real_stacked(
                act_codes, qnode.act_params, sums, len(models),
                overwrite_product_sum=True,
            )
        return op.output_real(
            act_codes, qnode.act_params, product_sum=sums, overwrite_product_sum=True
        )

    # ------------------------------------------------------------------
    def _run_mac_node(
        self,
        name: str,
        layer: Conv2D | Dense,
        x: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        qnode = self._nodes[name]
        if isinstance(layer, Conv2D):
            return self._run_conv(layer, qnode, x, product_model)
        return self._run_dense(layer, qnode, x, product_model)

    def _run_conv(
        self,
        layer: Conv2D,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        batch = x.shape[0]
        cin_per_group = layer.in_channels // layer.groups
        cout_per_group = layer.out_channels // layer.groups
        outputs = []
        if self.use_compiled:
            # Quantize once on the compact NHWC input, then unfold the uint8
            # codes (padding with the zero-point code, i.e. quantize(0)) —
            # elementwise identical to unfold-then-quantize, but the im2col
            # gather duplicates every pixel ~k^2 times, so this quantizes up
            # to k^2 x less data and gathers uint8 instead of float64.
            codes = self._quantize_acts(qnode, -1, x)
            pad_code = int(np.clip(qnode.act_params.zero_point, 0, 255))
            for g in range(layer.groups):
                codes_g = codes[..., g * cin_per_group : (g + 1) * cin_per_group]
                act_codes, out_h, out_w = im2col(
                    codes_g,
                    layer.kernel_size,
                    layer.kernel_size,
                    layer.stride,
                    layer.pad,
                    pad_value=pad_code,
                )
                out_flat = self._run_group(qnode, g, act_codes, product_model)
                outputs.append(out_flat.reshape(batch, out_h, out_w, cout_per_group))
            return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]
        for g in range(layer.groups):
            x_g = x[..., g * cin_per_group : (g + 1) * cin_per_group]
            cols, out_h, out_w = im2col(
                x_g, layer.kernel_size, layer.kernel_size, layer.stride, layer.pad
            )
            act_codes = self._quantize_acts(qnode, g, cols)
            out_flat = self._run_group(qnode, g, act_codes, product_model)
            outputs.append(out_flat.reshape(batch, out_h, out_w, cout_per_group))
        return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]

    def _run_dense(
        self,
        layer: Dense,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        act_codes = self._quantize_acts(qnode, 0, x)
        return self._run_group(qnode, 0, act_codes, product_model)

    def _quantize_acts(self, qnode: _QuantizedMacNode, group: int, cols: np.ndarray) -> np.ndarray:
        """Quantize activations into a per-(layer, group) persistent buffer.

        The buffer is reallocated whenever an incoming batch is larger than
        the current buffer or differs in any trailing (patch/feature) shape;
        smaller batches reuse a leading slice of it, so a batch-size change
        between calls can never write into (or return) a stale-shaped
        window.  Group ``-1`` holds the whole NHWC input of a conv node
        (compiled path).  For the first MAC layer — and, under an active
        plan context, the first plan-*divergent* MAC layer, whose input is
        the plan-invariant prefix's cached output — the input does not
        depend on the plan, so when a batch (same underlying buffer, offset
        and shape) arrives again — e.g. the next plan of a sweep re-running
        the same eval set — its previous quantization is returned from a
        per-layer LRU of up to ``act_cache_batches`` batches instead of
        being recomputed.
        """
        key = (qnode.node_name, group)
        if self.reuse_plan_invariant_acts and self._is_act_reuse_input(
            qnode.node_name, cols
        ):
            token = _array_identity_token(cols)
            entries = self._act_cache.setdefault(key, [])
            for index, (cached_token, codes) in enumerate(entries):
                if _tokens_match(cached_token, token):
                    self.act_cache_hits += 1
                    if index:
                        entries.insert(0, entries.pop(index))
                    return codes
            # Cached batches get private arrays (not the shared buffer, which
            # the next batch would overwrite).
            codes = quantize(cols, qnode.act_params)
            self.act_cache_misses += 1
            entries.insert(0, (token, codes))
            del entries[self.act_cache_batches :]
            return codes
        buffer = self._act_buffers.get(key)
        if buffer is None or buffer.shape[0] < cols.shape[0] or buffer.shape[1:] != cols.shape[1:]:
            buffer = np.empty(cols.shape, dtype=np.uint8)
            self._act_buffers[key] = buffer
        return quantize(cols, qnode.act_params, out=buffer[: cols.shape[0]])

    def _is_act_reuse_input(self, node_name: str, cols: np.ndarray) -> bool:
        """Whether ``cols`` is a plan-invariant input worth caching codes for.

        The first MAC layer always qualifies (its input is the raw image
        pipeline).  Under an active plan context a checkpoint-depth MAC
        layer qualifies when its input *is* a boundary array currently held
        by the prefix cache at that depth — the only arrays that will ever
        arrive again under another plan.  A transient activation computed
        by a plan that shares no prefix there would leave a permanently
        dead (never-matching) cache entry, so it stays on the persistent
        reusable buffer path instead.
        """
        if node_name == self._first_mac_name:
            return True
        ctx = self._plan_context
        if ctx is None or not self.reuse_plan_invariant_prefix:
            return False
        depth = ctx.checkpoint_macs.get(node_name)
        if depth is None:
            return False
        return any(
            cols is arr
            for _, _, boundary in self._prefix_cache.get(depth, ())
            for arr in boundary.values()
        )

    def _kernel_for(
        self, qnode: _QuantizedMacNode, group: int, product_model: ProductModel
    ) -> ProductKernel:
        per_model = self._kernel_cache.get(product_model)
        if per_model is None:
            per_model = {}
            self._kernel_cache[product_model] = per_model
        key = (qnode.node_name, group)
        kernel = per_model.get(key)
        if kernel is None:
            override = qnode.weight_overrides[group]
            weight_codes = (
                override if override is not None else qnode.ops[group].weight_codes
            )
            kernel = self.engine_backend.compile(
                product_model, weight_codes, qnode.control_variates[group]
            )
            per_model[key] = kernel
        return kernel

    def _run_group(
        self,
        qnode: _QuantizedMacNode,
        group: int,
        act_codes: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        op = qnode.ops[group]
        if self.use_compiled:
            sums = self._kernel_for(qnode, group, product_model)(act_codes)
        else:
            override = qnode.weight_overrides[group]
            weight_codes = override if override is not None else op.weight_codes
            sums = product_model.product_sums(
                act_codes, weight_codes, qnode.control_variates[group]
            )
        # Compiled kernels return fresh arrays (the ProductKernel contract),
        # so their float64 sums are dequantized in place.
        return op.output_real(
            act_codes,
            qnode.act_params,
            product_sum=sums,
            overwrite_product_sum=self.use_compiled,
        )


def _expand_line_blocks(arr: np.ndarray, rows: int, counts: Sequence[int]) -> np.ndarray:
    """Repeat each ``rows``-sized leading block of ``arr`` blockwise.

    Block ``i`` (rows ``i*rows:(i+1)*rows``) appears ``counts[i]`` times in
    the result, in order — the layout change a run split applies to every
    live activation of the stacked multi-plan walk.
    """
    if all(count == 1 for count in counts):
        return arr
    blocks: list[np.ndarray] = []
    for i, count in enumerate(counts):
        block = arr[i * rows : (i + 1) * rows]
        blocks.extend([block] * count)
    return np.concatenate(blocks, axis=0)


def _array_identity_token(arr: np.ndarray) -> tuple:
    """Identity token of the memory window an array views.

    Two arrays get equal tokens iff they view the same window (same owning
    buffer, data pointer, shape and dtype) of a buffer that is still alive.
    The owning buffer is anchored by a weak reference, so a token can never
    collide with a later array that merely reuses a freed object's ``id()``
    — a dead weakref only compares equal to itself.  Slices of one base
    array (``images[a:b]``) therefore match across calls, which is what the
    executor's cross-plan activation cache keys on.
    """
    base = arr
    while isinstance(base.base, np.ndarray):
        base = base.base
    return (
        weakref.ref(base),
        arr.__array_interface__["data"][0],
        arr.shape,
        arr.dtype.str,
    )


def _tokens_match(cached: tuple | None, current: tuple) -> bool:
    """Whether two identity tokens denote the same live memory window.

    The weakref element is dereferenced and compared by *identity* — never
    with ``==``, which for live ndarray referents would broadcast into an
    element-wise comparison.  A dead referent never matches.
    """
    if cached is None or cached[1:] != current[1:]:
        return False
    referent = cached[0]()
    return referent is not None and referent is current[0]()


def _group_weight_matrices(layer: Conv2D | Dense):
    """Yield ``(weight_matrix, bias)`` per group with the (taps, filters) layout."""
    if isinstance(layer, Conv2D):
        cout_per_group = layer.out_channels // layer.groups
        for g in range(layer.groups):
            bias = None
            if layer.use_bias:
                bias = layer.bias[g * cout_per_group : (g + 1) * cout_per_group]
            yield layer.weight_matrix(g), bias
    elif isinstance(layer, Dense):
        yield layer.weight, (layer.bias if layer.use_bias else None)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unsupported MAC layer type: {type(layer).__name__}")
