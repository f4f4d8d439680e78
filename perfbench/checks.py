"""Output checks and run facts of the benchmark.

* :func:`compare_expected` — a pass's outputs against the values recorded
  in ``expected.json`` (exact equality; accuracies are multiples of
  1/images, so their JSON round trip is exact).
* :func:`oracle` — a seeded sample of cells recomputed untimed on a few
  dozen images by the compiled engine and by the legacy
  ``use_compiled=False`` path (the ``core/approx_conv`` reference
  functions); logits must be bit-identical.
* :func:`run_facts` — the host and toolchain facts each run records.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np

from prepare import load_models

EXPECTED = Path(__file__).resolve().parent / "expected.json"
CALIBRATION_IMAGES = 128


def load_expected(path: "str | Path | None" = None) -> dict:
    return json.loads(Path(path or EXPECTED).read_text())


def record_expected(size: str, workload: str, seed: int, outputs: dict, digests: dict) -> None:
    """Store one workload's outputs as the expected values (maintenance use)."""
    data = load_expected() if EXPECTED.exists() else {}
    block = data.setdefault(size, {})
    block["model_digests"] = digests
    block[workload] = {"seed": seed, "outputs": outputs}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def compare_expected(expected: dict, outputs: dict) -> list[str]:
    """Mismatch messages between recorded and produced outputs (one per value)."""
    errors: list[str] = []

    def walk(want, got, path: str) -> None:
        if isinstance(want, dict) and isinstance(got, dict):
            for key in sorted(set(want) | set(got)):
                walk(want.get(key), got.get(key), f"{path}/{key}")
        elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
            for index, (w, g) in enumerate(zip(want, got)):
                walk(w, g, f"{path}[{index}]")
        elif want != got:
            errors.append(f"{path}: expected {want!r}, got {got!r}")

    walk(expected, json.loads(json.dumps(outputs)), "")
    return errors


def oracle(cells, eval_images: int | None, rng: np.random.Generator, count: int) -> list[str]:
    """Bit-exact compiled-vs-legacy logits on ``count`` seeded eval images."""
    from repro.simulation.inference import ApproximateExecutor

    names = list(dict.fromkeys(name for name, _ in cells))
    dataset, trained, _ = load_models(names)
    models = {t.name: t.model for t in trained}
    limit = eval_images or len(dataset.test_labels)
    images = dataset.test_images[np.sort(rng.choice(limit, size=count, replace=False))]
    calibration = dataset.train_images[:CALIBRATION_IMAGES]
    errors = []
    for name in names:
        compiled = ApproximateExecutor(models[name], calibration)
        legacy = ApproximateExecutor(models[name], calibration, use_compiled=False)
        for cell_name, plan in cells:
            if cell_name != name:
                continue
            if not np.array_equal(compiled.logits(images, plan), legacy.logits(images, plan)):
                errors.append(f"oracle: {name} logits differ from the legacy path under {plan}")
    return errors


def _blas_threads() -> "int | None":
    """Thread count of the OpenBLAS numpy loaded (``None`` if not found)."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.argtypes, function.restype = [], ctypes.c_int
                return int(function())
    return None


def run_facts(prepared: dict, stems: list[str], workers: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {key: os.environ[key] for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if key in os.environ},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "workers": workers,
        "prepare_s": prepared["prepare_s"],
        "trained_cache_stems": stems,
    }
