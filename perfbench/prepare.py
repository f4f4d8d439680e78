"""Model-cache preparation: train the six reference networks once.

The benchmark owns its trained-model cache under ``.bench_build/perfbench``
in the checkout (never ``~/.cache``).  Training runs here, in child
processes, before any workload starts its clocks, so it is part of no
timed number and of no ``setup_s``.

Training is pinned to one BLAS thread and one OpenBLAS kernel family
(``OPENBLAS_CORETYPE=Haswell``) so the trained weights — and therefore
the recorded expected accuracies — do not depend on how many cores the
host has.  Evaluation runs with the host's normal BLAS setup.

Run directly to (re)fill the cache::

    python3 perfbench/prepare.py
"""

from __future__ import annotations

import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_build" / "perfbench"
MODEL_CACHE = STATE_DIR / "models"
PREPARED = STATE_DIR / "prepared.json"

#: The Table III networks, split into two balanced training shards
#: (measured single-thread times: resnet56 ~ resnet44 + vgg16).
MODELS = ("googlenet", "resnet44", "resnet56", "shufflenet", "vgg13", "vgg16")
SHARDS = (("resnet56", "vgg13", "shufflenet"), ("resnet44", "vgg16", "googlenet"))
EPOCHS = 6
NUM_CLASSES = 10

TRAIN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
}


def load_models(names):
    """Load cached trained models; returns ``(dataset, trained, stems)``.

    Uses the same dataset and training settings ``repro table3`` uses by
    default (synthetic CIFAR-10, unseeded, 6 epochs), so the stems match
    the CLI's cache entries byte for byte.
    """
    from repro.simulation.campaign import (
        TrainedModelCache,
        TrainingSettings,
        experiment_dataset,
        trained_cache_stem,
    )

    dataset = experiment_dataset(num_classes=NUM_CLASSES)
    settings = TrainingSettings(epochs=EPOCHS)
    cache = TrainedModelCache(cache_dir=str(MODEL_CACHE))
    trained, stems = [], []
    for name in names:
        stem = trained_cache_stem(name, dataset.name, settings)
        if not (MODEL_CACHE / f"{stem}.npz").exists():
            raise RuntimeError(f"model cache entry {stem} is missing")
        trained.append(cache.load_or_train(name, dataset, settings))
        stems.append(stem)
    return dataset, trained, stems


def cache_stems(names) -> list[str]:
    """Cache-entry stems of ``names`` (what a ``repro`` verb would load)."""
    from repro.simulation.campaign import TrainingSettings, trained_cache_stem

    settings = TrainingSettings(epochs=EPOCHS)
    return [trained_cache_stem(name, f"synthetic-cifar{NUM_CLASSES}", settings) for name in names]


def _train_shard(names) -> None:
    from repro.provenance import model_digest
    from repro.simulation.campaign import (
        TrainedModelCache,
        TrainingSettings,
        experiment_dataset,
    )

    dataset = experiment_dataset(num_classes=NUM_CLASSES)
    cache = TrainedModelCache(cache_dir=str(MODEL_CACHE))
    digests = {}
    for name in names:
        trained = cache.load_or_train(name, dataset, TrainingSettings(epochs=EPOCHS))
        digests[name] = model_digest(trained.model)
    print(json.dumps(digests), flush=True)


def ensure_prepared() -> dict:
    """Train missing models (once per checkout); returns the preparation record."""
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    with open(STATE_DIR / "prepare.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if PREPARED.exists():
            return json.loads(PREPARED.read_text())
        start = time.perf_counter()
        env = {**os.environ, **TRAIN_ENV, "PYTHONPATH": str(SRC)}
        children = [
            subprocess.Popen(
                [sys.executable, __file__, "--shard", *shard],
                env=env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            for shard in SHARDS
        ]
        digests = {}
        failed = False
        for child in children:
            out, _ = child.communicate()
            if child.returncode != 0:
                failed = True
            else:
                digests.update(json.loads(out.strip().splitlines()[-1]))
        if failed:
            raise RuntimeError("model training failed")
        record = {
            "prepare_s": time.perf_counter() - start,
            "epochs": EPOCHS,
            "train_env": TRAIN_ENV,
            "model_digests": {name: digests[name] for name in MODELS},
        }
        PREPARED.write_text(json.dumps(record, indent=2))
        return record


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    if len(sys.argv) > 2 and sys.argv[1] == "--shard":
        _train_shard(sys.argv[2:])
    else:
        print(json.dumps(ensure_prepared(), indent=2))
