"""The benchmark's own tests, at a tiny size (about a minute once models are cached).

Checks that:

* every workload runs at ``--size smoke``, untraced and traced, passes
  its output checks, and prints every metric ``BENCHMARK.json`` names
  with the unit it names — on the recorded seed and on an unseen one;
* perturbing one expected accuracy makes the run fail (exit 1,
  ``"correct": false``, at least one failed operation);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the command fails without printing a result.

Usage, from the repository root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from prepare import ROOT, STATE_DIR

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, cwd=ROOT, workload: str = "table3", seed: int = 0, trace: int = 0):
    done = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), done


def check_metrics(result: dict, trace: int) -> None:
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == {m["name"] for m in wanted}, sorted(result["metrics"])
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], (metric["name"], printed)
        assert isinstance(printed["value"], (int, float)), (metric["name"], printed)


def main() -> int:
    for workload in (w["name"] for w in CONFIG["workloads"]):
        for seed, trace in ((0, 0), (0, 1), (7, 0)):
            code, result, done = bench("--size", "smoke", workload=workload, seed=seed, trace=trace)
            assert code == 0 and result and result["correct"], (workload, seed, trace, done.stderr[-2000:])
            check_metrics(result, trace)
            print(f"ok: {workload} seed {seed} trace {trace}", flush=True)

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    cells = expected["smoke"]["table3"]["outputs"]
    key = sorted(cells)[0]
    cells[key] += 1.0 / 24
    perturbed = STATE_DIR / "tmp" / "perturbed-expected.json"
    perturbed.parent.mkdir(parents=True, exist_ok=True)
    perturbed.write_text(json.dumps(expected))
    code, result, done = bench("--size", "smoke", "--expected", str(perturbed))
    perturbed.unlink()
    assert code == 1 and result and not result["correct"] and result["failed"] >= 1, done.stdout[-2000:]
    assert key in done.stderr, done.stderr[-2000:]
    print(f"ok: perturbed expected value {key} fails the run", flush=True)

    bare = STATE_DIR / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, result, done = bench(cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and result is None, (code, done.stdout[-500:])
    print("ok: a directory without the sources fails without a result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
