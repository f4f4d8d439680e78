"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per (workload, seed), then prints for every
end-to-end metric its median and its interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json`` and whether the spread stays below a third
of it.  Usage, from the repository root::

    python3 perfbench/spread.py --seeds 10 [--workloads table3 serve]

Raw results go to ``.bench_build/perfbench/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from prepare import ROOT, STATE_DIR


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    results: dict = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, *config["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0 and line["correct"]
            runs.append(line)
            print(f"{workload} seed {seed}: exit {done.returncode} correct {line['correct']}", flush=True)
        results[workload] = runs
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            steady = spread < bound / 3
            ok &= steady or name == "setup_s"
            print(f"  {name:20s} median {statistics.median(values):12.4f}  "
                  f"spread {spread:6.3f}  bound {bound}  {'ok' if steady else 'WIDE'}")
    (STATE_DIR / "spread.json").write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
