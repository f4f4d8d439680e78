"""Paired parent-vs-change runs of the repo benchmark, with the gain verdict.

Runs the benchmark command named in ``BENCHMARK.json`` (``python3
perfbench/run.py``) untraced, once per seed in each of two source trees —
a checkout of the parent commit and one of the change — alternating which
tree runs first and never running two at once.  Every run must report
``correct: true`` and ``failed: 0``; the first one that does not stops the
script with exit status 1.

For every end-to-end metric the script then prints both sides' median and
quartiles, the ratio of the medians, how many pairs the change won (ties
count for neither side) and a verdict:

* ``GAIN`` — the change won at least 9 of every 10 pairs and the medians
  differ, in the better direction, by more than the parent's interquartile
  range;
* ``UNRESOLVED`` — the parent's own spread (IQR / median) is wider than
  the metric's bound in ``BENCHMARK.json``, so a regression could hide in
  the noise (unless every change run beats every parent run);
* ``REGRESSION`` — the change's median is worse than the parent's by more
  than that bound;
* ``ok`` — neither: no gain shown, no regression beyond the bound.

Usage::

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload table3 --seeds 411-420

Each tree trains the benchmark's models on its first run unless its
``.bench_build/perfbench`` already holds them; the training is not timed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``"411-420"`` or ``"3,5,8"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def run_once(tree: Path, command: list[str], workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``; its metric values by name."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{tree} seed {seed}: no result line (exit {proc.returncode})\n"
            f"{proc.stderr[-2000:]}"
        ) from None
    if not report.get("correct") or report.get("failed", 1) > 0:
        raise SystemExit(
            f"{tree} seed {seed}: correct={report.get('correct')} "
            f"failed={report.get('failed')} of {report.get('attempted')}\n"
            f"{proc.stderr[-2000:]}"
        )
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """``(wins, verdict)`` for one metric's paired samples."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    if wins >= math.ceil(0.9 * len(parent)) and sign * (c_med - p_med) > p3 - p1:
        return wins, "GAIN"
    spread = (p3 - p1) / abs(p_med) if p_med else math.inf
    separated = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if spread > bound and not separated:
        return wins, "UNRESOLVED"
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return wins, "REGRESSION" if worse > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 411-420")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair, seed in enumerate(args.seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_once(trees[side], spec["command"], args.workload, seed)
            runs[side].append(values)
            shown = " ".join(
                f"{name}={values[name]:.4g}" for name in metrics if values.get(name) is not None
            )
            print(f"pair {pair + 1} seed {seed} {side}: {shown}", flush=True)

    n = len(args.seeds)
    print(f"\n{args.workload}: {n} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}")
    print(f"{'metric':<20} {'parent median (q1-q3)':<28} {'change median (q1-q3)':<28} "
          f"{'ratio':>6} {'wins':>6}  verdict")
    for name, entry in metrics.items():
        parent = [r[name] for r in runs["parent"] if r.get(name) is not None]
        change = [r[name] for r in runs["change"] if r.get(name) is not None]
        if len(parent) != n or len(change) != n:
            continue
        wins, text = verdict(parent, change, entry["better"], entry["bound"])
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        ratio = cm / pm if pm else math.nan
        print(f"{name:<20} {f'{pm:.4g} ({p1:.4g}-{p3:.4g})':<28} "
              f"{f'{cm:.4g} ({c1:.4g}-{c3:.4g})':<28} {ratio:>6.3f} {f'{wins}/{n}':>6}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
