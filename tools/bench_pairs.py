"""Alternating before/after runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py BASE CHANGE --workload planar-grid --pairs 10 --seconds 15 --seeds 41 42

BASE and CHANGE are two checkouts of the repository (say, the parent commit
unpacked with ``git archive`` and the working tree).  The script runs
``bench/run.py`` of each in turn, ``--pairs`` times, and the side that goes
first alternates from pair to pair, so a drift of the machine's speed
falls on both sides alike.  Pair k runs at the k-th seed of ``--seeds``,
cycled.  Each run's metrics come from the JSON object on the last line of
its standard output.

Per metric it prints the median and quartiles of each side, the ratio of
the medians, how many pairs the change won (strictly better, in the
direction that ``BENCHMARK.json`` of CHANGE gives, lower by default), and
whether the gap between the medians exceeds the interquartile range of the
base runs.  Where ``BENCHMARK.json`` gives a metric a relative ``bound``, it
also prints whether the change's median is worse than the base median by
no more than that bound, the no-regression rule.  It also prints each run's
failed and attempted operations.  Standard library only; it never imports
the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def benchmark_metrics(checkout: str) -> dict[str, dict]:
    """metric name -> its entry in the checkout's BENCHMARK.json, empty without the file."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def better_directions(checkout: str) -> dict[str, str]:
    """metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    return {name: m.get("better", "lower") for name, m in benchmark_metrics(checkout).items()}


def relative_bounds(checkout: str) -> dict[str, float]:
    """metric name -> the relative worsening its BENCHMARK.json entry allows, for metrics with a bound."""
    return {name: m["bound"] for name, m in benchmark_metrics(checkout).items() if "bound" in m}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run: its result object for the workload."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, lower and upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def report(workload: str, runs: dict[str, list[dict]], better: dict[str, str],
           bounds: dict[str, float] | None = None) -> None:
    """The per-metric table of the paired runs; "-" in the bound column where a metric has none."""
    bounds = bounds or {}
    base, change = runs["base"], runs["change"]
    print(f"{workload}: {len(base)} pairs")
    print("  failed/attempted operations  base " + " ".join(f"{r['failed']}/{r['attempted']}" for r in base)
          + "  change " + " ".join(f"{r['failed']}/{r['attempted']}" for r in change))
    if not all(r["correct"] for r in base + change):
        print("  WARNING: a run reported incorrect results")
    names = [n for n in base[0]["metrics"] if all(n in r["metrics"] for r in base + change)]
    width = max(len(n) for n in names)
    print(f"  {'metric':{width}}  {'base median [q1, q3]':>35}  {'change median [q1, q3]':>35}  ratio  "
          "in bound  won   gap>IQR")
    for name in names:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        lower = better.get(name, "lower") == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        (bm, b1, b3), (cm, c1, c3) = spread(b), spread(c)
        ratio = cm / bm if bm else float("nan")
        gap = (bm - cm) if lower else (cm - bm)
        in_bound = "-" if name not in bounds else "yes" if -gap <= bounds[name] * abs(bm) else "no"
        print(f"  {name:{width}}  {bm:12.6g} [{b1:9.4g}, {b3:9.4g}]  {cm:12.6g} [{c1:9.4g}, {c3:9.4g}]"
              f"  {ratio:5.3f}  {in_bound:>8}  {won:2d}/{len(b)}  {'yes' if gap > b3 - b1 else 'no'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, help="one workload of bench/run.py")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
            runs[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value", float("nan"))
            print(f"pair {k + 1}/{args.pairs} seed {seed} {side}: wall_s {wall:.6f}", file=sys.stderr, flush=True)
    report(args.workload, runs, better_directions(sides["change"]), relative_bounds(sides["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
