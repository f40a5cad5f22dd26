"""One workload in one process: set up, time rounds, check, report.

Started by ``run.py`` with BLAS pinned to one thread and a fixed hash seed.
The last line of standard output is a JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

import bifree  # noqa: E402  (path comes from PYTHONPATH, set by run.py)

if not os.path.abspath(bifree.__file__).startswith(SRC + os.sep):
    sys.exit(f"bifree imported from {bifree.__file__}, not from {SRC}")

import bifree.cli  # noqa: E402,F401  (imported before tracing patches its names)

import calib  # noqa: E402
import cli_specs  # noqa: E402
from common import digest  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402

WORKLOADS = {
    "planar-grid": "wl_planar",
    "stable-radial": "wl_stable",
    "limit-arrays": "wl_limits",
}
MIN_ROUNDS = 3
SETUP_K_WINDOW_S = 0.25  # K is averaged this long right after set-up


def run_round(ops, tracer: Tracer | None, round_no: int, state: dict) -> dict:
    """Time every op once, between samples of the calibration kernel.

    Each op's seconds are scaled by K_REF_S over the mean of the kernel
    samples on either side of it.  "times" holds these calibrated seconds
    per op, "raw_wall" the measured seconds of the whole round.
    """
    times, cal_times, cal_cpus = {}, {}, {}
    k_prev = calib.k_time()
    for op_no, op in enumerate(ops):
        gc.collect()
        rec = None
        if tracer is not None:
            tracer.op_id = round_no * len(ops) + op_no
            rec = tracer.open(*tracer.intern(op.name, ROOT))
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, ok = op.fn(), op.expect is None
        except Exception as e:  # noqa: BLE001  (a failed op is counted, not fatal)
            result, ok = repr(e), op.expect is not None and isinstance(e, op.expect)
            if not ok:
                state["fail_msgs"].add(f"{op.name}: {e!r}"[:300])
        t1 = time.perf_counter()
        c1 = time.process_time()
        if rec is not None:
            tracer.close(rec)
        k_next = calib.k_time()
        scale = calib.factor((k_prev, k_next))
        k_prev = k_next
        times[op.name] = t1 - t0
        cal_times[op.name] = (t1 - t0) * scale
        cal_cpus[op.name] = (c1 - c0) * scale
        state["k_samples"].append(k_next)
        state["attempted"] += 1
        if not ok:
            state["failed"] += 1
            continue
        d = digest(result)
        first = state["digests"].setdefault(op.name, d)
        if first != d:
            state["errors"].add(f"{op.name}: result differs between rounds")
        if op.name not in state["results"]:
            state["results"][op.name] = result
    raw = sum(times.values())
    wall = sum(cal_times.values())
    return {"times": cal_times, "raw_wall": raw, "wall": wall, "cpu": sum(cal_cpus.values()),
            "scale": wall / raw if raw > 0 else 1.0}


def run_phase(ops, seconds: float, min_rounds: int, tracer, state, first_round: int) -> list[dict]:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        span_start = len(tracer) if tracer is not None else 0
        counts_before = dict(tracer.counts) if tracer is not None else {}
        r = run_round(ops, tracer, first_round + len(rounds), state)
        if tracer is not None:
            r["self"] = {k: v * r["scale"] for k, v in tracer.self_times(span_start).items()}
            r["counts"] = {k: v - counts_before.get(k, 0.0) for k, v in tracer.counts.items()}
            r["runner_phi"] = tracer.count_under("run_bi_free_limit", "transforms.bi_free_phi", span_start)
            r["op_ids"] = {op.name: (first_round + len(rounds)) * len(ops) + k for k, op in enumerate(ops)}
        rounds.append(r)
    return rounds


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(ops, untraced: list[dict], traced: list[dict], cli_s: float, cli_self: dict,
                  cli_counts: dict, k_samples: list[float]) -> dict:
    """Per-layer figures: median over traced rounds of per-round values.

    Times are calibrated seconds (see calib.py); within a round, every self
    time is scaled by the same factor, so they still add up to trace.wall_s.
    """

    def self_s(layer):
        return median([r["self"].get(layer, 0.0) for r in traced])

    def count(layer):
        return median([r["counts"].get(layer + ".count", 0.0) for r in traced])

    def phi_per_distinct(r):
        """Mean over run_bi_free_limit calls of calls per distinct (measure, probe)."""
        ratios = [r["runner_phi"].get(r["op_ids"][op.name], 0) / op.phi_denominator
                  for op in ops if op.phi_denominator]
        return sum(ratios) / len(ratios) if ratios else 0.0

    out = {
        "measure.build_s": self_s("measure"),
        "measure.atoms_in": count("measure"),
        "transforms.newton_s": self_s("transforms.newton"),
        "transforms.newton_points": count("transforms.newton"),
        "transforms.bi_free_phi_s": self_s("transforms.bi_free_phi"),
        "transforms.bi_free_phi_calls": count("transforms.bi_free_phi"),
        "freeconv.f_value_s": self_s("freeconv"),
        "freeconv.f_value_points": count("freeconv"),
        "biconv.density_s": self_s("biconv.density"),
        "biconv.density_nodes": count("biconv.density"),
        "biconv.pointwise_s": self_s("biconv.pointwise"),
        "biconv.pointwise_points": count("biconv.pointwise"),
        "idlaw.quad_calls": count("idlaw.quad"),
        "idlaw.quad_s": self_s("idlaw.quad"),
        "idlaw.phi_s": self_s("idlaw.phi"),
        "idlaw.phi_points": count("idlaw.phi"),
        "idlaw.cf_s": self_s("idlaw.cf"),
        "idlaw.cf_calls": count("idlaw.cf"),
        "stable.check_s": self_s("stable.check"),
        "stable.doa_s": self_s("stable.doa"),
        "limits.rows_s": self_s("limits.rows"),
        "limits.conditions_s": self_s("limits.conditions"),
        "limits.runners_s": self_s("limits.runners"),
        "limits.phi_calls_per_distinct": median([phi_per_distinct(r) for r in traced]),
        "fullness.s": self_s("fullness"),
        "serialize.load_s": cli_self.get("serialize.load", 0.0),
        "serialize.write_s": cli_self.get("serialize.write", 0.0),
        "serialize.bytes_written": cli_counts.get("serialize.write.count", 0.0),
        "cli.cmd_s": cli_s,
        "calib.speed": calib.K_REF_S / median(k_samples),
        "trace.wall_s": median([r["wall"] for r in traced]),
        "trace.untraced_wall_s": median([r["wall"] for r in untraced]),
        "trace.unattributed_s": self_s(ROOT),
    }
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    kinds = sorted({op.kind for op in ops})
    for kind in kinds:
        names = [op.name for op in ops if op.kind == kind]
        per_round = [sum(r["times"][n] for n in names) for r in untraced]
        out[f"ops.{kind}.p50_ms"] = 1e3 * median(per_round)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for trace and CLI files")
    args = ap.parse_args()

    module = __import__(WORKLOADS[args.workload])
    wl = module.Workload(args.seed)
    wl.warm_up()
    ops = wl.ops()
    gc.collect()
    t_ready = time.monotonic()
    report: dict = {"t_ready": t_ready, "k_setup": calib.k_window(SETUP_K_WINDOW_S)}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    state = {"attempted": 0, "failed": 0, "results": {}, "digests": {},
             "errors": set(), "fail_msgs": set(), "k_samples": []}
    if not args.trace:
        rounds = run_phase(ops, args.seconds, MIN_ROUNDS, None, state, 0)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["wall_s"] = median([r["wall"] for r in rounds])
        report["cpu_s"] = median([r["cpu"] for r in rounds])
        report["raw_wall_s"] = median([r["raw_wall"] for r in rounds])
        report["rounds"] = len(rounds)
    else:
        untraced = run_phase(ops, 0.5 * args.seconds, 1, None, state, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(ops, 0.5 * args.seconds, 1, tracer, state, len(untraced))
            cli_start = len(tracer)
            cli_counts_before = dict(tracer.counts)
            tracer.op_id = -1
            argv = cli_specs.main_argv(args.workload, os.path.join(args.out, "cli-inprocess"))
            k_before = calib.k_time()
            t0 = time.perf_counter()
            code = bifree.cli.main(argv)
            cli_s = time.perf_counter() - t0
            cli_scale = calib.factor((k_before, calib.k_time()))
            cli_s *= cli_scale
            if code != 0:
                state["errors"].add(f"in-process cli exited {code}")
            cli_self = {k: v * cli_scale for k, v in tracer.self_times(cli_start).items()}
            cli_counts = {k: v - cli_counts_before.get(k, 0.0) for k, v in tracer.counts.items()}
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.csv"))
        report["per_layer"] = layer_metrics(ops, untraced, traced, cli_s, cli_self, cli_counts,
                                            state["k_samples"])
        report["per_layer"]["trace.spans"] = float(len(tracer))

    errors = sorted(state["errors"])
    errors += wl.check(state["results"])
    report.update({
        "attempted": state["attempted"],
        "failed": state["failed"],
        "errors": errors,
        "fail_msgs": sorted(state["fail_msgs"]),
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
