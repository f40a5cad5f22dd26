"""Benchmark entry point.

    python3 bench/run.py --workload planar-grid --seed 1 --seconds 20 --trace 0

Runs a workload (``--workload all``: each in turn) against the ``bifree``
sources in ``src/`` of the checkout it sits in.  Every child process gets
one BLAS/OpenMP thread, a fixed ``PYTHONHASHSEED`` and no
``BIFREE_NUM_THREADS``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones; the last line of standard
output is the JSON result.  Times are calibrated seconds (see calib.py).
This process never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# the calibration kernel uses NumPy in this process too; pin it before import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import cli_specs  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = tuple(metrics.OP_KINDS)
SETUP_PROBES = 2  # fresh processes that only set up; the run process is one more sample
CLI_SAMPLES = 7
CLI_K_WINDOW_S = 0.25  # K is averaged this long before and after each CLI process
DEADLINE_S = 170.0
CLI_MAIN = "import sys; from bifree.cli import main; sys.exit(main())"


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=SRC,
    )
    env.pop("BIFREE_NUM_THREADS", None)
    return env


def run_child(argv: list[str], deadline: float) -> tuple[int, str, str]:
    """Run to completion (killed and reaped at the deadline)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for {argv[1:3]}")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"timed out: {argv[1:3]}") from None
    return proc.returncode, out, err


def run_worker(worker_args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; returns its calibrated set-up time and its report."""
    argv = [sys.executable, os.path.join(HERE, "worker.py")] + worker_args
    t_spawn = time.monotonic()
    code, out, err = run_child(argv, deadline)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise ChildFailed(f"worker exited {code}: {err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    setup = report["t_ready"] - t_spawn
    return setup * calib.factor([report["k_setup"]]), report


def import_times(deadline: float) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime``, calibrated."""
    k_before = calib.k_window(CLI_K_WINDOW_S)
    code, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import bifree"], deadline)
    scale = calib.factor([k_before, calib.k_window(CLI_K_WINDOW_S)])
    if code != 0:
        raise ChildFailed(f"import bifree failed: {err.strip()[-2000:]}")
    cum: dict[str, float] = {}
    for line in err.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cum[parts[2]] = max(cum.get(parts[2], 0.0), int(parts[1]) * 1e-6 * scale)
    return {
        "cli.import_s": cum.get("bifree", 0.0),
        "cli.import_scipy_integrate_s": cum.get("scipy.integrate", 0.0),
    }


def cli_runs(workload: str, run_dir: str, deadline: float) -> tuple[float, float, list[str]]:
    """Median calibrated and measured wall times of fresh processes running
    the main subcommand, and the failed output checks."""
    errors = []
    times, raw = [], []
    for _ in range(CLI_SAMPLES):
        argv = [sys.executable, "-c", CLI_MAIN] + cli_specs.main_argv(workload, run_dir)
        k_before = calib.k_window(CLI_K_WINDOW_S)
        t0 = time.monotonic()
        code, _, err = run_child(argv, deadline)
        elapsed = time.monotonic() - t0
        raw.append(elapsed)
        times.append(elapsed * calib.factor([k_before, calib.k_window(CLI_K_WINDOW_S)]))
        if code != 0:
            errors.append(f"cli exited {code}: {err.strip()[-500:]}")
    for extra in cli_specs.extra_argv(workload, run_dir):
        code, _, err = run_child([sys.executable, "-c", CLI_MAIN] + extra, deadline)
        if code != 0:
            errors.append(f"cli {extra[2]} exited {code}: {err.strip()[-500:]}")
    errors += cli_specs.check_outputs(workload, run_dir)
    return statistics.median(times), statistics.median(raw), errors


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; prints the metrics and returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(RUNS, f"{workload}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--out", run_dir]

    setup, report = run_worker(worker_args, deadline)
    errors = list(report["errors"])
    if trace:
        layer = dict(report["per_layer"])
        layer.update(import_times(deadline))
        declared = metrics.per_layer()
        unknown = set(layer) - {name for name, _ in declared}
        if unknown:
            errors.append(f"undeclared per-layer metrics {sorted(unknown)}")
        values = {name: (layer.get(name, 0.0), unit) for name, unit in declared}
    else:
        setups = [setup] + [run_worker(worker_args + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        cli_p50, cli_raw, cli_errors = cli_runs(workload, os.path.join(run_dir, "cli"), deadline)
        errors += cli_errors
        measured = {
            "wall_s": report["wall_s"],
            "cpu_s": report["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "cli_p50_s": cli_p50,
        }
        values = {name: (measured[name], unit) for name, unit, _ in metrics.END_TO_END}

    for msg in report["fail_msgs"]:
        print(f"failed operation: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{workload}: attempted {report['attempted']}, failed {report['failed']}")
    if not trace:
        print(f"  measured wall_s {report['raw_wall_s']:.6f} s over {report['rounds']} rounds, "
              f"cli_p50_s {cli_raw:.6f} s over {CLI_SAMPLES} processes")
    for name, (value, unit) in values.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    return {
        "correct": not errors,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help='one workload, or "all" to run each in turn')
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "bifree", "__init__.py")):
        print(f"no bifree sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    # the last line is the result object; "all" gives one per workload
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
