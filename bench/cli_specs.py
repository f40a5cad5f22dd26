"""Fixed command-line inputs per workload, and checks on what the CLI writes.

Standard library only: ``run.py`` uses this module without importing the
program.  The inputs do not depend on the seed, so ``cli_p50_s`` times the
same command on every run.
"""

from __future__ import annotations

import json
import math
import os

CLI_M1 = [((0.5, -0.3), 0.3), ((-0.9, 0.7), 0.3), ((1.0, 1.1), 0.4)]
CLI_M2 = [((-0.3, 0.6), 0.25), ((0.8, -0.8), 0.35), ((-1.1, -1.0), 0.4)]
B2 = [((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)]
DIAG = [((-0.8, -0.8), 0.3), ((0.2, 0.2), 0.3), ((1.2, 1.2), 0.4)]
CLI_GRID = "-6:6:128,-6:6:128"
STABLE_RAYS = [(2.0 * math.pi * k / 8.0, 0.125) for k in range(8)]
LIMIT_NS = (8, 32, 128, 512)
LIMIT_PROBES = [((0.0, 2.0), (0.0, 4.0)), ((0.0, -4.0), (0.0, 8.0))]


def _measure(atoms) -> dict:
    return {"atoms": [{"x": list(p), "w": w} for p, w in atoms]}


def _files(workload: str) -> dict[str, object]:
    if workload == "planar-grid":
        return {
            "m1.json": _measure(CLI_M1),
            "m2.json": _measure(CLI_M2),
            "rep.json": {"terms": [{"measure": _measure(B2)}, {"measure": _measure(DIAG)}], "shift": [0.0, 0.0]},
        }
    if workload == "stable-radial":
        return {"spec.json": {"alpha": 1.0, "theta": [{"angle": a, "m": m} for a, m in STABLE_RAYS]}}
    if workload == "limit-arrays":
        rows = []
        for n in LIMIT_NS:
            law = _measure([((0.0, 0.0), 1.0 - 1.0 / n), ((1.0, 1.0), 1.0 / n)])
            rows.append({"measures": [law] * n, "shift": [0.0, 0.0]})
        probes = [{"z": list(z), "w": list(w)} for z, w in LIMIT_PROBES]
        return {"array.json": {"L": 1.0, "rows": rows}, "probes.json": probes}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, in_dir: str) -> None:
    os.makedirs(in_dir, exist_ok=True)
    for name, payload in _files(workload).items():
        with open(os.path.join(in_dir, name), "w") as fh:
            json.dump(payload, fh)


def main_argv(workload: str, run_dir: str) -> list[str]:
    """The workload's main subcommand; inputs are written on first use."""
    in_dir = os.path.join(run_dir, "in")
    if not os.path.isdir(in_dir):
        write_inputs(workload, in_dir)
    out = ["--out", os.path.join(run_dir, "out")]
    if workload == "planar-grid":
        return out + [f"--grid={CLI_GRID}", "--epsilon", "0.1", "convolve",
                      os.path.join(in_dir, "m1.json"), os.path.join(in_dir, "m2.json")]
    if workload == "stable-radial":
        return out + ["stable", os.path.join(in_dir, "spec.json"), "--a", "1", "--b", "2"]
    return out + ["--probes", os.path.join(in_dir, "probes.json"), "limit", os.path.join(in_dir, "array.json")]


def extra_argv(workload: str, run_dir: str) -> list[list[str]]:
    """Further subcommands run once per run as checks, not timed."""
    if workload == "planar-grid":
        return [["--out", os.path.join(run_dir, "out-fullness"), "fullness",
                 os.path.join(run_dir, "in", "rep.json"), "--method", "g"]]
    return []


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_outputs(workload: str, run_dir: str) -> list[str]:
    """Properties the CLI reports must have; returns failure messages."""
    errors = []
    out = os.path.join(run_dir, "out")
    try:
        if workload == "planar-grid":
            mass = _load(os.path.join(out, "summary.json"))["grid_mass"]
            # the eps = 0.1 Cauchy tails beyond |t| = 6 hold at most ~3% of the mass
            if not 0.9 <= mass <= 1.001:
                errors.append(f"convolve: grid mass {mass}")
            full = _load(os.path.join(run_dir, "out-fullness", "fullness_report.json"))
            if full["is_full"] is not False:
                errors.append(f"fullness: diagonal pair reported {full}")
        elif workload == "stable-radial":
            rep = _load(os.path.join(out, "stability_report.json"))
            if not (rep["is_stable"] and rep["max_residual"] <= 1e-6):
                errors.append(f"stable: residual {rep['max_residual']}")
        else:
            trip = _load(os.path.join(out, "limit_triplet.json"))
            if max(abs(trip["v"][0] - 1.0 / 3.0), abs(trip["v"][1] - 1.0 / 3.0)) > 1e-6:
                errors.append(f"limit: v = {trip['v']}, want (1/3, 1/3)")
    except (OSError, KeyError, ValueError) as e:
        errors.append(f"{workload} CLI output unreadable: {e!r}")
    return errors
