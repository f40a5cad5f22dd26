"""Command-line front end.

Subcommands load measures/triplets/arrays from JSON, run the numeric
pipelines, and write JSON/CSV reports.  Exit codes: 0 success, 2 schema
error, 3 numeric failure, 4 precondition violation.  Reports are
deterministic: fixed iteration orders, no timestamps.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import fullness as fl
from . import limits as lm
from . import serialize as io
from . import stable as st
from .biconv import bi_free_convolve
from .idlaw import (
    QuadratureError,
    sigma_form_to_triplet,
    triplet_to_sigma_form,
)
from .limits import ConditionsNotMet, NotInfinitesimal
from .transforms import DegenerateDenominator, NoConvergence, _probe_pairs

EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_PRECONDITION = 4


@dataclass
class RunConfig:
    epsilon: float = 0.05
    grid: str = "-5:5:64,-5:5:64"
    probes: str = "default"
    out: Path = Path(".")
    stability_threshold: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise io.SchemaError(f"--epsilon must be finite and positive, got {self.epsilon!r}")
        if not (0.0 < self.stability_threshold < math.inf):
            raise io.SchemaError(
                f"config key 'stability_threshold' must be finite and positive, got {self.stability_threshold!r}"
            )


def parse_grid(spec: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        s_part, t_part = spec.split(",")
        axes = []
        for part in (s_part, t_part):
            lo, hi, n = part.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            if n < 8:
                raise ValueError("resolution must be at least 8")
            if not (-math.inf < lo < hi < math.inf):
                raise ValueError("ends must be finite with lo < hi")
            axes.append(np.linspace(lo, hi, n))
        return axes[0], axes[1]
    except ValueError as e:
        raise io.SchemaError(f"bad --grid spec {spec!r}: {e}") from e


def load_probes(cfg: RunConfig) -> list[tuple[complex, complex]]:
    if cfg.probes == "default":
        return st.default_probes()
    return io.probes_from_dict(io.load_json(cfg.probes))


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        payload = io.load_json(args.config)
        if not isinstance(payload, dict):
            raise io.SchemaError("config file must hold an object")
        known = {f.name for f in fields(cfg)}
        for key, val in payload.items():
            if key not in known:
                raise io.SchemaError(f"unknown config key {key!r}; known keys: {sorted(known)}")
            if val is None or isinstance(val, bool):
                raise io.SchemaError(f"config key {key!r} must not be {'null' if val is None else 'a boolean'}")
            try:
                setattr(cfg, key, type(getattr(cfg, key))(val))
            except (TypeError, ValueError):
                raise io.SchemaError(f"config key {key!r} has a bad value {val!r}") from None
    for key in ("epsilon", "probes", "grid"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "out", None):
        cfg.out = Path(args.out)
    cfg.__post_init__()
    return cfg


def _phi_table(rep_or_triplet, probes):
    """One phi evaluation over all the probes, as JSON rows."""
    phi = getattr(rep_or_triplet, "bi_free_phi", None) or rep_or_triplet.phi
    vals = np.asarray(phi(*_probe_pairs(probes, complex, "probes").T)).tolist()
    return [
        {"z": [z.real, z.imag], "w": [w.real, w.imag], "phi": [val.real, val.imag]}
        for (z, w), val in zip(probes, vals)
    ]


def cmd_convolve(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    s_axis, t_axis = parse_grid(cfg.grid)  # a bad grid is rejected before any file is written
    measures = [io.measure_from_dict(io.load_json(p)) for p in args.inputs]
    shift = (0.0, 0.0)
    if args.shift:
        try:
            s, t = (float(x) for x in args.shift.split(","))
        except ValueError as e:
            raise io.SchemaError(f"bad --shift {args.shift!r}: expected 's,t'") from e
        if not (math.isfinite(s) and math.isfinite(t)):
            raise io.SchemaError(f"bad --shift {args.shift!r}: coordinates must be finite")
        shift = (s, t)
    rep = bi_free_convolve(measures, shift=shift)
    # default probes are scaled by the rep's cone height
    probes = fl.default_phi_probes(rep) if cfg.probes == "default" else load_probes(cfg)
    io.dump_json(cfg.out / "phi_probes.json", {"probes": _phi_table(rep, probes)})
    grid = rep.density(s_axis, t_axis, cfg.epsilon)
    io.write_grid_csv(cfg.out / "density.csv", grid)
    for axis, (ax, vals) in enumerate(zip((s_axis, t_axis), grid.axis_densities), start=1):
        io.write_table_csv(cfg.out / f"marginal{axis}.csv", ["x", "density"], list(zip(ax, vals)))
    io.dump_json(cfg.out / "summary.json", {
        "terms": len(measures),
        "shift": list(shift),
        "epsilon": cfg.epsilon,
        "grid_mass": grid.riemann_mass(),
    })
    return 0


def cmd_idlaw(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    trip = io.triplet_from_dict(io.load_json(args.triplet))
    out: dict = {"mode": args.mode}
    if args.mode == "phi":
        out["probes"] = _phi_table(trip, load_probes(cfg))
    elif args.mode == "cf":
        us = [[x, y] for x in (-1.0, -0.5, 0.0, 0.5, 1.0) for y in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        out["cf"] = [
            {"u": u, "value": [val.real, val.imag]}
            for u, val in zip(us, trip.classical_cf(us).tolist())
        ]
    elif args.mode == "sigma-form":
        sf = triplet_to_sigma_form(trip)
        back = sigma_form_to_triplet(sf)
        out["sigma_form"] = {
            "gamma1": sf.gamma1,
            "gamma2": sf.gamma2,
            "sigma1": sf.sigma1.to_jsonable(),
            "sigma2": sf.sigma2.to_jsonable(),
            "sigma_tilde": sf.sigma_tilde.to_jsonable(),
        }
        out["round_trip_ok"] = bool(
            abs(back.v[0] - trip.v[0]) <= 1e-12
            and abs(back.v[1] - trip.v[1]) <= 1e-12
            and back.tau.atoms.close_to(trip.tau.atoms, tol=1e-12)
        )
    elif args.mode == "drift":
        d = trip.drift()
        out["drift"] = None if d is None else list(d)
    else:
        raise io.SchemaError(f"unknown idlaw mode {args.mode!r}")
    io.dump_json(cfg.out / "idlaw.json", out)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    arr = io.array_from_dict(io.load_json(args.array))
    rep12, rep34 = lm.condition_reports(arr)
    agree = rep12.passed == rep34.passed
    io.dump_json(cfg.out / "condition_report.json", {
        "I_II": rep12.to_jsonable(),
        "III_IV": rep34.to_jsonable(),
        "verdicts_agree": agree,
    })
    trip = lm.triplet_from_reports(rep12, rep34)
    io.dump_json(cfg.out / "limit_triplet.json", io.triplet_to_dict(trip))
    probes = load_probes(cfg)
    bif = lm.run_bi_free_limit(arr, probes, reference=trip)
    io.write_table_csv(cfg.out / "bifree_residuals.csv", ["k_n", "residual"], bif)
    us = st.default_u_probes()
    cls = lm.run_classical_limit(arr, us, reference=trip)
    io.write_table_csv(cfg.out / "classical_residuals.csv", ["k_n", "residual"], cls)
    io.dump_json(cfg.out / "limit_summary.json", {
        "bifree_final_residual": bif[-1][1],
        "classical_final_residual": cls[-1][1],
        "verdicts_agree": agree,
    })
    return 0


def cmd_stable(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    spec = io.stable_spec_from_dict(io.load_json(args.spec))
    probes = load_probes(cfg)
    report = st.check_stability(
        spec, args.a, args.b, probes=probes, threshold=cfg.stability_threshold
    )
    io.dump_json(cfg.out / "stability_report.json", report.to_jsonable())
    return 0


def cmd_doa(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    nu = io.measure_from_dict(io.load_json(args.measure))
    spec = io.stable_spec_from_dict(io.load_json(args.spec))
    try:
        ns = [int(x) for x in args.ns.split(",")]
    except ValueError as e:
        raise io.SchemaError(f"bad --ns {args.ns!r}") from e
    report = st.domain_of_attraction_run(nu, spec, ns, probes=load_probes(cfg))
    io.dump_json(cfg.out / "doa_report.json", report.to_jsonable())
    return 0


def cmd_fullness(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    payload = io.load_json(args.input)
    if args.method == "triplet":
        trip = io.triplet_from_dict(payload)
        report = fl.fullness_of_triplet(trip)
    else:
        if isinstance(payload, dict) and "atoms" in payload:
            obj = io.measure_from_dict(payload)
        elif isinstance(payload, dict) and "terms" in payload:
            obj = io.rep_from_dict(payload)
        else:
            obj = io.triplet_from_dict(payload)
        probes = None if cfg.probes == "default" else io.probes_from_dict(io.load_json(cfg.probes))
        report = (fl.fullness_by_g if args.method == "g" else fl.fullness_by_phi)(obj, probes)
    io.dump_json(cfg.out / "fullness_report.json", report.to_jsonable())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bifree", description=__doc__)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory", default=None)
    p.add_argument("--epsilon", type=float, default=None, help="smoothing parameter")
    p.add_argument("--grid", default=None, help='grid spec "smin:smax:n,tmin:tmax:n"')
    p.add_argument("--probes", default=None, help='"default" or a probes JSON file')
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convolve", help="bi-free convolution of measure files")
    c.add_argument("inputs", nargs="+", help="measure JSON files")
    c.add_argument("--shift", default=None, help='point-mass shift "s,t"')
    c.set_defaults(func=cmd_convolve)

    c = sub.add_parser("idlaw", help="evaluate an ID-law triplet")
    c.add_argument("triplet", help="triplet JSON file")
    c.add_argument("--mode", choices=["phi", "cf", "sigma-form", "drift"], default="phi")
    c.set_defaults(func=cmd_idlaw)

    c = sub.add_parser("limit", help="triangular-array limit runner")
    c.add_argument("array", help="array JSON file")
    c.set_defaults(func=cmd_limit)

    c = sub.add_parser("stable", help="stability check of a stable spec")
    c.add_argument("spec", help="stable spec JSON file")
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--b", type=float, required=True)
    c.set_defaults(func=cmd_stable)

    c = sub.add_parser("doa", help="domain-of-attraction run")
    c.add_argument("measure", help="base measure JSON file")
    c.add_argument("spec", help="stable spec JSON file")
    c.add_argument("--ns", required=True, help="comma-separated sample sizes")
    c.set_defaults(func=cmd_doa)

    c = sub.add_parser("fullness", help="line-support test")
    c.add_argument("input", help="measure / rep / triplet JSON file")
    c.add_argument("--method", choices=["g", "phi", "triplet"], default="g")
    c.set_defaults(func=cmd_fullness)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except io.SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NoConvergence, DegenerateDenominator, QuadratureError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NotInfinitesimal, ConditionsNotMet) as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
