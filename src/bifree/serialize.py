"""JSON schemas and CSV writers for the command-line pipelines.

All emitted JSON uses sorted keys and shortest-round-trip floats; CSV cells
carry 17 significant digits.  Identical inputs therefore produce
byte-identical reports.  Every malformed input, including an entry that is
not an object where one is expected, raises ``SchemaError`` naming the key.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .biconv import BiConvRep, bi_free_convolve
from .idlaw import CharTriplet, LevyMeasure, RadialPart
from .limits import TriangularArray, make_array
from .measure import AtomicMeasure2D, LawError, Matrix2, PlanarMeasure
from .stable import StableSpec
from .transforms import GridDensity

CSV_FMT = "%.17g"


class SchemaError(ValueError):
    """Input file violates a documented schema."""


def _is_number(x) -> bool:
    """A JSON number: an int or a float, and not a boolean, which Python counts as an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _need(obj: dict, key: str, kind=None):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object with key {key!r}, got {obj!r}")
    if key not in obj:
        raise SchemaError(f"missing key {key!r}")
    val = obj[key]
    # no kind asked for here is bool, so a boolean is always of the wrong type
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise SchemaError(f"key {key!r} has wrong type {type(val).__name__}")
    return val


def _number(obj: dict, key: str, default: float, where: str, inf_ok: bool = False) -> float:
    """``obj[key]`` as a finite float, ``default`` when absent or null; errors name ``where``.

    With ``inf_ok``, +inf is taken as well.
    """
    val = obj.get(key)
    if val is None:
        return default
    if not _is_number(val):
        raise SchemaError(f"key {where!r} must be a number, got {val!r}")
    if not (math.isfinite(val) or (inf_ok and val == math.inf)):
        raise SchemaError(f"key {where!r} must be a finite number, got {val!r}")
    return float(val)


def _objects(entries, key: str) -> list:
    """``entries``, checked to be a list of JSON objects; errors name ``key``."""
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise SchemaError(f"key {key!r} must hold a list of objects, got {entries!r}")
    return entries


def _rays(entries, key: str) -> tuple[tuple[float, float], ...]:
    """(angle, mass) per entry of a circle measure ``key``, both finite."""
    rays = tuple(
        (float(_need(e, "angle", (int, float))), float(_need(e, "m", (int, float))))
        for e in _objects(entries, key)
    )
    for ray, e in zip(rays, entries):
        if not all(map(math.isfinite, ray)):
            raise SchemaError(f"key {key!r} must hold finite angles and masses, got {e!r}")
    return rays


def _matrix2(rows, key: str) -> Matrix2:
    """The symmetric matrix [[a, c], [c, b]] of JSON rows; errors name ``key``."""
    try:
        (a, c), (c_low, b) = rows
        numbers = all(map(_is_number, (a, c, c_low, b)))
    except (TypeError, ValueError):
        numbers = False
    if not numbers:
        raise SchemaError(f"key {key!r} must be a 2x2 matrix of numbers, got {rows!r}")
    a, c, c_low, b = float(a), float(c), float(c_low), float(b)
    if not all(map(math.isfinite, (a, c, c_low, b))):
        raise SchemaError(f"key {key!r} must hold finite numbers, got {rows!r}")
    if abs(c - c_low) > 1e-12:
        raise SchemaError(f"key {key!r} must be symmetric")
    return Matrix2(a, c, b)


def _pair(x) -> tuple[float, float]:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise SchemaError(f"expected a 2-vector, got {x!r}")
    a, b = x
    if type(a) is float and type(b) is float:  # json's floats, with no call: this runs once per atom
        return a, b
    if not (_is_number(a) and _is_number(b)):
        raise SchemaError(f"expected a 2-vector of numbers, got {x!r}")
    return float(a), float(b)


def _vec2(x, key: str) -> tuple[float, float]:
    """A 2-vector of finite numbers; errors name ``key``."""
    try:
        v = _pair(x)
    except SchemaError as e:
        raise SchemaError(f"key {key!r}: {e}") from None
    if not all(map(math.isfinite, v)):
        raise SchemaError(f"key {key!r} must hold finite numbers, got {x!r}")
    return v


# -- measures ----------------------------------------------------------------


def measure_to_dict(m: PlanarMeasure) -> dict:
    return {"atoms": [{"x": p, "w": w} for p, w in zip(m.points.tolist(), m.weights.tolist())]}


def _parse_atoms(obj: dict, coords: list, weights: list) -> int:
    """Append a measure's atom coordinates and weights to flat lists; returns its atom count."""
    atoms = _need(obj, "atoms", list)
    if not atoms:
        raise SchemaError("measure needs at least one atom")
    j = 0
    try:
        for j, a in enumerate(atoms):
            if not isinstance(a, dict):
                raise SchemaError("atom entries must be objects")
            # the law's own checks reject non-finite coordinates
            x = _pair(_need(a, "x"))
            w = _need(a, "w", (int, float))
            if w <= 0:
                raise SchemaError(f"atom weight {w} must be positive")
            coords += x
            weights.append(float(w))
    except SchemaError as e:
        raise SchemaError(f"atoms[{j}]: {e}") from None
    return len(atoms)


def measure_from_dict(obj: dict) -> PlanarMeasure:
    coords: list = []
    weights: list = []
    size = _parse_atoms(obj, coords, weights)
    try:
        return PlanarMeasure.from_flat(coords, weights, [size])[0]
    except LawError as e:
        raise SchemaError(str(e)) from e


# -- triplets ----------------------------------------------------------------


def triplet_to_dict(t: CharTriplet) -> dict:
    tau: dict[str, Any] = {"atoms": t.tau.atoms.to_jsonable()}
    if t.tau.radial is not None:
        rp = t.tau.radial
        tau["radial"] = {
            "alpha": rp.alpha,
            "theta": [{"angle": a, "m": m} for a, m in rp.rays],
            "r_min": rp.r_min,
            "r_max": None if math.isinf(rp.r_max) else rp.r_max,
        }
    return {
        "v": [t.v[0], t.v[1]],
        "A": [[t.A.a, t.A.c], [t.A.c, t.A.b]],
        "tau": tau,
    }


def triplet_from_dict(obj: dict) -> CharTriplet:
    v = _vec2(_need(obj, "v"), "v")
    A = _matrix2(_need(obj, "A"), "A")
    tau_obj = _need(obj, "tau", dict)
    atoms = [
        (_vec2(_need(a, "x"), "tau.atoms"), float(_need(a, "m", (int, float))))
        for a in _objects(tau_obj.get("atoms", []), "tau.atoms")
    ]
    if not all(math.isfinite(m) for _, m in atoms):
        raise SchemaError(f"key 'tau.atoms' must hold finite masses, got {[m for _, m in atoms]!r}")
    radial = None
    try:
        if tau_obj.get("radial") is not None:
            r = _need(tau_obj, "radial", dict)
            rays = _rays(_need(r, "theta"), "tau.radial.theta")
            radial = RadialPart(
                alpha=float(_need(r, "alpha", (int, float))),
                rays=rays,
                r_min=_number(r, "r_min", 0.0, "tau.radial.r_min"),
                r_max=_number(r, "r_max", math.inf, "tau.radial.r_max"),
            )
        return CharTriplet(v, A, LevyMeasure(AtomicMeasure2D(atoms), radial))
    except (TypeError, ValueError) as e:
        raise SchemaError(str(e)) from e


# -- stable specs ------------------------------------------------------------


def stable_spec_from_dict(obj: dict) -> StableSpec:
    alpha = float(_need(obj, "alpha", (int, float)))
    theta = _rays(obj.get("theta", []), "theta")
    v = _vec2(obj.get("v", [0.0, 0.0]), "v")
    A = None
    if obj.get("gaussian_A") is not None:
        A = _matrix2(obj["gaussian_A"], "gaussian_A")
    try:
        return StableSpec(alpha=alpha, theta=theta, v=v, gaussian_a=A)
    except ValueError as e:
        raise SchemaError(str(e)) from e


# -- arrays ------------------------------------------------------------------


def array_to_dict(arr: TriangularArray) -> dict:
    return {
        "L": arr.L,
        "rows": [
            {"measures": [measure_to_dict(m) for m in row], "shift": list(shift)}
            for row, shift in zip(arr.rows, arr.shifts)
        ],
    }


def _row_from_list(measures: list, where: str) -> list[PlanarMeasure]:
    """The laws of row ``where``, parsed in one loop and built in one batch.

    A law that fails its checks is reported before any later entry, as
    when the laws were built one at a time.
    """
    coords: list = []
    weights: list = []
    sizes: list = []
    try:
        for m in measures:
            sizes.append(_parse_atoms(m, coords, weights))
        return PlanarMeasure.from_flat(coords, weights, sizes)
    except SchemaError as e:
        done = sum(sizes)
        try:
            PlanarMeasure.from_flat(coords[: 2 * done], weights[:done], sizes)
        except LawError as first:
            raise SchemaError(f"{where}.measures[{first.law}]: {first}") from first
        raise SchemaError(f"{where}.measures[{len(sizes)}]: {e}") from None
    except LawError as e:
        raise SchemaError(f"{where}.measures[{e.law}]: {e}") from e


def array_from_dict(obj: dict) -> TriangularArray:
    """A triangular array from its JSON form, one batch per row.

    Errors are prefixed with their location, as in
    ``rows[3].measures[17]: weights sum to 0.9, not 1``.
    """
    rows_obj = _need(obj, "rows", list)
    rows = []
    shifts = []
    for i, r in enumerate(rows_obj):
        try:
            measures = _need(r, "measures", list)
        except SchemaError as e:
            raise SchemaError(f"rows[{i}]: {e}") from None
        rows.append(_row_from_list(measures, f"rows[{i}]"))
        try:
            shifts.append(_vec2(r.get("shift", [0.0, 0.0]), "shift"))
        except SchemaError as e:
            raise SchemaError(f"rows[{i}].shift: {e}") from None
    for i, row in enumerate(rows):
        if not row:
            raise SchemaError(f"rows[{i}].measures: rows must not be empty")
    try:
        # L = inf keeps its meaning: the untruncated mean
        return make_array(rows, shifts, L=_number(obj, "L", 1.0, "L", inf_ok=True))
    except ValueError as e:
        raise SchemaError(str(e)) from e


# -- convolution reps --------------------------------------------------------


def rep_from_dict(obj: dict) -> BiConvRep:
    items = []
    terms = _objects(_need(obj, "terms", list), "terms")
    if not terms:
        raise SchemaError("key 'terms' must hold at least one term")
    for t in terms:
        if "measure" in t:
            items.append(measure_from_dict(t["measure"]))
        elif "triplet" in t:
            items.append(triplet_from_dict(t["triplet"]))
        else:
            raise SchemaError("rep terms must contain 'measure' or 'triplet'")
    return bi_free_convolve(items, shift=_vec2(obj.get("shift", [0.0, 0.0]), "shift"))


# -- probes ------------------------------------------------------------------


def probes_from_dict(obj) -> list[tuple[complex, complex]]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("probes file must hold a nonempty list")
    out = []
    for i, e in enumerate(obj):
        z, w = (complex(*_vec2(_need(e, key), key)) for key in ("z", "w"))
        if z.imag == 0.0 or w.imag == 0.0:
            raise SchemaError(f"probes entry {i} must have non-real z and w, got {e!r}")
        out.append((z, w))
    return out


# -- files -------------------------------------------------------------------


def load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read JSON from {path}: {e}") from e


def dump_json(path: str | Path, payload: Any) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_grid_csv(path: str | Path, grid: GridDensity) -> None:
    """Two axis header rows, then the value matrix row-major over s, one %-format per row."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    row = ",".join([CSV_FMT] * len(grid.t_axis)) + "\n"
    with open(path, "w") as fh:
        fh.write("s_axis," + ",".join([CSV_FMT] * len(grid.s_axis)) % tuple(grid.s_axis.tolist()) + "\n")
        fh.write("t_axis," + row % tuple(grid.t_axis.tolist()))
        fh.writelines(row % tuple(values) for values in grid.values.tolist())


def write_table_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [CSV_FMT % v if isinstance(v, (int, float, np.floating)) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")
