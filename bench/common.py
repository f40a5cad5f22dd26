"""Operation records and the helpers the workload modules share."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    """One timed call into the program.

    ``kind`` groups operations for the ``ops.<kind>.p50_ms`` figures;
    ``expect`` names an exception the call must raise (a negative control).
    ``phi_denominator`` is the number of (content-distinct row measure x
    probe) pairs a ``run_bi_free_limit`` call needs at least.
    """

    name: str
    kind: str
    fn: Callable[[], Any]
    expect: type | None = None
    phi_denominator: int = 0


@dataclass
class Checks:
    """Collects failed property checks; an empty list means correct."""

    errors: list[str] = field(default_factory=list)

    def that(self, ok: bool, msg: str) -> None:
        if not ok:
            self.errors.append(msg)

    def close(self, got, want, tol: float, msg: str) -> None:
        got_a = np.asarray(got, dtype=complex)
        want_a = np.asarray(want, dtype=complex)
        err = float(np.max(np.abs(got_a - want_a))) if got_a.size else 0.0
        if not (math.isfinite(err) and err <= tol):
            self.errors.append(f"{msg}: error {err:.3e} > {tol:.1e}")


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return {"nd": obj.tobytes().hex(), "shape": list(obj.shape)}
    if hasattr(obj, "to_jsonable"):
        return _canon(obj.to_jsonable())
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, complex):
        return [repr(obj.real), repr(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, (int, bool, str)) or obj is None:
        return obj
    if hasattr(obj, "__dict__"):
        return _canon(vars(obj))
    if hasattr(obj, "__slots__"):
        return _canon({k: getattr(obj, k) for k in obj.__slots__})
    return repr(obj)


def digest(obj) -> str:
    """Content hash of an operation's result, to check that rounds repeat."""
    text = json.dumps(_canon(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])
