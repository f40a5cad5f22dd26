"""Deciding whether a planar law is supported on a straight line.

Three routes: a linear identity among the planar and marginal Cauchy
transforms, the same identity at the phi level, and (for ID laws) the
structure test on the triplet: the matrix part must be singular with the
Levy measure carried by a kernel line through the origin.

Line reports are normalized to alpha^2 + beta^2 = 1 with the first nonzero
of (alpha, beta) positive.  Point masses satisfy the identity for every
line through the point; such reports carry ``degenerate=True`` and their
line parameters are not comparable across methods.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .biconv import BiConvRep, bi_free_convolve
from .idlaw import CharTriplet
from .transforms import _probe_pairs

NONFULL_THRESHOLD = 1e-8
FULL_FLOOR = 1e-3
TRIPLET_TOL = 1e-8  # relative tolerance of the triplet structure test

Probe = tuple[complex, complex]


@dataclass
class LineReport:
    """Fullness verdict; is_full is None inside the indeterminate band."""

    is_full: bool | None
    line: tuple[float, float, float] | None
    residual: float
    degenerate: bool = False
    method: str = ""

    def to_jsonable(self) -> dict:
        return asdict(self)


def default_fullness_probes() -> list[Probe]:
    """Deterministic probes with mixed real parts and both half-planes."""
    zs = [2.1j, -1.9j, 0.5 + 2.4j, -0.7 + 3.1j, 1.1 - 2.6j,
          3.4j, -0.4 - 2.2j, 2.8 + 3.3j, -2.5 + 2.9j, 1.6 - 3.7j]
    ws = [1.8j, 0.6 - 2.7j, -2.3j, 1.3 + 2.2j, -0.9 + 2.8j,
          -1.5 - 3.0j, 2.6j, -0.8 + 3.6j, 1.9 - 2.4j, 3.1 + 2.5j]
    return list(zip(zs, ws))


def default_phi_probes(obj) -> list[Probe]:
    """Default probes of :func:`fullness_by_phi` for ``obj``.

    The base probes scaled by the working cone's height, so each lies at or
    above it; not all lie inside the cone (w = 3.1 + 2.5i has
    |Re w| > |Im w| at every scale).  Without atomic terms the height is 1
    and the base probes are kept.
    """
    scale = _as_rep(obj).cone.M
    return [(scale * z, scale * w) for z, w in default_fullness_probes()]


def _normalize_line(vec: np.ndarray) -> tuple[tuple[float, float, float], bool]:
    """Scale to alpha^2+beta^2 = 1, fix the sign; flags the gamma-only case."""
    alpha, beta, gamma = (float(x) for x in vec)
    n = math.hypot(alpha, beta)
    if n < 1e-12 * max(1.0, abs(gamma)):
        return (alpha, beta, gamma), True
    alpha, beta, gamma = alpha / n, beta / n, gamma / n
    lead = alpha if abs(alpha) > 1e-12 else beta
    if lead < 0.0:
        alpha, beta, gamma = -alpha, -beta, -gamma
    return (alpha, beta, gamma), False


def _classify(rows: np.ndarray, method: str) -> LineReport:
    """Smallest-singular-direction fit of a homogeneous linear identity.

    Each complex probe equation is normalized as a whole before its real
    and imaginary parts are stacked; normalizing the parts separately would
    blow rounding noise in a vanishing part up to unit size.
    """
    C = np.array(rows, dtype=complex)
    norms = np.linalg.norm(C, axis=1)
    keep = norms > 1e-300
    C = C[keep] / norms[keep, None]
    M = np.vstack([C.real, C.imag])
    _, svals, vt = np.linalg.svd(M)
    residual = float(svals[-1])
    second = float(svals[-2]) if len(svals) >= 2 else math.inf
    line, gamma_only = _normalize_line(vt[-1])
    if gamma_only:
        # a pure-constant identity is impossible for a probability law
        return LineReport(True, None, residual, method=method)
    if residual <= NONFULL_THRESHOLD:
        # a second tiny singular value means the line is not unique (point
        # masses) or the probe set is structurally degenerate
        return LineReport(
            False, line, residual,
            degenerate=bool(second <= NONFULL_THRESHOLD),
            method=method,
        )
    if residual > FULL_FLOOR:
        return LineReport(True, None, residual, method=method)
    return LineReport(None, line, residual, method=method)


def _as_rep(obj) -> BiConvRep:
    if isinstance(obj, BiConvRep):
        return obj
    return bi_free_convolve([obj])


def _probe_zw(probes: Sequence[Probe] | None, default) -> tuple[np.ndarray, np.ndarray]:
    """z and w of ``probes``, or of ``default()`` when None; at least six pairs."""
    z, w = _probe_pairs(default() if probes is None else probes, complex, "probes").T
    if len(z) < 6:
        raise ValueError("need at least six probes")
    return z, w


def fullness_by_g(obj, probes: Sequence[Probe] | None = None) -> LineReport:
    """Line fit of (alpha z + beta w + gamma) G = beta G1 + alpha G2.

    ``obj`` is an atomic planar measure, a convolution representation or a
    triplet; a single measure is evaluated in closed form.
    """
    z, w = _probe_zw(probes, default_fullness_probes)
    G, G1, G2 = _as_rep(obj).cauchy_with_marginals(z, w)
    return _classify(np.stack([z * G - G2, w * G - G1, G], axis=1), "cauchy")


def fullness_by_phi(obj, probes: Sequence[Probe] | None = None) -> LineReport:
    """Line fit of zw(alpha z + beta w) phi = beta w^2 phi1 + alpha z^2 phi2 - gamma zw.

    Default probes come from :func:`default_phi_probes`.
    """
    rep = _as_rep(obj)
    z, w = _probe_zw(probes, lambda: default_phi_probes(rep))
    phi = rep.phi(z, w)
    p1 = rep.marginal(1).phi(z)
    p2 = rep.marginal(2).phi(w)
    rows = np.stack([z * z * w * phi - z * z * p2, z * w * w * phi - w * w * p1, z * w], axis=1)
    return _classify(rows, "phi")


def fullness_of_triplet(t: CharTriplet) -> LineReport:
    """Structure test: non-full iff A singular and tau on a kernel line.

    tau's directions are its atoms and its rays, read as arrays.  The
    reported line is <u,(s,t)> = <u,v> for the kernel direction u.
    """
    A = t.A
    lo, hi = A.eigenvalues()
    scale = max(abs(hi), 1.0)
    residual, degenerate = float(abs(lo) / scale), False
    if abs(lo) > TRIPLET_TOL * scale:
        return LineReport(True, None, residual, method="triplet")

    rp = t.tau.radial
    x1, x2 = np.concatenate([t.tau.atoms.points] + ([] if rp is None else [rp.omega])).T
    m = np.concatenate([t.tau.atoms.masses] + ([] if rp is None else [rp.mass]))

    if abs(hi) <= TRIPLET_TOL and not len(m):
        u, residual, degenerate = (1.0, 0.0), 0.0, True  # point mass; any line through v works
    elif abs(hi) <= TRIPLET_TOL:
        # zero matrix: every direction is in the kernel; tau must sit on one
        # line through the origin.  S = sum of m x x^T / |x|^2, added in order
        outer = np.stack((x1 * x1, x1 * x2, x2 * x2), axis=1)
        saa, sac, scc = (m[:, None] * outer / (x1 * x1 + x2 * x2)[:, None]).sum(axis=0, initial=0.0)
        evals, evecs = np.linalg.eigh(np.array([[saa, sac], [sac, scc]]))
        spread = float(evals[0] / max(evals[1], 1e-300))
        if spread > TRIPLET_TOL:
            return LineReport(True, None, spread, method="triplet")
        u = (float(evecs[0, 0]), float(evecs[1, 0]))
    else:
        # rank one: the kernel is perpendicular to a nonzero row of A - lo I;
        # the row [c, b - lo] vanishes when A = [[a, 0], [0, 0]]
        vec = (A.c, lo - A.a) if abs(A.c) > abs(A.a - lo) else (lo - A.b, A.c)
        if vec == (0.0, 0.0):
            vec = (A.c, lo - A.a)
        n = math.hypot(*vec)
        u = (vec[0] / n, vec[1] / n)
        worst = float(np.max(np.abs(u[0] * x1 + u[1] * x2) / np.hypot(x1, x2), initial=0.0))
        if worst > TRIPLET_TOL:
            return LineReport(True, None, worst, method="triplet")
    line, _ = _normalize_line(np.array([u[0], u[1], -(u[0] * t.v[0] + u[1] * t.v[1])]))
    return LineReport(False, line, residual, degenerate=degenerate, method="triplet")
