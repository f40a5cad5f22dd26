"""Finitely-atomic measures on the line and the plane.

Atoms linked by a chain of Euclidean gaps <= ``MERGE_TOL`` are merged at
construction time, whatever the input order, weights adding up.
Probability measures must carry total mass 1 within ``MASS_TOL``.  All
containers are immutable after construction and safe for concurrent reads.
Laws that occur together (a row of a triangular array, the atomic terms of a
bi-free convolution) are grouped by content and held as one padded stack
with counts, ``RowStack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

MERGE_TOL = 1e-12
MASS_TOL = 1e-12
PSD_TOL = 1e-12  # absolute slack of Matrix2.is_psd
KERNEL_TOL = 1e-8  # eigenvalue ratio below which Matrix2.kernel_vector reports a kernel

Vec2 = tuple[float, float]


@dataclass(frozen=True)
class Matrix2:
    """Symmetric 2x2 matrix [[a, c], [c, b]]."""

    a: float
    c: float
    b: float

    def is_psd(self) -> bool:
        return self.a >= -PSD_TOL and self.b >= -PSD_TOL and self.a * self.b - self.c**2 >= -PSD_TOL

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.c], [self.c, self.b]], dtype=float)

    def quad_form(self, u: Vec2) -> float:
        u1, u2 = u
        return self.a * u1 * u1 + 2.0 * self.c * u1 * u2 + self.b * u2 * u2

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues, smallest first."""
        half = 0.5 * (self.a + self.b)
        disc = math.hypot(0.5 * (self.a - self.b), self.c)
        return half - disc, half + disc

    def kernel_vector(self) -> Vec2 | None:
        """Unit vector spanning the kernel, or None if nonsingular.

        Returns (nan, nan) sentinel-free: the zero matrix reports (1.0, 0.0)
        since every direction is in the kernel.
        """
        lo, hi = self.eigenvalues()
        if abs(lo) > KERNEL_TOL * max(abs(hi), 1.0):
            return None
        if abs(hi) <= KERNEL_TOL:
            return (1.0, 0.0)
        # eigenvector for the small eigenvalue of [[a,c],[c,b]]
        if abs(self.c) > abs(self.a - lo):
            vec = (self.c, lo - self.a)
        else:
            vec = (lo - self.b, self.c)
        n = math.hypot(*vec)
        if n == 0.0:
            return (1.0, 0.0)
        return (vec[0] / n, vec[1] / n)

    def __add__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a + other.a, self.c + other.c, self.b + other.b)

    def scaled(self, f: float) -> "Matrix2":
        return Matrix2(f * self.a, f * self.c, f * self.b)


def _merge(points: np.ndarray, weights: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort (n, d) atoms lexicographically and merge every chain of gaps <= tol.

    Atoms linked by a chain of Euclidean gaps <= tol become one atom (single
    linkage, the one rule that does not depend on input order).  It sits at
    the lexicographically first of them and carries their summed weights.
    Ties are broken by weight, so the sums do not depend on input order either.
    Atoms with no other atom within tol are returned as sorted, with no
    linkage pass: on the plane, ``_needs_merge`` tells so even when atoms
    share an x coordinate.
    """
    order = np.lexsort((weights, *points.T[::-1]))
    pts, wts = points[order], weights[order]
    if not (pts[1:, 0] - pts[:-1, 0] <= tol).any():
        return pts, wts
    if pts.shape[1] == 2 and not _needs_merge(pts, np.zeros(len(pts), dtype=int), 1, tol)[0]:
        return pts, wts
    # exact duplicates are adjacent; link the distinct sites only
    new = np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))
    site = np.cumsum(new) - 1
    uniq = pts[new]
    n = len(uniq)
    # two sites within tol each have a neighbour within tol in every
    # coordinate's sort order; only sites with such neighbours are compared,
    # in a window along the coordinate that gives the fewest pairs
    orders = [np.argsort(col, kind="stable") for col in uniq.T]
    near = np.ones(n, dtype=bool)
    for col, o in zip(uniq.T, orders):
        gap = col[o[1:]] - col[o[:-1]] <= tol
        has = np.zeros(n, dtype=bool)
        has[o[1:][gap]] = True
        has[o[:-1][gap]] = True
        near &= has
    windows = []
    for col, o in zip(uniq.T, orders):
        o = o[near[o]]
        span = np.searchsorted(col[o], col[o] + tol, side="right") - np.arange(len(o)) - 1
        windows.append((span.sum(), o, span))
    _, o, span = min(windows, key=lambda win: win[0])
    first = np.repeat(np.arange(len(o)), span)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(span) - span, span)
    i, j = o[first], o[second]
    linked = np.linalg.norm(uniq[i] - uniq[j], axis=1) <= tol
    i, j = i[linked], j[linked]
    # label every site with the smallest site of its chain
    label = np.arange(n)
    while i.size:
        low = np.minimum(label[i], label[j])
        nxt = label.copy()
        np.minimum.at(nxt, i, low)
        np.minimum.at(nxt, j, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    root = label == np.arange(n)
    merged = (np.cumsum(root) - 1)[label][site]
    return uniq[root], np.bincount(merged, weights=wts)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _probability(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merged, sorted and frozen (n, d) atoms of a probability measure, checked."""
    if not np.isfinite(points).all():
        raise ValueError("atom coordinates must be finite")
    if not (weights > 0.0).all():
        raise ValueError("atom weights must be positive")
    pts, wts = _merge(points, weights, MERGE_TOL)
    total = float(wts.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    return _freeze(pts), _freeze(wts)


def _dilated(points: np.ndarray, weights: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of the image under x -> lam*x, as the constructor builds them from the scaled atoms.

    A coordinate that overflows raises the constructor's ValueError, and
    atoms brought within ``MERGE_TOL`` merge.  The weights array itself is
    kept when the constructor's weights equal it.
    """
    if not 0.0 < lam < np.inf:  # NaN fails too
        raise ValueError("dilation factor must be positive and finite")
    with np.errstate(over="ignore"):
        scaled = lam * points
    pts, wts = _probability(scaled, weights)
    return pts, weights if np.array_equal(wts, weights) else wts


def _needs_merge(points: np.ndarray, law: np.ndarray, count: int, tol: float) -> np.ndarray:
    """Laws of a (law, x, y)-sorted batch that may hold two atoms within tol.

    Atoms within Euclidean distance tol differ by at most tol in each
    coordinate, so they lie in one run of x-gaps <= tol, and within that
    run every pair between them that is adjacent in y order is within tol
    in y.  A law with no such pair is returned by ``_merge`` as sorted.
    """
    flagged = np.zeros(count, dtype=bool)
    x, y = points[:, 0], points[:, 1]
    linked = (law[1:] == law[:-1]) & (x[1:] - x[:-1] <= tol)
    if not linked.any():
        return flagged
    run = np.cumsum(np.concatenate(([True], ~linked)))
    inside = np.concatenate((linked, [False])) | np.concatenate(([False], linked))
    run, y, law = run[inside], y[inside], law[inside]
    order = np.lexsort((y, run))
    run, y, law = run[order], y[order], law[order]
    close = (run[1:] == run[:-1]) & (y[1:] - y[:-1] <= tol)
    flagged[law[1:][close]] = True
    return flagged


class LawError(ValueError):
    """A law of a batch is not a probability measure; ``law`` is its index."""

    def __init__(self, law: int, message: str):
        super().__init__(message)
        self.law = law


def _canonical(points: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merged, sorted and frozen (n, 2) atoms with their masses; zero masses dropped."""
    pts, wts = _merge(points, masses, MERGE_TOL)
    keep = wts != 0.0
    return _freeze(pts[keep]), _freeze(wts[keep])


class PlanarMeasure:
    """Borel probability measure on R^2 with finitely many atoms."""

    __slots__ = ("points", "weights")

    def __init__(self, atoms: Iterable[tuple[Sequence[float], float]]):
        items = list(atoms)
        if not items:
            raise ValueError("measure needs at least one atom")
        pts = np.array([[float(p[0]), float(p[1])] for p, _ in items], dtype=float)
        wts = np.array([float(w) for _, w in items], dtype=float)
        self.points, self.weights = _probability(pts, wts)

    @classmethod
    def from_flat(cls, points, weights, sizes) -> list["PlanarMeasure"]:
        """The laws whose atoms are consecutive runs of ``sizes`` rows of (points, weights).

        Each law equals ``PlanarMeasure`` of its atoms, byte for byte, and
        the first invalid law raises ``LawError`` with the constructor's
        message.  The checks and the sort run on the whole batch; only laws
        that may need a merge, or whose mass lies near ``MASS_TOL`` in some
        summation order, go through the constructor's path one by one.
        Unmerged laws hold read-only views of one sorted copy of the batch.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        wts = np.asarray(weights, dtype=float).reshape(-1)
        sizes = np.asarray(sizes, dtype=int).reshape(-1)
        if len(pts) != len(wts) or sizes.sum() != len(wts) or (sizes < 0).any():
            raise ValueError("sizes must split the atoms into consecutive laws")
        if not len(sizes):
            return []
        law = np.repeat(np.arange(len(sizes)), sizes)
        invalid = ~(np.isfinite(pts).all(axis=1) & (wts > 0.0))
        # the constructor sums in sorted order; two orders of n positive weights
        # near 1 differ by less than n eps, so a mass within slack passes both
        slack = MASS_TOL - 2.0 * sizes * np.finfo(float).eps
        mass = np.bincount(law, weights=wts, minlength=len(sizes))
        slow = (sizes == 0) | (np.bincount(law[invalid], minlength=len(sizes)) > 0)
        slow |= ~(np.abs(mass - 1.0) <= slack)
        order = np.lexsort((wts, pts[:, 1], pts[:, 0], law))
        pts, wts, law = _freeze(pts[order]), _freeze(wts[order]), law[order]
        slow |= _needs_merge(pts, law, len(sizes), MERGE_TOL)
        ends = np.cumsum(sizes).tolist()
        out = []
        for k, (a, b, one_by_one) in enumerate(zip([0] + ends[:-1], ends, slow.tolist())):
            m = object.__new__(cls)
            if one_by_one:
                if a == b:
                    raise LawError(k, "measure needs at least one atom")
                try:
                    m.points, m.weights = _probability(pts[a:b], wts[a:b])
                except ValueError as e:
                    raise LawError(k, str(e)) from None
            else:
                m.points, m.weights = pts[a:b], wts[a:b]
            out.append(m)
        return out

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"PlanarMeasure({len(self)} atoms)"

    def atoms(self) -> list[tuple[Vec2, float]]:
        return [((p[0], p[1]), w) for p, w in zip(self.points, self.weights)]

    def marginal(self, axis: int) -> "Measure1D":
        """Pushforward under the coordinate projection, axis in {1, 2}."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return Measure1D(zip(self.points[:, axis - 1], self.weights))

    def dilated(self, lam: float) -> "PlanarMeasure":
        """Image under x -> lam*x (0 < lam < inf), as the constructor builds it from the scaled atoms."""
        out = object.__new__(PlanarMeasure)
        out.points, out.weights = _dilated(self.points, self.weights, lam)
        return out

    def shifted_by(self, v: Sequence[float]) -> "PlanarMeasure":
        """Recentring by v: atoms move from x to x - v."""
        out = object.__new__(PlanarMeasure)
        out.points = _freeze(self.points - np.asarray(v, dtype=float))
        out.weights = self.weights
        return out

    def tail_mass(self, eps: float) -> float:
        """Mass of { ||x|| >= eps }."""
        norms = np.hypot(self.points[:, 0], self.points[:, 1])
        return float(self.weights[norms >= eps].sum())

    def support_radius(self) -> float:
        return float(np.hypot(self.points[:, 0], self.points[:, 1]).max())

    def char_fun(self, u):
        """Classical characteristic function at u of shape (..., 2); one u gives a complex."""
        phase = np.asarray(u, dtype=float) @ self.points.T
        val = (self.weights * np.exp(1j * phase)).sum(axis=-1)
        return complex(val) if val.ndim == 0 else val

    def close_to(self, other: "PlanarMeasure", tol: float = 1e-12) -> bool:
        if len(self) != len(other):
            return False
        return bool(
            np.allclose(self.points, other.points, atol=tol)
            and np.allclose(self.weights, other.weights, atol=tol)
        )


Groups = tuple[tuple[PlanarMeasure, int], ...]


def row_groups(row: Sequence[PlanarMeasure]) -> Groups:
    """The distinct laws of a row with their counts, in first-seen order.

    Two entries are one law when their frozen ``points`` and ``weights``
    arrays are byte-equal; the first entry of each law stands for it.
    """
    groups: dict[tuple[bytes, bytes], list] = {}
    for m in row:
        key = (m.points.tobytes(), m.weights.tobytes())
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [m, 1]
    return tuple((m, count) for m, count in groups.values())


class RowStack(NamedTuple):
    """Distinct planar laws with multiplicities, as padded arrays.

    A row of a triangular array, or the atomic terms of a bi-free
    convolution.  ``points`` (G, m, 2) and ``weights`` (G, m) hold law g in
    entry g, and ``counts`` (G,) its multiplicity.  A law with fewer than m
    atoms is padded with zero weights at a copy of its own first atom, so a
    padded entry adds exactly 0 to every sum and puts no pole off the law's
    support.
    """

    points: np.ndarray
    weights: np.ndarray
    counts: np.ndarray


def row_stack(groups: Groups) -> RowStack:
    """The padded stack of a row's groups (see ``row_groups``)."""
    sizes = np.array([len(m) for m, _ in groups], dtype=int)
    real = np.arange(sizes.max()) < sizes[:, None]
    idx = (np.cumsum(sizes) - sizes)[:, None] + np.where(real, np.arange(sizes.max()), 0)
    points = np.concatenate([m.points for m, _ in groups])[idx]
    weights = np.where(real, np.concatenate([m.weights for m, _ in groups])[idx], 0.0)
    counts = np.array([c for _, c in groups], dtype=int)
    for arr in (points, weights, counts):
        arr.flags.writeable = False
    return RowStack(points, weights, counts)


class Measure1D:
    """Borel probability measure on R with finitely many atoms."""

    __slots__ = ("points", "weights")

    def __init__(self, atoms: Iterable[tuple[float, float]]):
        items = list(atoms)
        if not items:
            raise ValueError("measure needs at least one atom")
        pts = np.array([float(p) for p, _ in items], dtype=float)
        wts = np.array([float(w) for _, w in items], dtype=float)
        pts2d, self.weights = _probability(pts[:, None], wts)
        self.points = pts2d[:, 0]

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return f"Measure1D({len(self)} atoms)"

    def dilated(self, lam: float) -> "Measure1D":
        """Image under x -> lam*x (0 < lam < inf), as the constructor builds it from the scaled atoms."""
        out = object.__new__(Measure1D)
        pts2d, out.weights = _dilated(self.points[:, None], self.weights, lam)
        out.points = pts2d[:, 0]
        return out

    def support_radius(self) -> float:
        return float(np.abs(self.points).max())

    def close_to(self, other: "Measure1D", tol: float = 1e-12) -> bool:
        if len(self) != len(other):
            return False
        return bool(
            np.allclose(self.points, other.points, atol=tol)
            and np.allclose(self.weights, other.weights, atol=tol)
        )


class AtomicMeasure2D:
    """Finite atomic measure on R^2, not normalized; masses may be signed.

    Used for row accumulators, Levy measures and the sigma-form components.
    Zero-mass atoms are dropped.
    """

    __slots__ = ("points", "masses")

    def __init__(self, atoms: Iterable[tuple[Sequence[float], float]] = ()):
        items = list(atoms)
        pts = np.array([[float(p[0]), float(p[1])] for p, _ in items], dtype=float).reshape(-1, 2)
        wts = np.array([float(w) for _, w in items], dtype=float)
        self.points, self.masses = _canonical(pts, wts)

    @classmethod
    def from_arrays(cls, points, masses) -> "AtomicMeasure2D":
        """Atoms at the rows of ``points`` (n, 2) with ``masses`` (n,), merged as by the constructor."""
        out = object.__new__(cls)
        out.points, out.masses = _canonical(
            np.array(points, dtype=float).reshape(-1, 2), np.array(masses, dtype=float).reshape(-1)
        )
        return out

    @classmethod
    def _from_merged(cls, points: np.ndarray, masses: np.ndarray) -> "AtomicMeasure2D":
        """Atoms already merged and in canonical order; only zero masses are dropped."""
        keep = masses != 0.0
        out = object.__new__(cls)
        out.points = _freeze(points[keep])
        out.masses = _freeze(masses[keep])
        return out

    def __len__(self) -> int:
        return len(self.masses)

    def __repr__(self) -> str:
        return f"AtomicMeasure2D({len(self)} atoms, mass {self.total_mass():.6g})"

    def atoms(self) -> list[tuple[Vec2, float]]:
        return [((p[0], p[1]), w) for p, w in zip(self.points, self.masses)]

    def to_jsonable(self) -> list[dict]:
        """The atoms as JSON objects {"x": [s, t], "m": mass}, in canonical order."""
        return [{"x": [float(p[0]), float(p[1])], "m": float(w)} for p, w in self.atoms()]

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mass_at(self, point: Sequence[float]) -> float:
        """Mass of the atoms within ``MERGE_TOL`` of ``point``."""
        if len(self) == 0:
            return 0.0
        d = np.linalg.norm(self.points - np.asarray(point, dtype=float), axis=1)
        return float(self.masses[d <= MERGE_TOL].sum())

    def restricted(self, pred: Callable[[np.ndarray], np.ndarray]) -> "AtomicMeasure2D":
        """The atoms in the set {pred}; pred maps an (n,2) array to a bool mask."""
        if len(self) == 0:
            return self
        mask = pred(self.points)
        return AtomicMeasure2D._from_merged(self.points[mask], self.masses[mask])

    def weighted(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "AtomicMeasure2D":
        """New measure with masses multiplied by f(s, t) pointwise.

        ``f`` is called once on the arrays of atom coordinates and must
        broadcast over them.  Atoms whose mass becomes zero are dropped.
        """
        return AtomicMeasure2D._from_merged(
            self.points, self.masses * f(self.points[:, 0], self.points[:, 1])
        )

    def scaled(self, c: float) -> "AtomicMeasure2D":
        return AtomicMeasure2D.from_arrays(self.points, c * self.masses)

    def __add__(self, other: "AtomicMeasure2D") -> "AtomicMeasure2D":
        return AtomicMeasure2D.from_arrays(
            np.concatenate((self.points, other.points)), np.concatenate((self.masses, other.masses))
        )

    def close_to(self, other: "AtomicMeasure2D", tol: float = 1e-9) -> bool:
        """Atomwise comparison after the canonical ordering."""
        if len(self) != len(other):
            return False
        if len(self) == 0:
            return True
        return bool(
            np.allclose(self.points, other.points, atol=tol)
            and np.allclose(self.masses, other.masses, atol=tol)
        )


def dirac(v: Sequence[float]) -> PlanarMeasure:
    """Point mass at v."""
    return PlanarMeasure([((float(v[0]), float(v[1])), 1.0)])
