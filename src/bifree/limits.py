"""Triangular-array limit machinery and the classical/bi-free transfer runner.

An array holds its laws once, as stacks built with it.  The distinct laws of
all rows of one width (the atom count of a row's largest law) are one padded
stack of points, weights and counts (``RowStack``), one per width class
(``WidthClass``), in which each row holds a slice lo:hi; so no law is copied
and none is padded past its own row's width.  Every limit operation is one
pass per width: the infinitesimality diagnostic reads the class stacks, the
bi-free runner makes one Newton solve per width for the marginals of all its
laws (``transforms.law_phis``), and the classical runner one phase product
and one ``exp`` per width; each row's phi sum and CF product is then a
reduction over its own slice.

What the condition checks read of each row (``RowData``) is built once
too: each class's laws are centered once by truncated means (``center_row``)
and each row's slice is accumulated (``row_accumulators``) into tau_n, sigma_1n,
sigma_2n as flat arrays of merged atoms sorted by norm, with cumulative
moment sums and the permutation back to canonical (lexicographic) order.
So the small-ball quadratic sums of a row over the whole eps ladder and its
annulus masses are one ``searchsorted`` gather per row, then one
elementwise pass over all rows, and the reported sigmas and tau-hat are
read off without a merge.  The bounded-Lipschitz family is separable: its
Gaussian bumps are products of one exp table per coordinate, built once
over all rows' atoms, so a row's integrals against a sigma are one matrix
product.

These are screened through two equivalent condition systems: weak
convergence of the sigmas plus a mixed-moment limit (I/II), or vague
convergence of tau_n away from the origin plus small-ball quadratic limits
(III/IV).  Each check holds its row sequences as arrays whose last axis is
the sequence, and one rule decides them all (``_settles``): a sequence
settles when its last gap is at most max(r x the gap before, ABS_PASS),
r = (s[-1]/s[-2])^RATE_MIN over the scales s of its last two terms and
RATE_MIN = 1/4.  As r < 1, a flat or growing sequence fails at any spacing;
any rate s^p with p >= RATE_MIN passes at geometric spacing, and at any
spacing for a sequence that must go to 0 (it is its own gap).
The scale s is 1/k_n for the row sequences: the bounded-Lipschitz gaps,
the gamma values and the sigma mass beyond TIGHT_RADIUS (to 0) in I/II; the
annulus masses, the masses near tracked atom sites and Q per direction and
rung in III/IV.  Along the rungs, Q extrapolated in 1/k_n has s = eps.
III/IV's candidate limit tau-hat is the last row's atoms at norm at least
the smallest rung; it is built only for a passing report's ``tau_limit``.
These finite-n surrogates are heuristics and can be fooled by adversarial
slowly-diverging arrays, so the per-row diagnostics are always reported
alongside the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .idlaw import CharTriplet, LevyMeasure
from .measure import AtomicMeasure2D, Matrix2, PlanarMeasure, Vec2, _canonical, _freeze
from .measure import RowStack, row_groups, row_stack  # the row type, shared with biconv
from .transforms import _law_sum, _probe_pairs, law_phis

RATE_MIN = 0.25
ABS_PASS = 1e-9
INFINITESIMAL_EPS = 0.5
INFINITESIMAL_TOL = 0.05
EPS_LADDER = (0.5, 0.25, 0.125, 0.0625)
TIGHT_RADIUS = 6.0
EXTRAPOLATION_POINTS = 4


class NotInfinitesimal(ValueError):
    """The array fails the infinitesimality diagnostic."""


class ConditionsNotMet(ValueError):
    """Condition checks did not pass; no limit triplet is available."""


class WidthClass(NamedTuple):
    """The distinct laws of every row of one width, stacked once.

    A row's width is the atom count of its largest law.  Row ``rows[i]``
    holds the laws ``bounds[i]:bounds[i + 1]`` of ``stack``, in the row's
    ``row_groups`` order.
    """

    stack: RowStack
    rows: tuple[int, ...]
    bounds: tuple[int, ...]

    def slices(self):
        """(row, lo, hi) for each row of the class: its laws are stack entries lo:hi."""
        return zip(self.rows, self.bounds[:-1], self.bounds[1:])


def width_classes(rows: Sequence[Sequence[PlanarMeasure]]) -> tuple[WidthClass, ...]:
    """Each row's distinct laws (``row_groups``), stacked once per width.

    Every law of a width class has at most the class's width of atoms, so
    a row's slice is padded exactly as ``row_stack`` pads the row alone.
    Classes come in the order their widths first occur.
    """
    groups = [row_groups(row) for row in rows]
    widths = [max(len(m) for m, _ in g) for g in groups]
    classes = []
    for width in dict.fromkeys(widths):
        members = tuple(r for r, x in enumerate(widths) if x == width)
        bounds = tuple(np.cumsum([0] + [len(groups[r]) for r in members]).tolist())
        classes.append(WidthClass(row_stack(tuple(law for r in members for law in groups[r])), members, bounds))
    return tuple(classes)


@dataclass(frozen=True)
class TriangularArray:
    """Rows of planar measures with per-row point-mass shifts.

    ``rows`` is the expanded view.  ``widths`` holds the array's laws once:
    each row's distinct laws with their counts, as one padded stack per
    width (``width_classes``); that is what the machinery works on.
    ``row_data`` holds what the condition checks read of each row
    (``build_row_data``): a pure function of the rows, shifts and L, built
    once here and read-only.
    """

    rows: tuple[tuple[PlanarMeasure, ...], ...]
    shifts: tuple[Vec2, ...]
    L: float = 1.0
    widths: tuple[WidthClass, ...] = field(init=False, repr=False, compare=False)
    row_data: tuple[RowData, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rows) != len(self.shifts):
            raise ValueError("rows and shifts must align")
        sizes = [len(r) for r in self.rows]
        if 0 in sizes:
            raise ValueError("rows must not be empty")
        if any(b <= a for a, b in zip(sizes[:-1], sizes[1:])):
            raise ValueError("row lengths must strictly increase")
        if not self.L > 0.0:
            raise ValueError("centering radius must be positive")
        if not all(math.isfinite(x) for shift in self.shifts for x in shift):
            raise ValueError("row shifts must be finite")
        object.__setattr__(self, "widths", width_classes(self.rows))
        object.__setattr__(self, "row_data", build_row_data(self.widths, self.shifts, self.L))

    def row_sizes(self) -> list[int]:
        return [len(r) for r in self.rows]


def make_array(
    rows: Sequence[Sequence[PlanarMeasure]],
    shifts: Sequence[Vec2] | None = None,
    L: float = 1.0,
) -> TriangularArray:
    rows_t = tuple(tuple(r) for r in rows)
    if shifts is None:
        shifts_t = tuple((0.0, 0.0) for _ in rows_t)
    else:
        shifts_t = tuple((float(a), float(b)) for a, b in shifts)
    return TriangularArray(rows_t, shifts_t, L)


def iid_array(
    mu: PlanarMeasure, scale_rule: Callable[[int], float], kns: Sequence[int], L: float = 1.0
) -> TriangularArray:
    """Rows of k_n copies of the dilated base law D_{b(k_n)} mu, shifts zero.

    Each row is one group of k_n equal laws (see ``row_groups``); n-dependent
    mixtures need the explicit row constructor instead.
    """
    kns = list(kns)
    rows = []
    for kn in kns:
        m = mu.dilated(scale_rule(kn))
        rows.append(tuple([m] * kn))
    return make_array(rows, L=L)


def infinitesimality_diagnostic(array: TriangularArray) -> list[float]:
    """max_k mu_nk({||x|| >= INFINITESIMAL_EPS}) per row; small values certify an infinitesimal row.

    One pass per width class: every law's tail mass, then each row's
    largest over its own slice.
    """
    out = np.empty(len(array.rows))
    for cls in array.widths:
        pts = cls.stack.points
        far = np.hypot(pts[..., 0], pts[..., 1]) >= INFINITESIMAL_EPS
        tails = np.where(far, cls.stack.weights, 0.0).sum(axis=-1)
        out[list(cls.rows)] = np.maximum.reduceat(tails, cls.bounds[:-1])
    return out.tolist()


def ensure_infinitesimal(array: TriangularArray) -> list[float]:
    """Reject arrays whose tail diagnostic neither vanishes nor decreases to below INFINITESIMAL_TOL."""
    diag = infinitesimality_diagnostic(array)
    tail = diag[-3:] if len(diag) >= 3 else diag
    decreasing = all(b < a or b == 0.0 for a, b in zip(tail[:-1], tail[1:]))
    if not (diag[-1] <= INFINITESIMAL_TOL and (decreasing or diag[-1] == 0.0)):
        raise NotInfinitesimal(
            f"row tail masses {diag} do not vanish (eps={INFINITESIMAL_EPS}, tol={INFINITESIMAL_TOL})"
        )
    return diag


def center_row(stack: RowStack, L: float) -> tuple[RowStack, np.ndarray]:
    """The recentered stack and the truncated means (G, 2) of its laws.

    A law's truncated mean is its mean over the open ball ||x|| < L, and
    its atoms move from x to x minus that mean.
    """
    pts = stack.points
    inside = np.hypot(pts[..., 0], pts[..., 1]) < L
    centers = (np.where(inside, stack.weights, 0.0)[..., None] * pts).sum(axis=1)
    return stack._replace(points=pts - centers[:, None, :]), centers


@dataclass(frozen=True)
class RowAccumulators:
    """tau_n of one row and its coordinate tilts sigma_jn, as flat arrays.

    ``points`` are the merged atoms of tau_n = sum_k count_k * mu_nk
    (centered), sorted by ascending ``norms``; ``tau``, ``sigma1`` and
    ``sigma2`` are their masses under the three measures, and ``lex`` the
    permutation that puts the atoms back in canonical (lexicographic)
    order, the order of an ``AtomicMeasure2D`` of them.  ``ball[k]`` sums
    tau*s^2, tau*t^2 and tau*s*t over the k atoms of smallest norm, and
    ``beyond[k]`` sums tau, tau*gamma-integrand, sigma1 and sigma2 over the
    rest, so a ball is read from the origin outward and an annulus from
    infinity inward, each without cancelling the larger part of the row.
    """

    points: np.ndarray
    norms: np.ndarray
    tau: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    ball: np.ndarray
    beyond: np.ndarray
    lex: np.ndarray

    # columns of ``beyond``
    TAU, GAMMA, SIGMA1, SIGMA2 = range(4)

    def ball_quadratic(self, u, eps):
        """Q_n(u, eps): the integral of (u . x)^2 over ||x|| < eps under tau_n.

        ``u`` is one direction or an array (U, 2) of them and ``eps`` one
        radius or an array (R,) of them; the result has shape (U, R), with
        the axis of a single direction or radius dropped, and is a float
        for one of each.  One ``searchsorted`` serves every radius.
        """
        return _scalar(_quadratic(u, self.ball[np.searchsorted(self.norms, eps, side="left")]))

    def between(self, lo, hi):
        """tau_n mass of the annulus lo <= ||x|| <= hi; lo and hi may be arrays of radii."""
        i = np.searchsorted(self.norms, lo, side="left")
        j = np.searchsorted(self.norms, hi, side="right")
        return _scalar(self.beyond[i, self.TAU] - self.beyond[j, self.TAU])

    def above(self, r, col: int):
        """The ``beyond`` column ``col`` summed over ||x|| > r; r may be an array of radii."""
        return _scalar(self.beyond[np.searchsorted(self.norms, r, side="right"), col])


def _scalar(x):
    """A Python float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _quadratic(u, sums: np.ndarray) -> np.ndarray:
    """The integrals of (u . x)^2 from gathered ``ball`` rows ``sums`` (..., 3).

    ``u`` is one direction or an array (U, 2) of them; the result has shape
    u.shape[:-1] + sums.shape[:-1].
    """
    ss, tt, st = sums[..., 0], sums[..., 1], sums[..., 2]
    u = np.asarray(u, dtype=float)
    u0, u1 = (u[..., k].reshape(u.shape[:-1] + (1,) * ss.ndim) for k in (0, 1))
    return u0 * u0 * ss + 2.0 * u0 * u1 * st + u1 * u1 * tt


def row_accumulators(centered: RowStack) -> RowAccumulators:
    """tau_n = sum of the centered laws with their counts; sigma_jn are its tilts.

    Every array returned is read-only.
    """
    masses = centered.counts[:, None] * centered.weights
    keep = centered.weights > 0.0
    if keep.all():  # no padding: skip the masked copy of the points
        pts, masses = centered.points.reshape(-1, 2), masses.ravel()
    else:
        pts, masses = centered.points[keep], masses[keep]
    pts, tau = _canonical(pts, masses)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    order = np.argsort(norms, kind="stable")
    pts, norms, tau = pts[order], norms[order], tau[order]
    lex = np.empty_like(order)
    lex[order] = np.arange(len(order))
    s, t = pts[:, 0], pts[:, 1]
    sigma1 = tau * (s * s / (1.0 + s * s))
    sigma2 = tau * (t * t / (1.0 + t * t))
    gamma = tau * (s * t / ((1.0 + s * s) * (1.0 + t * t)))
    ball = np.zeros((len(tau) + 1, 3))
    ball[1:] = np.cumsum(np.column_stack((tau * s * s, tau * t * t, tau * s * t)), axis=0)
    beyond = np.zeros((len(tau) + 1, 4))
    beyond[:-1] = np.cumsum(np.column_stack((tau, gamma, sigma1, sigma2))[::-1], axis=0)[::-1]
    return RowAccumulators(*map(_freeze, (pts, norms, tau, sigma1, sigma2, ball, beyond, lex)))


class RowData(NamedTuple):
    """What the condition checks read of one row, built once with the array.

    ``acc`` holds the accumulators of the centered tau_n, and ``v`` the
    row's recentring sum: the shift plus sum_k count_k (m_k + int x / (1 +
    |x|^2) d(mu_k centered)), m_k the truncated mean of law k.
    """

    acc: RowAccumulators
    v: Vec2


def build_row_data(widths: Sequence[WidthClass], shifts: Sequence[Vec2], L: float) -> tuple[RowData, ...]:
    """The row data of every row, built one width class at a time.

    Each class stack is centered once by ``center_row`` and each law's
    compensator term formed once; each row's slice lo:hi is then
    accumulated by ``row_accumulators``, and its v_n sums its laws' terms.
    """
    out = [None] * len(shifts)
    for cls in widths:
        centered, centers = center_row(cls.stack, L)
        pts = centered.points
        nrm = 1.0 + pts[..., 0] ** 2 + pts[..., 1] ** 2
        terms = centers + (centered.weights[..., None] * pts / nrm[..., None]).sum(axis=1)
        for r, lo, hi in cls.slices():
            row = RowStack(*(x[lo:hi] for x in centered))
            v1, v2 = np.asarray(shifts[r], dtype=float) + row.counts @ terms[lo:hi]
            out[r] = RowData(row_accumulators(row), (float(v1), float(v2)))
    return tuple(out)


# centres of the Gaussian bumps of the bounded-Lipschitz family, per coordinate
_BL_CENTRES = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])


def _bl_values(accs: Sequence[RowAccumulators]) -> np.ndarray:
    """A fixed bounded-Lipschitz family integrated against each row's sigma_1n and sigma_2n, shape (rows, 2, 29).

    The weak-distance surrogate of conditions (I)-(II).  The family is the
    25 bumps exp(-(s - a)^2 - (t - b)^2) over the centres (a, b) in
    ``_BL_CENTRES`` squared, a outer, then 1 / (1 + s^2 + t^2), s / (1 + s^2),
    t / (1 + t^2) and st / ((1 + s^2)(1 + t^2)).  A bump is the product
    exp(-(s - a)^2) exp(-(t - b)^2), so the 25 integrals against a sigma are
    the (5, 5) matrix of one exp table per coordinate weighted by sigma.
    The functions are tabulated once over all rows' atoms; each row's
    integrals are products over its own columns.
    """
    pts = np.concatenate([acc.points for acc in accs])
    bounds = np.cumsum([0] + [len(acc.tau) for acc in accs]).tolist()
    spans = [(slice(lo, hi), (acc.sigma1, acc.sigma2)) for acc, lo, hi in zip(accs, bounds[:-1], bounds[1:])]
    s, t = pts[:, 0], pts[:, 1]
    ss, tt = s * s, t * t
    out = np.empty((len(accs), 2, 29))
    rational = (1.0 / (1.0 + ss + tt), s / (1.0 + ss), t / (1.0 + tt), s * t / ((1.0 + ss) * (1.0 + tt)))
    for row, (cols, sigmas) in zip(out, spans):
        row[:, 25:] = [[f[cols] @ sigma for f in rational] for sigma in sigmas]
    del rational, ss, tt  # freed before the bump tables, which set the peak memory
    bump_s, bump_t = _bumps(s), _bumps(t)
    weighted = np.empty_like(bump_s)
    for row, (cols, sigmas) in zip(out, spans):
        for values, sigma in zip(row, sigmas):
            values[:25] = (np.multiply(bump_s[:, cols], sigma, out=weighted[:, cols]) @ bump_t[:, cols].T).ravel()
    return out


def _bumps(x: np.ndarray) -> np.ndarray:
    """exp(-(x - c)^2) at each centre c of ``_BL_CENTRES``, shape (5, len(x)), built in place."""
    d = x - _BL_CENTRES[:, None]
    np.square(d, out=d)
    np.negative(d, out=d)
    return np.exp(d, out=d)


def _bl_steps(values: np.ndarray) -> np.ndarray:
    """Weak-distance surrogate between consecutive rows, shape (2, rows - 1): the largest gap over the family.

    ``values`` is ``_bl_values`` of the rows, shape (rows, 2, 29).
    """
    return np.abs(np.diff(values, axis=0)).max(axis=-1).T


def _gaps(values) -> np.ndarray:
    """|x_{n+1} - x_n| along the last axis: the gaps of each sequence in ``values``."""
    return np.abs(np.diff(values, axis=-1))


def _settles(gaps: np.ndarray, sizes) -> bool:
    """Whether every sequence of gaps along the last axis settles.

    ``sizes`` grow with the terms of the sequences, 1/s for their scale s:
    k_n for rows, n for sample sizes, 1/eps for rungs.  The gaps are between
    consecutive terms, or the terms themselves for a sequence that must go
    to 0.  A sequence settles when its last gap is at most max(the gap
    before x (k[-1]/k[-2])^-RATE_MIN, ABS_PASS), k the last two sizes.  The
    allowed ratio is below 1 whatever the steps, so a flat or growing
    sequence fails; any rate s^p with p >= RATE_MIN passes at geometric
    steps in s, and at any steps for a sequence going to 0.
    """
    ratio = (float(sizes[-1]) / float(sizes[-2])) ** -RATE_MIN
    return bool(np.all(gaps[..., -1] <= np.maximum(ratio * gaps[..., -2], ABS_PASS)))


def _trailing_smooth_run(values: Sequence[float], sizes: Sequence[int]) -> int:
    """Length of the trailing stretch free of membership transients.

    Walking backward, a difference may exceed its successor by at most the
    inverse-size ratio times a slack factor; a set of atoms entering or
    leaving a ball produces an O(1) jump that violates this and truncates
    the usable history.
    """
    n = len(values)
    run = 2
    for k in range(n - 2, 0, -1):
        d_prev = abs(values[k] - values[k - 1])
        d_next = abs(values[k + 1] - values[k])
        ratio = (1.0 / sizes[k - 1]) / (1.0 / sizes[k])
        if d_prev <= 4.0 * ratio * d_next + ABS_PASS:
            run += 1
        else:
            break
    return min(run, n)


def extrapolate_in_inverse_size(values: Sequence[float], sizes: Sequence[int]) -> float:
    """Neville extrapolation to 1/k_n -> 0 through the last EXTRAPOLATION_POINTS rows at most.

    Row statistics here behave like c0 + c1/k_n + c2/k_n^2 + ... once any
    boundary-crossing transients have settled; polynomial extrapolation in
    the inverse row size removes the leading terms.  Wild extrapolations
    fall back to the last row.
    """
    if len(values) < 2:
        return float(values[-1])
    k = min(EXTRAPOLATION_POINTS, _trailing_smooth_run(values, sizes), len(values))
    xs = [1.0 / s for s in sizes[-k:]]
    p = [float(v) for v in values[-k:]]
    for j in range(1, k):
        for i in range(k - j):
            p[i] = (xs[i + j] * p[i] - xs[i] * p[i + 1]) / (xs[i + j] - xs[i])
    last = float(values[-1])
    step = abs(values[-1] - values[-2])
    if not math.isfinite(p[0]) or abs(p[0] - last) > 10.0 * step + ABS_PASS:
        return last
    return p[0] + 0.0  # an all-zero run divides by negative steps: no -0.0 in the reports


@dataclass
class ConditionReport:
    """Outcome of the condition checks plus per-row diagnostics."""

    passed: bool
    sigma1: AtomicMeasure2D | None = None
    sigma2: AtomicMeasure2D | None = None
    gamma: float | None = None
    tau_limit: LevyMeasure | None = None
    A: Matrix2 | None = None
    c: float | None = None
    v: Vec2 | None = None
    Q: dict | None = None
    per_n: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        def meas(m):
            return None if m is None else m.to_jsonable()

        return {
            "passed": self.passed,
            "sigma1": meas(self.sigma1),
            "sigma2": meas(self.sigma2),
            "gamma": self.gamma,
            "tau_limit": None if self.tau_limit is None else meas(self.tau_limit.atoms),
            "A": None if self.A is None else [[self.A.a, self.A.c], [self.A.c, self.A.b]],
            "c": self.c,
            "v": None if self.v is None else list(self.v),
            "Q": self.Q,
            "per_n": self.per_n,
        }


def _require_checkable(array: TriangularArray) -> None:
    """Reject arrays the condition checks do not accept: fewer than three rows, or not infinitesimal."""
    if len(array.rows) < 3:
        raise ValueError("need at least three rows")
    ensure_infinitesimal(array)


def condition_reports(array: TriangularArray) -> tuple[ConditionReport, ConditionReport]:
    """Both condition reports of one array, with one infinitesimality check."""
    _require_checkable(array)
    return _conditions_I_II(array), _conditions_III_IV(array)


def check_condition_I_II(array: TriangularArray) -> ConditionReport:
    """Weak convergence of the sigma accumulators and the mixed-moment limit."""
    _require_checkable(array)
    return _conditions_I_II(array)


def _conditions_I_II(array: TriangularArray) -> ConditionReport:
    accs = [rd.acc for rd in array.row_data]
    last, sizes = accs[-1], array.row_sizes()
    bl_steps = _bl_steps(_bl_values(accs))
    # sigma_jn mass beyond TIGHT_RADIUS: tightness asks it to settle to 0, so it is its own gap
    tight = np.array([acc.beyond[np.searchsorted(acc.norms, TIGHT_RADIUS, side="right")] for acc in accs])
    escaping = tight[:, [last.SIGMA1, last.SIGMA2]].T
    gammas = [float(acc.beyond[0, acc.GAMMA]) for acc in accs]
    # row gathers by np.take: far faster than fancy indexing on (N, 2) arrays
    points = np.take(last.points, last.lex, axis=0)
    return ConditionReport(
        passed=all(_settles(x, sizes) for x in (bl_steps, escaping, _gaps(gammas))),
        sigma1=AtomicMeasure2D._from_merged(points, np.take(last.sigma1, last.lex)),
        sigma2=AtomicMeasure2D._from_merged(points, np.take(last.sigma2, last.lex)),
        gamma=extrapolate_in_inverse_size(gammas, sizes),
        per_n={
            "sigma1_bl_steps": bl_steps[0].tolist(),
            "sigma2_bl_steps": bl_steps[1].tolist(),
            "sigma_escaping_mass": escaping.tolist(),
            "gamma_per_row": gammas,
        },
    )


def _perturb_radius(eps: float, norms: np.ndarray) -> float:
    """Nudge an annulus boundary off any atom radius."""
    r = eps
    while np.any(np.abs(norms - r) < 1e-9):
        r += 1e-6
    return r


def _atom_sites(candidates: np.ndarray) -> list[np.ndarray]:
    """Greedy sites: in order, each candidate farther than 0.05 (1 + |p|) from all earlier sites.

    Taking the first candidate left uncovered as the next site gives the
    same sites as the one-by-one scan, with one pass per site.
    """
    radius = 0.05 * (1.0 + np.hypot(candidates[:, 0], candidates[:, 1]))
    uncovered = np.ones(len(candidates), dtype=bool)
    sites = []
    while uncovered.any():
        q = candidates[np.argmax(uncovered)]
        sites.append(q)
        uncovered &= np.linalg.norm(candidates - q, axis=1) > radius
    return sites


def check_condition_III_IV(array: TriangularArray) -> ConditionReport:
    """Vague convergence away from 0 and the small-ball quadratic limits."""
    _require_checkable(array)
    return _conditions_III_IV(array)


_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def _key(u: Vec2) -> str:
    """A direction's key in the report's Q tables."""
    return f"{u[0]:g},{u[1]:g}"


def _conditions_III_IV(array: TriangularArray) -> ConditionReport:
    accs = [rd.acc for rd in array.row_data]
    sizes = array.row_sizes()
    all_norms = np.concatenate([acc.norms for acc in accs])
    ladder = [_perturb_radius(e, all_norms) for e in EPS_LADDER]
    # one lookup per row places every rung and the tight radius: each sits
    # off every atom norm, so the side of the lookup does not matter
    at = np.array([np.searchsorted(acc.norms, ladder + [_perturb_radius(TIGHT_RADIUS, all_norms)]) for acc in accs])
    # atoms of each row at ||x|| >= the smallest rung: the mass vague convergence sees
    away = at[:, len(ladder) - 1].tolist()

    # vague stabilization: annulus masses (annulus, row), each rung out to
    # infinity, then the first rung out to TIGHT_RADIUS
    outside = np.array([acc.beyond[i, acc.TAU] for acc, i in zip(accs, at)])
    annuli = np.vstack((outside[:, :-1].T, outside[:, 0] - outside[:, -1]))

    # atom tracking: masses (site, row) near the sites of the last three
    # rows' atoms away from the origin, taken in each row's canonical
    # (lexicographic) order; vague convergence ignores the shrinking eps-ball
    sites = _atom_sites(np.concatenate([np.take(acc.points, np.compress(acc.lex >= k, acc.lex), axis=0)
                                        for acc, k in zip(accs[-3:], away[-3:])]))
    site_masses = np.empty((len(sites), len(accs)))
    for masses, q in zip(site_masses, sites):
        rad = 0.05 * (1.0 + math.hypot(q[0], q[1]))
        masses[:] = [acc.tau[k:][np.linalg.norm(acc.points[k:] - q, axis=1) <= rad].sum() for acc, k in zip(accs, away)]

    # small-ball quadratic limits: Q (direction, rung, row) from each row's
    # ball sums at the rungs, then extrapolated in 1/k_n (direction, rung)
    quad = _quadratic(_DIRECTIONS, np.stack([acc.ball[i[:-1]] for acc, i in zip(accs, at)], axis=1))
    q_hat = np.array([[extrapolate_in_inverse_size(vals, sizes) for vals in by_rung] for by_rung in quad.tolist()])
    ok = all(_settles(_gaps(x), sizes) for x in (annuli, site_masses, quad))
    ok = ok and _settles(_gaps(q_hat), 1 / np.array(ladder))  # along the rungs, sizes 1/eps

    a, b, ab = q_hat[:, -1].tolist()
    c = 0.5 * (ab - a - b)
    # psd projection inside the reporting tolerance
    if a >= 0.0 and b >= 0.0 and c * c > a * b:
        if c * c - a * b < 1e-9 * max(1.0, a * b):
            c = math.copysign(math.sqrt(a * b), c)
        else:
            ok = False

    gammas = [float(acc.beyond[0, acc.GAMMA]) for acc in accs]
    gamma_hat = extrapolate_in_inverse_size(gammas, sizes)
    last, k_last = accs[-1], away[-1]
    # the candidate limit tau-hat: the last row's atoms away from the origin
    tau_hat = None
    if ok:
        kept = np.compress(last.lex >= k_last, last.lex)
        tau_hat = LevyMeasure(AtomicMeasure2D._from_merged(np.take(last.points, kept, axis=0),
                                                           np.take(last.tau, kept)))
    v_rows, v = limit_vector(array)
    return ConditionReport(
        passed=ok,
        gamma=gamma_hat,
        tau_limit=tau_hat,
        A=Matrix2(max(a, 0.0), c, max(b, 0.0)) if ok else None,
        c=gamma_hat - float(last.beyond[k_last, last.GAMMA]) if ok else None,
        v=v,
        Q={_key(u): q for u, q in zip(_DIRECTIONS, q_hat[:, -1].tolist())},
        per_n={
            "eps_ladder": ladder,
            "annulus_masses": annuli.tolist(),
            "atom_sites": [{"site": q.tolist(), "masses": m} for q, m in zip(sites, site_masses.tolist())],
            "Q_by_eps": {_key(u): by_eps for u, by_eps in zip(_DIRECTIONS, q_hat.tolist())},
            "v_per_row": [list(x) for x in v_rows],
        },
    )


def limit_vector(array: TriangularArray) -> tuple[list[Vec2], Vec2]:
    """Per-row recentring sums and their extrapolated limit."""
    per_row = [rd.v for rd in array.row_data]
    sizes = array.row_sizes()
    vx = extrapolate_in_inverse_size([v[0] for v in per_row], sizes)
    vy = extrapolate_in_inverse_size([v[1] for v in per_row], sizes)
    return per_row, (vx, vy)


def limit_triplet(array: TriangularArray) -> CharTriplet:
    """Characteristic triplet of the limit law; requires passing checks."""
    return triplet_from_reports(*condition_reports(array))


def triplet_from_reports(rep12: ConditionReport, rep34: ConditionReport) -> CharTriplet:
    """The limit triplet read off the two condition reports of one array; requires both to pass."""
    if not (rep12.passed and rep34.passed):
        raise ConditionsNotMet("condition checks failed; see reports for diagnostics")
    return CharTriplet(rep34.v, rep34.A, rep34.tau_limit)


def _phi_rows(array: TriangularArray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row's phi sum at the probes (z, w), shape (rows, P).

    One per-law phi solve per width class, then each row's shift part plus
    the count-weighted sum over its own slice of the laws.
    """
    out = np.empty((len(array.rows), len(z)), dtype=complex)
    for cls in array.widths:
        phis = law_phis(cls.stack, z, w)
        for r, lo, hi in cls.slices():
            shift = array.shifts[r]
            out[r] = shift[0] / z + shift[1] / w + _law_sum(cls.stack.counts[lo:hi], phis[lo:hi])
    return out


def _cf_rows(array: TriangularArray, us: np.ndarray) -> np.ndarray:
    """Each row's CF product at the u-probes (U, 2), shape (rows, U).

    One phase product and one exp over the laws, atoms and probes of each
    width class, then each row's shift phase times the count-weighted
    product over its own slice of the laws.
    """
    out = np.empty((len(array.rows), len(us)), dtype=complex)
    for cls in array.widths:
        pts = cls.stack.points
        # one-atom laws keep one product per law: numpy's matmul takes its
        # vector path there, which rounds otherwise than the flat matrix product
        phase = pts @ us.T if pts.shape[1] == 1 else (pts.reshape(-1, 2) @ us.T).reshape(*pts.shape[:2], -1)
        law_cf = (cls.stack.weights[..., None] * np.exp(1j * phase)).sum(axis=1)
        for r, lo, hi in cls.slices():
            out[r] = np.exp(1j * (us @ np.asarray(array.shifts[r], dtype=float))) * np.prod(
                law_cf[lo:hi] ** cls.stack.counts[lo:hi, None], axis=0
            )
    return out


def _residual_table(array: TriangularArray, values: np.ndarray, target: np.ndarray) -> list[tuple[int, float]]:
    """(row size, sup over the probes of |value - target|) per row."""
    return [(size, float(np.abs(row - target).max())) for size, row in zip(array.row_sizes(), values)]


def run_bi_free_limit(
    array: TriangularArray,
    probes: Sequence[tuple[complex, complex]],
    reference: CharTriplet | None = None,
) -> list[tuple[int, float]]:
    """Sup-probe residual of the n-fold phi sum against the limit triplet."""
    z, w = _probe_pairs(probes, complex, "probes").T
    trip = reference or limit_triplet(array)
    target = trip.bi_free_phi(z, w)
    return _residual_table(array, _phi_rows(array, z, w), target)


def run_classical_limit(
    array: TriangularArray,
    u_probes: Sequence[Vec2],
    reference: CharTriplet | None = None,
) -> list[tuple[int, float]]:
    """Sup-probe residual of the row CF products against the limit triplet."""
    us = _probe_pairs(u_probes, float, "u_probes")
    trip = reference or limit_triplet(array)
    target = trip.classical_cf(us)
    return _residual_table(array, _cf_rows(array, us), target)
