"""Triangular-array limit machinery and the classical/bi-free transfer runner.

Every row is held as a stack: the padded points, weights and counts of its
distinct laws (``RowStack``), built once with the array.  So is what the
condition checks read of each row (``RowData``): the laws are centered by
truncated means and accumulated into the row measures tau_n, sigma_1n,
sigma_2n as flat arrays of merged atoms sorted by norm, with cumulative
moment sums, so the small-ball quadratic sums of a row over the whole eps
ladder are one ``searchsorted``, and so are its annulus masses.  Each row
is centered (``center_row``) and accumulated (``row_accumulators``) on its
own; the checks only read the result.  The bounded-Lipschitz
family is separable: its Gaussian bumps are products of one exp table per
coordinate, so a row's integrals against a sigma are one matrix product.
These are screened through two equivalent condition systems: weak
convergence of the sigmas plus a mixed-moment limit, or vague convergence
of tau_n away from the origin plus small-ball quadratic limits.  The
runners evaluate phi and the characteristic function of all laws of a row
at once.  Finite-n verdicts use ratio tests on consecutive rows; these
surrogates are heuristics and can be fooled by adversarial slowly-diverging
arrays, so the per-row diagnostics are always reported alongside the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .idlaw import CharTriplet, LevyMeasure
from .measure import AtomicMeasure2D, Matrix2, PlanarMeasure, Vec2, _canonical, _freeze
from .measure import Groups, RowStack, row_groups, row_stack  # the row type, shared with biconv
from .transforms import bi_free_phi

RATIO_PASS = 0.5
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


@dataclass(frozen=True)
class TriangularArray:
    """Rows of planar measures with per-row point-mass shifts.

    ``rows`` is the expanded view; ``groups`` holds each row's distinct laws
    with their counts (``row_groups``), and ``stacks`` the same laws as
    padded arrays (``row_stack``), which is what the machinery works on.
    ``row_data`` holds what the condition checks read of each row
    (``build_row_data``): a pure function of the rows, shifts and L, built
    once here and read-only.
    """

    rows: tuple[tuple[PlanarMeasure, ...], ...]
    shifts: tuple[Vec2, ...]
    L: float = 1.0
    groups: tuple[Groups, ...] = field(init=False, repr=False, compare=False)
    stacks: tuple[RowStack, ...] = field(init=False, repr=False, compare=False)
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
        groups = tuple(row_groups(r) for r in self.rows)
        object.__setattr__(self, "groups", groups)
        stacks = tuple(row_stack(g) for g in groups)
        object.__setattr__(self, "stacks", stacks)
        object.__setattr__(self, "row_data", build_row_data(stacks, self.shifts, self.L))

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
    """max_k mu_nk({||x|| >= INFINITESIMAL_EPS}) per row; small values certify an infinitesimal row."""
    out = []
    for stack in array.stacks:
        far = np.hypot(stack.points[..., 0], stack.points[..., 1]) >= INFINITESIMAL_EPS
        out.append(float(np.where(far, stack.weights, 0.0).sum(axis=-1).max()))
    return out


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
    ``sigma2`` are their masses under the three measures.  ``ball[k]`` sums
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

    # columns of ``beyond``
    TAU, GAMMA, SIGMA1, SIGMA2 = range(4)

    def ball_quadratic(self, u, eps):
        """Q_n(u, eps): the integral of (u . x)^2 over ||x|| < eps under tau_n.

        ``u`` is one direction or an array (U, 2) of them and ``eps`` one
        radius or an array (R,) of them; the result has shape (U, R), with
        the axis of a single direction or radius dropped, and is a float
        for one of each.  One ``searchsorted`` serves every radius.
        """
        sums = self.ball[np.searchsorted(self.norms, eps, side="left")]
        ss, tt, st = sums[..., 0], sums[..., 1], sums[..., 2]
        u = np.asarray(u, dtype=float)
        u0, u1 = (u[..., k].reshape(u.shape[:-1] + (1,) * np.ndim(eps)) for k in (0, 1))
        return _scalar(u0 * u0 * ss + 2.0 * u0 * u1 * st + u1 * u1 * tt)

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
    s, t = pts[:, 0], pts[:, 1]
    sigma1 = tau * (s * s / (1.0 + s * s))
    sigma2 = tau * (t * t / (1.0 + t * t))
    gamma = tau * (s * t / ((1.0 + s * s) * (1.0 + t * t)))
    ball = np.zeros((len(tau) + 1, 3))
    ball[1:] = np.cumsum(np.column_stack((tau * s * s, tau * t * t, tau * s * t)), axis=0)
    beyond = np.zeros((len(tau) + 1, 4))
    beyond[:-1] = np.cumsum(np.column_stack((tau, gamma, sigma1, sigma2))[::-1], axis=0)[::-1]
    return RowAccumulators(*map(_freeze, (pts, norms, tau, sigma1, sigma2, ball, beyond)))


class RowData(NamedTuple):
    """What the condition checks read of one row, built once with the array.

    ``acc`` holds the accumulators of the centered tau_n, and ``v`` the
    row's recentring sum: the shift plus sum_k count_k (m_k + int x / (1 +
    |x|^2) d(mu_k centered)), m_k the truncated mean of law k.
    """

    acc: RowAccumulators
    v: Vec2


def build_row_data(stacks: Sequence[RowStack], shifts: Sequence[Vec2], L: float) -> tuple[RowData, ...]:
    """The row data of every row: its laws centered by ``center_row``, then accumulated by ``row_accumulators``."""
    out = []
    for stack, shift in zip(stacks, shifts):
        centered, centers = center_row(stack, L)
        pts = centered.points
        nrm = 1.0 + pts[..., 0] ** 2 + pts[..., 1] ** 2
        terms = centers + (centered.weights[..., None] * pts / nrm[..., None]).sum(axis=1)
        v1, v2 = np.asarray(shift, dtype=float) + centered.counts @ terms
        out.append(RowData(row_accumulators(centered), (float(v1), float(v2))))
    return tuple(out)


# centres of the Gaussian bumps of the bounded-Lipschitz family, per coordinate
_BL_CENTRES = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])


def _bl_values(acc: RowAccumulators) -> np.ndarray:
    """A fixed bounded-Lipschitz family integrated against sigma_1n and sigma_2n, shape (2, 29).

    The weak-distance surrogate of conditions (I)-(II).  The family is the
    25 bumps exp(-(s - a)^2 - (t - b)^2) over the centres (a, b) in
    ``_BL_CENTRES`` squared, a outer, then 1 / (1 + s^2 + t^2), s / (1 + s^2),
    t / (1 + t^2) and st / ((1 + s^2)(1 + t^2)).  A bump is the product
    exp(-(s - a)^2) exp(-(t - b)^2), so the 25 integrals against a sigma are
    the (5, 5) matrix of one exp table per coordinate weighted by sigma.
    """
    s, t = acc.points[:, 0], acc.points[:, 1]
    ss, tt = s * s, t * t
    out = np.empty((2, 29))
    rational = (1.0 / (1.0 + ss + tt), s / (1.0 + ss), t / (1.0 + tt), s * t / ((1.0 + ss) * (1.0 + tt)))
    out[:, 25:] = [[f @ acc.sigma1 for f in rational], [f @ acc.sigma2 for f in rational]]
    del rational, ss, tt  # freed before the bump tables, which set the peak memory
    bump_s, bump_t = _bumps(s), _bumps(t)
    weighted = np.empty_like(bump_s)
    for row, sigma in zip(out, (acc.sigma1, acc.sigma2)):
        row[:25] = (np.multiply(bump_s, sigma, out=weighted) @ bump_t.T).ravel()
    return out


def _bumps(x: np.ndarray) -> np.ndarray:
    """exp(-(x - c)^2) at each centre c of ``_BL_CENTRES``, shape (5, len(x)), built in place."""
    d = x - _BL_CENTRES[:, None]
    np.square(d, out=d)
    np.negative(d, out=d)
    return np.exp(d, out=d)


def _bl_steps(values: Sequence[np.ndarray]) -> list[float]:
    """Weak-distance surrogate between consecutive rows: the largest gap over the family."""
    return [float(np.abs(b - a).max()) for a, b in zip(values[:-1], values[1:])]


def _cauchy_pass(dists: Sequence[float]) -> bool:
    """Last gap must at least halve (or already sit at the noise floor)."""
    if not dists:
        return True
    if len(dists) == 1:
        return dists[-1] <= ABS_PASS
    return dists[-1] <= max(RATIO_PASS * dists[-2], ABS_PASS)


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
    return p[0]


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
    bl = [_bl_values(acc) for acc in accs]
    d1, d2 = _bl_steps([b[0] for b in bl]), _bl_steps([b[1] for b in bl])
    esc1 = [acc.above(TIGHT_RADIUS, acc.SIGMA1) for acc in accs]
    esc2 = [acc.above(TIGHT_RADIUS, acc.SIGMA2) for acc in accs]
    tight = esc1[-1] <= max(RATIO_PASS * esc1[-2], ABS_PASS) and esc2[-1] <= max(
        RATIO_PASS * esc2[-2], ABS_PASS
    )
    gammas = [float(acc.beyond[0, acc.GAMMA]) for acc in accs]
    dg = [abs(b - a) for a, b in zip(gammas[:-1], gammas[1:])]
    ok = _cauchy_pass(d1) and _cauchy_pass(d2) and _cauchy_pass(dg) and tight
    sizes = array.row_sizes()
    last = accs[-1]
    report = ConditionReport(
        passed=bool(ok),
        sigma1=AtomicMeasure2D.from_arrays(last.points, last.sigma1),
        sigma2=AtomicMeasure2D.from_arrays(last.points, last.sigma2),
        gamma=extrapolate_in_inverse_size(gammas, sizes),
        per_n={
            "sigma1_bl_steps": d1,
            "sigma2_bl_steps": d2,
            "sigma_escaping_mass": [esc1, esc2],
            "gamma_per_row": gammas,
        },
    )
    return report


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


def _conditions_III_IV(array: TriangularArray) -> ConditionReport:
    accs = [rd.acc for rd in array.row_data]
    all_norms = np.concatenate([acc.norms for acc in accs])
    ladder = [_perturb_radius(e, all_norms) for e in EPS_LADDER]
    eps_min = ladder[-1]
    # atoms of each row at ||x|| >= eps_min: the mass vague convergence sees
    away = [np.searchsorted(acc.norms, eps_min, side="left") for acc in accs]

    per_n: dict = {"eps_ladder": ladder}
    ok = True

    # -- vague stabilization on annuli (bounded and unbounded) --------------
    annuli = [(e, math.inf) for e in ladder] + [(ladder[0], _perturb_radius(TIGHT_RADIUS, all_norms))]
    lo_r, hi_r = np.array(annuli).T
    ann_masses = np.array([acc.between(lo_r, hi_r) for acc in accs]).T.tolist()
    for masses in ann_masses:
        steps = [abs(b - a) for a, b in zip(masses[:-1], masses[1:])]
        ok = ok and _cauchy_pass(steps)
    per_n["annulus_masses"] = ann_masses

    # -- candidate limit: atoms of the last row away from the origin --------
    last, k_last = accs[-1], away[-1]
    tau_hat = AtomicMeasure2D.from_arrays(last.points[k_last:], last.tau[k_last:])
    for (lo, hi), masses in zip(annuli, ann_masses):
        cand = tau_hat.mass_where(
            lambda p: (np.hypot(p[:, 0], p[:, 1]) >= lo) & (np.hypot(p[:, 0], p[:, 1]) <= hi)
        )
        if abs(cand - masses[-1]) > 1e-6 * (1.0 + abs(cand)):
            ok = False

    # -- atom tracking: masses near any historical atom site must stabilize -
    # candidates in each row's canonical (lexicographic) atom order; only
    # mass away from the origin counts: vague convergence ignores the
    # shrinking eps-ball entirely
    candidates = []
    for acc, k in zip(accs[-3:], away[-3:]):
        pts = acc.points[k:]
        candidates.append(pts[np.lexsort((pts[:, 1], pts[:, 0]))])
    site_table = []
    for q in _atom_sites(np.concatenate(candidates)):
        rad = 0.05 * (1.0 + math.hypot(q[0], q[1]))
        masses = [
            float(acc.tau[k:][np.linalg.norm(acc.points[k:] - q, axis=1) <= rad].sum())
            for acc, k in zip(accs, away)
        ]
        steps = [abs(b - a) for a, b in zip(masses[:-1], masses[1:])]
        ok = ok and _cauchy_pass(steps)
        site_table.append({"site": [float(q[0]), float(q[1])], "masses": masses})
    per_n["atom_sites"] = site_table

    # -- small-ball quadratic limits Q(u) ------------------------------------
    sizes = array.row_sizes()
    Q: dict[tuple[float, float], float] = {}
    q_table = {}
    directions = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    # (direction, rung, row): one lookup per row over the whole ladder
    quad = np.array([acc.ball_quadratic(directions, ladder) for acc in accs]).transpose(1, 2, 0).tolist()
    for u, by_rung in zip(directions, quad):
        by_eps = []
        for vals in by_rung:
            # limsup/liminf surrogate: the row sequence must stabilize
            steps_n = [abs(b - a) for a, b in zip(vals[:-1], vals[1:])]
            if not _cauchy_pass(steps_n):
                ok = False
            by_eps.append(extrapolate_in_inverse_size(vals, sizes))
        steps = [abs(b - a) for a, b in zip(by_eps[:-1], by_eps[1:])]
        if not _cauchy_pass(steps):
            ok = False
        Q[u] = by_eps[-1]
        q_table[f"{u[0]:g},{u[1]:g}"] = by_eps
    per_n["Q_by_eps"] = q_table

    a = Q[(1.0, 0.0)]
    b = Q[(0.0, 1.0)]
    c = 0.5 * (Q[(1.0, 1.0)] - a - b)
    # psd projection inside the reporting tolerance
    if a >= 0.0 and b >= 0.0 and c * c > a * b:
        if c * c - a * b < 1e-9 * max(1.0, a * b):
            c = math.copysign(math.sqrt(a * b), c)
        else:
            ok = False
    A = Matrix2(max(a, 0.0), c, max(b, 0.0))

    gammas = [float(acc.beyond[0, acc.GAMMA]) for acc in accs]
    gamma_hat = extrapolate_in_inverse_size(gammas, sizes)
    c_quantity = gamma_hat - float(last.beyond[k_last, last.GAMMA])

    tau_limit = LevyMeasure(tau_hat) if ok else None
    v_rows, v = limit_vector(array)
    per_n["v_per_row"] = [list(x) for x in v_rows]
    return ConditionReport(
        passed=bool(ok),
        gamma=gamma_hat,
        tau_limit=tau_limit,
        A=A if ok else None,
        c=c_quantity if ok else None,
        v=v,
        Q={f"{u[0]:g},{u[1]:g}": q for u, q in Q.items()},
        per_n=per_n,
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


def _phi_row(stack: RowStack, shift: Vec2, z, w):
    """The row's phi sum at the probes (z, w), broadcast: one phi call over all its laws."""
    return shift[0] / z + shift[1] / w + bi_free_phi(stack, z, w)


def _cf_row(stack: RowStack, shift: Vec2, us: np.ndarray) -> np.ndarray:
    """The row's CF product at the u-probes (U, 2): one exp over laws, atoms and probes."""
    law_cf = (stack.weights[..., None] * np.exp(1j * (stack.points @ us.T))).sum(axis=1)
    return np.exp(1j * (us @ np.asarray(shift, dtype=float))) * np.prod(
        law_cf ** stack.counts[:, None], axis=0
    )


def run_bi_free_limit(
    array: TriangularArray,
    probes: Sequence[tuple[complex, complex]],
    reference: CharTriplet | None = None,
) -> list[tuple[int, float]]:
    """Sup-probe residual of the n-fold phi sum against the limit triplet."""
    trip = reference or limit_triplet(array)
    z, w = np.array(probes, dtype=complex).reshape(-1, 2).T
    target = trip.bi_free_phi(z, w)
    out = []
    for stack, shift, size in zip(array.stacks, array.shifts, array.row_sizes()):
        resid = np.abs(_phi_row(stack, shift, z, w) - target).max()
        out.append((size, float(resid)))
    return out


def run_classical_limit(
    array: TriangularArray,
    u_probes: Sequence[Vec2],
    reference: CharTriplet | None = None,
) -> list[tuple[int, float]]:
    """Sup-probe residual of the row CF products against the limit triplet."""
    trip = reference or limit_triplet(array)
    us = np.array(u_probes, dtype=float).reshape(-1, 2)
    target = trip.classical_cf(us)
    out = []
    for stack, shift, size in zip(array.stacks, array.shifts, array.row_sizes()):
        resid = np.abs(_cf_row(stack, shift, us) - target).max(initial=0.0)
        out.append((size, float(resid)))
    return out
