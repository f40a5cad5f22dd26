"""Triangular-array limit machinery and the classical/bi-free transfer runner.

Rows are centered by truncated means, accumulated into the row measures
tau_n, sigma_1n, sigma_2n, and screened through two equivalent condition
systems: weak convergence of the sigmas plus a mixed-moment limit, or vague
convergence of tau_n away from the origin plus small-ball quadratic limits.
Finite-n verdicts use ratio tests on consecutive rows; these surrogates are
heuristics and can be fooled by adversarial slowly-diverging arrays, so the
per-row diagnostics are always reported alongside the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .idlaw import CharTriplet, LevyMeasure
from .measure import AtomicMeasure2D, Matrix2, PlanarMeasure, Vec2, row_tail_mass
from .transforms import bi_free_phi

RATIO_PASS = 0.5
ABS_PASS = 1e-9
INFINITESIMAL_EPS = 0.5
INFINITESIMAL_TOL = 0.05
EPS_LADDER = (0.5, 0.25, 0.125, 0.0625)
TIGHT_RADIUS = 6.0


class NotInfinitesimal(ValueError):
    """The array fails the infinitesimality diagnostic."""


class ConditionsNotMet(ValueError):
    """Condition checks did not pass; no limit triplet is available."""


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


@dataclass(frozen=True)
class TriangularArray:
    """Rows of planar measures with per-row point-mass shifts.

    ``rows`` is the expanded view; ``groups`` holds each row's distinct laws
    with their counts (``row_groups``), and is what the machinery works on.
    """

    rows: tuple[tuple[PlanarMeasure, ...], ...]
    shifts: tuple[Vec2, ...]
    L: float = 1.0
    groups: tuple[Groups, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rows) != len(self.shifts):
            raise ValueError("rows and shifts must align")
        sizes = [len(r) for r in self.rows]
        if any(b <= a for a, b in zip(sizes[:-1], sizes[1:])):
            raise ValueError("row lengths must strictly increase")
        if self.L <= 0.0:
            raise ValueError("centering radius must be positive")
        object.__setattr__(self, "groups", tuple(row_groups(r) for r in self.rows))

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


def infinitesimality_diagnostic(array: TriangularArray, eps: float = INFINITESIMAL_EPS) -> list[float]:
    return [row_tail_mass([m for m, _ in groups], eps) for groups in array.groups]


def ensure_infinitesimal(array: TriangularArray, eps: float = INFINITESIMAL_EPS,
                         tol: float = INFINITESIMAL_TOL) -> list[float]:
    """Reject arrays whose tail diagnostic neither vanishes nor decreases."""
    diag = infinitesimality_diagnostic(array, eps)
    tail = diag[-3:] if len(diag) >= 3 else diag
    decreasing = all(b < a or b == 0.0 for a, b in zip(tail[:-1], tail[1:]))
    if not (diag[-1] <= tol and (decreasing or diag[-1] == 0.0)):
        raise NotInfinitesimal(
            f"row tail masses {diag} do not vanish (eps={eps}, tol={tol})"
        )
    return diag


def center_row(groups: Groups, L: float) -> tuple[Groups, list[Vec2]]:
    """Truncated means and the recentered laws, one per group of a row."""
    centers = [m.truncated_mean(L) for m, _ in groups]
    centered = tuple((m.shifted_by(v), count) for (m, count), v in zip(groups, centers))
    return centered, centers


def row_accumulators(
    centered: Groups,
) -> tuple[AtomicMeasure2D, AtomicMeasure2D, AtomicMeasure2D]:
    """tau_n = sum of centered measures; sigma_jn are its coordinate tilts."""
    tau = AtomicMeasure2D(
        ((p[0], p[1]), count * w)
        for m, count in centered
        for p, w in zip(m.points, m.weights)
    )
    sigma1 = tau.weighted(lambda s, t: s * s / (1.0 + s * s))
    sigma2 = tau.weighted(lambda s, t: t * t / (1.0 + t * t))
    return tau, sigma1, sigma2


def _bl_test_functions() -> list[Callable[[np.ndarray], np.ndarray]]:
    """Fixed bounded-Lipschitz family used as a weak-distance surrogate."""
    funcs: list[Callable[[np.ndarray], np.ndarray]] = []
    for cs in (-3.0, -1.5, 0.0, 1.5, 3.0):
        for ct in (-3.0, -1.5, 0.0, 1.5, 3.0):
            funcs.append(
                lambda p, cs=cs, ct=ct: np.exp(-((p[:, 0] - cs) ** 2 + (p[:, 1] - ct) ** 2))
            )
    funcs.append(lambda p: 1.0 / (1.0 + p[:, 0] ** 2 + p[:, 1] ** 2))
    funcs.append(lambda p: p[:, 0] / (1.0 + p[:, 0] ** 2))
    funcs.append(lambda p: p[:, 1] / (1.0 + p[:, 1] ** 2))
    funcs.append(lambda p: p[:, 0] * p[:, 1] / ((1.0 + p[:, 0] ** 2) * (1.0 + p[:, 1] ** 2)))
    return funcs


_BL_FUNCS = _bl_test_functions()


def _bl_distance(m1: AtomicMeasure2D, m2: AtomicMeasure2D) -> float:
    best = 0.0
    for f in _BL_FUNCS:
        v1 = float((m1.masses * f(m1.points)).sum()) if len(m1) else 0.0
        v2 = float((m2.masses * f(m2.points)).sum()) if len(m2) else 0.0
        best = max(best, abs(v1 - v2))
    return best


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


def extrapolate_in_inverse_size(values: Sequence[float], sizes: Sequence[int],
                                max_points: int = 4) -> float:
    """Neville extrapolation to 1/k_n -> 0 through the last few rows.

    Row statistics here behave like c0 + c1/k_n + c2/k_n^2 + ... once any
    boundary-crossing transients have settled; polynomial extrapolation in
    the inverse row size removes the leading terms.  Wild extrapolations
    fall back to the last row.
    """
    if len(values) < 2:
        return float(values[-1])
    k = min(max_points, _trailing_smooth_run(values, sizes), len(values))
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
            return None if m is None else [
                {"x": [float(p[0]), float(p[1])], "m": float(w)} for p, w in m.atoms()
            ]

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


def _row_data(array: TriangularArray):
    out = []
    for groups, shift in zip(array.groups, array.shifts):
        centered, centers = center_row(groups, array.L)
        tau, s1, s2 = row_accumulators(centered)
        out.append({"centered": centered, "centers": centers, "tau": tau,
                    "sigma1": s1, "sigma2": s2, "shift": shift})
    return out


def check_condition_I_II(array: TriangularArray, precomputed=None) -> ConditionReport:
    """Weak convergence of the sigma accumulators and the mixed-moment limit."""
    if len(array.rows) < 3:
        raise ValueError("need at least three rows")
    ensure_infinitesimal(array)
    data = precomputed or _row_data(array)
    d1 = [_bl_distance(a["sigma1"], b["sigma1"]) for a, b in zip(data[:-1], data[1:])]
    d2 = [_bl_distance(a["sigma2"], b["sigma2"]) for a, b in zip(data[:-1], data[1:])]
    esc1 = [d["sigma1"].mass_where(lambda p: np.hypot(p[:, 0], p[:, 1]) > TIGHT_RADIUS) for d in data]
    esc2 = [d["sigma2"].mass_where(lambda p: np.hypot(p[:, 0], p[:, 1]) > TIGHT_RADIUS) for d in data]
    tight = esc1[-1] <= max(RATIO_PASS * esc1[-2], ABS_PASS) and esc2[-1] <= max(
        RATIO_PASS * esc2[-2], ABS_PASS
    )
    gammas = [
        d["tau"].integrate(
            lambda s, t: s * t / ((1.0 + s * s) * (1.0 + t * t))
        ).real
        for d in data
    ]
    dg = [abs(b - a) for a, b in zip(gammas[:-1], gammas[1:])]
    ok = _cauchy_pass(d1) and _cauchy_pass(d2) and _cauchy_pass(dg) and tight
    sizes = array.row_sizes()
    report = ConditionReport(
        passed=bool(ok),
        sigma1=data[-1]["sigma1"],
        sigma2=data[-1]["sigma2"],
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


def check_condition_III_IV(array: TriangularArray, precomputed=None) -> ConditionReport:
    """Vague convergence away from 0 and the small-ball quadratic limits."""
    if len(array.rows) < 3:
        raise ValueError("need at least three rows")
    ensure_infinitesimal(array)
    data = precomputed or _row_data(array)
    taus = [d["tau"] for d in data]
    all_norms = np.concatenate(
        [np.hypot(t.points[:, 0], t.points[:, 1]) for t in taus if len(t)] or [np.zeros(1)]
    )
    ladder = [_perturb_radius(e, all_norms) for e in EPS_LADDER]
    eps_min = ladder[-1]

    per_n: dict = {"eps_ladder": ladder}
    ok = True

    # -- vague stabilization on annuli (bounded and unbounded) --------------
    annuli = [(e, math.inf) for e in ladder] + [(ladder[0], _perturb_radius(TIGHT_RADIUS, all_norms))]
    ann_masses = []
    for lo, hi in annuli:
        masses = [
            t.mass_where(lambda p: (np.hypot(p[:, 0], p[:, 1]) >= lo)
                         & (np.hypot(p[:, 0], p[:, 1]) <= hi))
            for t in taus
        ]
        ann_masses.append(masses)
        steps = [abs(b - a) for a, b in zip(masses[:-1], masses[1:])]
        ok = ok and _cauchy_pass(steps)
    per_n["annulus_masses"] = ann_masses

    # -- candidate limit: atoms of the last row away from the origin --------
    tau_hat = taus[-1].restricted(lambda p: np.hypot(p[:, 0], p[:, 1]) >= eps_min)
    for (lo, hi), masses in zip(annuli, ann_masses):
        cand = tau_hat.mass_where(
            lambda p: (np.hypot(p[:, 0], p[:, 1]) >= lo) & (np.hypot(p[:, 0], p[:, 1]) <= hi)
        )
        if abs(cand - masses[-1]) > 1e-6 * (1.0 + abs(cand)):
            ok = False

    # -- atom tracking: masses near any historical atom site must stabilize -
    sites: list[np.ndarray] = []
    for t in taus[-3:]:
        for p in t.points:
            r = math.hypot(p[0], p[1])
            if r < eps_min:
                continue
            if all(np.linalg.norm(p - q) > 0.05 * (1.0 + r) for q in sites):
                sites.append(p.copy())
    site_table = []
    # only mass away from the origin counts: vague convergence ignores the
    # shrinking eps-ball entirely
    away = [t.restricted(lambda p: np.hypot(p[:, 0], p[:, 1]) >= eps_min) for t in taus]
    for q in sites:
        rad = 0.05 * (1.0 + math.hypot(q[0], q[1]))
        masses = [t.mass_where(lambda p: np.linalg.norm(p - q, axis=1) <= rad) for t in away]
        steps = [abs(b - a) for a, b in zip(masses[:-1], masses[1:])]
        ok = ok and _cauchy_pass(steps)
        site_table.append({"site": [float(q[0]), float(q[1])], "masses": masses})
    per_n["atom_sites"] = site_table

    # -- small-ball quadratic limits Q(u) ------------------------------------
    sizes = array.row_sizes()
    Q: dict[tuple[float, float], float] = {}
    q_table = {}
    for u in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        by_eps = []
        for e in ladder:
            vals = [
                t.restricted(lambda p: np.hypot(p[:, 0], p[:, 1]) < e).integrate(
                    lambda s, tt: (u[0] * s + u[1] * tt) ** 2
                ).real
                for t in taus
            ]
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

    gammas = [
        t.integrate(lambda s, tt: s * tt / ((1.0 + s * s) * (1.0 + tt * tt))).real
        for t in taus
    ]
    gamma_hat = extrapolate_in_inverse_size(gammas, sizes)
    c_quantity = gamma_hat - tau_hat.integrate(
        lambda s, tt: s * tt / ((1.0 + s * s) * (1.0 + tt * tt))
    ).real

    tau_limit = LevyMeasure(tau_hat) if ok else None
    v_rows, v = limit_vector(array, precomputed=data)
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


def limit_vector(array: TriangularArray, precomputed=None) -> tuple[list[Vec2], Vec2]:
    """Per-row recentring sums and their extrapolated limit."""
    data = precomputed or _row_data(array)
    per_row: list[Vec2] = []
    for d in data:
        v1, v2 = d["shift"]
        for (m, count), ctr in zip(d["centered"], d["centers"]):
            pts, wts = m.points, m.weights
            nrm = 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
            v1 += count * (ctr[0] + float((wts * pts[:, 0] / nrm).sum()))
            v2 += count * (ctr[1] + float((wts * pts[:, 1] / nrm).sum()))
        per_row.append((v1, v2))
    sizes = array.row_sizes()
    vx = extrapolate_in_inverse_size([v[0] for v in per_row], sizes)
    vy = extrapolate_in_inverse_size([v[1] for v in per_row], sizes)
    return per_row, (vx, vy)


def limit_triplet(array: TriangularArray) -> CharTriplet:
    """Characteristic triplet of the limit law; requires passing checks."""
    data = _row_data(array)
    return _triplet_from_reports(
        check_condition_I_II(array, precomputed=data),
        check_condition_III_IV(array, precomputed=data),
    )


def _triplet_from_reports(rep12: ConditionReport, rep34: ConditionReport) -> CharTriplet:
    """The limit triplet read off the two condition reports of one array."""
    if not (rep12.passed and rep34.passed):
        raise ConditionsNotMet("condition checks failed; see reports for diagnostics")
    return CharTriplet(rep34.v, rep34.A, rep34.tau_limit)


def _phi_row(groups, shift, z, w):
    total = shift[0] / z + shift[1] / w
    for m, count in groups:
        total += count * bi_free_phi(m, z, w)
    return total


def run_bi_free_limit(
    array: TriangularArray,
    probes: Sequence[tuple[complex, complex]],
    reference: CharTriplet | None = None,
) -> list[tuple[int, float]]:
    """Sup-probe residual of the n-fold phi sum against the limit triplet."""
    trip = reference or limit_triplet(array)
    target = [trip.bi_free_phi(z, w) for z, w in probes]
    out = []
    for groups, shift, size in zip(array.groups, array.shifts, array.row_sizes()):
        resid = max(
            abs(_phi_row(groups, shift, z, w) - t) for (z, w), t in zip(probes, target)
        )
        out.append((size, float(resid)))
    return out


def run_classical_limit(
    array: TriangularArray,
    u_probes: Sequence[Vec2],
    reference: CharTriplet | None = None,
) -> list[tuple[int, float]]:
    """Sup-probe residual of the row CF products against the limit triplet."""
    trip = reference or limit_triplet(array)
    target = [trip.classical_cf(u) for u in u_probes]
    out = []
    for groups, shift, size in zip(array.groups, array.shifts, array.row_sizes()):
        resid = 0.0
        for u, t in zip(u_probes, target):
            cf = np.exp(1j * (u[0] * shift[0] + u[1] * shift[1]))
            for m, count in groups:
                cf *= m.char_fun(u) ** count
            resid = max(resid, abs(cf - t))
        out.append((size, float(resid)))
    return out
