"""Stable laws: construction from circle measures, stability checks, and
domain-of-attraction experiments.

A stable law of index alpha < 2 has Levy measure r^{-1-alpha} dr dTheta on
rays; alpha = 2 is the Gaussian branch (no Levy part).  The defining
dilation identity is verified through the covariance phi_{D_lam}(z, w) =
phi(z/lam, w/lam), with the unknown recentring vector always solved by
least squares over probe points rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .idlaw import CharTriplet, LevyMeasure, RadialPart, make_gaussian
from .limits import _settles
from .measure import AtomicMeasure2D, Matrix2, PlanarMeasure, Vec2, row_stack
from .transforms import _probe_pairs, law_phis

Probe = tuple[complex, complex]


@dataclass(frozen=True)
class StableSpec:
    """Index, circle measure, shift and (for alpha = 2) the Gaussian matrix.

    ``triplet`` is the characteristic triplet of the law, built once here.
    """

    alpha: float
    theta: tuple[tuple[float, float], ...] = ()
    v: Vec2 = (0.0, 0.0)
    gaussian_a: Matrix2 | None = None
    triplet: CharTriplet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("stability index must lie in (0, 2]")
        if self.alpha == 2.0:
            if self.theta:
                raise ValueError("alpha = 2 admits no circle measure")
            if self.gaussian_a is None or not self.gaussian_a.is_psd():
                raise ValueError("alpha = 2 requires a psd Gaussian matrix")
            trip = make_gaussian(self.v, self.gaussian_a)
        else:
            if not self.theta:
                raise ValueError("alpha < 2 requires a nonempty circle measure")
            if self.gaussian_a is not None:
                raise ValueError("Gaussian matrix only allowed at alpha = 2")
            radial = RadialPart(self.alpha, tuple(self.theta))
            trip = CharTriplet(self.v, Matrix2(0.0, 0.0, 0.0), LevyMeasure(AtomicMeasure2D(), radial))
        object.__setattr__(self, "triplet", trip)


def stable_triplet(spec: StableSpec) -> CharTriplet:
    """Characteristic triplet of the stable law described by the spec."""
    return spec.triplet


def default_probes(scale: float = 1.0) -> list[Probe]:
    """Tensor grid of z, w in {+-2i, +-4i, +-8i} scaled; deep in every cone."""
    vals = [2j, 4j, 8j, -2j, -4j, -8j]
    return [(scale * z, scale * w) for z in vals for w in vals]


def fit_point_mass_shift(
    probes: Sequence[Probe], residuals: Sequence[complex]
) -> tuple[Vec2, float]:
    """Least-squares u with residual ~ u1/z + u2/w, over at least two probes;
    returns (u, max leftover)."""
    _, zs, ws = _probe_points(probes)
    r = np.asarray(residuals, dtype=complex)
    basis = np.stack([1.0 / zs, 1.0 / ws], axis=-1)
    # the real and imaginary part of each probe's equation, in turn
    rows = np.stack([basis.real, basis.imag], axis=1).reshape(-1, 2)
    rhs = np.stack([r.real, r.imag], axis=1).reshape(-1)
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    u = (float(sol[0]), float(sol[1]))
    return u, float(np.abs(r - u[0] / zs - u[1] / ws).max())


def _probe_points(probes: Sequence[Probe] | None):
    """The probes (``default_probes()`` when None) and their z and w, at least two of
    them: one generic probe fits the two-parameter shift exactly, whatever the law."""
    probes = default_probes() if probes is None else probes
    zs, ws = _probe_pairs(probes, complex, "probes").T
    if zs.size < 2:
        raise ValueError("need at least two probes: one fits the point-mass shift exactly")
    return probes, zs, ws


@dataclass
class StabilityReport:
    alpha: float
    a: float
    b: float
    c: float
    shift: Vec2
    max_residual: float
    is_stable: bool
    probe_residuals: list[dict] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return asdict(self)


def check_stability(
    spec: StableSpec,
    a: float,
    b: float,
    probes: Sequence[Probe] | None = None,
    threshold: float = 1e-6,
) -> StabilityReport:
    """Verify (D_a mu) ++ (D_b mu) = (D_c mu) ++ delta_u at the phi level.

    c is forced to (a^alpha + b^alpha)^{1/alpha}; u comes out of the drift
    fit.  A large residual flags that the tested index does not match the
    law (the negative-control path).
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("dilation factors must be finite and positive")
    probes, zs, ws = _probe_points(probes)
    c = (a**spec.alpha + b**spec.alpha) ** (1.0 / spec.alpha)
    trip = stable_triplet(spec)
    resid = (
        trip.bi_free_phi(zs / a, ws / a) + trip.bi_free_phi(zs / b, ws / b) - trip.bi_free_phi(zs / c, ws / c)
    )
    u, leftover = fit_point_mass_shift(probes, resid)
    table = [
        {"z": [z.real, z.imag], "w": [w.real, w.imag], "residual": r}
        for (z, w), r in zip(probes, np.abs(resid - u[0] / zs - u[1] / ws).tolist())
    ]
    return StabilityReport(
        alpha=spec.alpha, a=a, b=b, c=c, shift=u,
        max_residual=leftover, is_stable=bool(leftover <= threshold),
        probe_residuals=table,
    )


@dataclass
class ConvergenceReport:
    ns: list[int]
    bifree_residuals: list[float]
    classical_residuals: list[float]
    bifree_converged: bool
    classical_converged: bool

    @property
    def agree(self) -> bool:
        return self.bifree_converged == self.classical_converged

    def to_jsonable(self) -> dict:
        return {**asdict(self), "agree": self.agree}


def default_u_probes() -> list[Vec2]:
    return [(0.4, 0.0), (0.0, 0.4), (0.4, 0.4), (-0.3, 0.5), (0.8, 0.0), (0.0, 0.8), (0.6, -0.6), (1.0, 1.0)]


def fit_cf_shift(u_probes: Sequence[Vec2], ratios: Sequence[complex]) -> Vec2:
    """Least-squares c with log-ratio ~ i<u, c> (principal branch)."""
    us = _probe_pairs(u_probes, float, "u_probes")
    sol, *_ = np.linalg.lstsq(us, np.angle(ratios), rcond=None)
    return (float(sol[0]), float(sol[1]))


def domain_of_attraction_run(
    nu: PlanarMeasure,
    spec: StableSpec,
    ns: Sequence[int],
    probes: Sequence[Probe] | None = None,
    u_probes: Sequence[Vec2] | None = None,
) -> ConvergenceReport:
    """Scaled n-fold convolutions of nu against the stable target.

    Per n, the bi-free side compares n * phi of the dilated law (plus a
    fitted recentring) to the target phi, every n's phi from one Newton
    solve; the classical side compares the n-th CF power (plus a fitted
    phase, fitted around the power's own mean phase) to the target CF.
    Each side converges when its residuals go to 0 by ``limits._settles``
    in s = 1/n, which reads at least two of them.
    """
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ValueError(f"sample sizes must be at least 1: {ns}")
    if len(ns) < 2:
        raise ValueError(f"need at least two sample sizes: one residual shows no trend: {ns}")
    if any(n2 <= n1 for n1, n2 in zip(ns[:-1], ns[1:])):
        raise ValueError("sample sizes must increase")
    probes, zs, ws = _probe_points(probes)
    if u_probes is None:
        u_probes = default_u_probes()
    us = _probe_pairs(u_probes, float, "u_probes")
    trip = stable_triplet(spec)
    target_phi = trip.bi_free_phi(zs, ws)
    target_cf = trip.classical_cf(us)
    dils = [nu.dilated(1.0 / float(n) ** (1.0 / spec.alpha)) for n in ns]
    phis = law_phis(row_stack(tuple((dil, 1) for dil in dils)), zs, ws)
    bif, cls = [], []
    for n, dil, phi in zip(ns, dils, phis):
        bif.append(fit_point_mass_shift(probes, n * phi - target_phi)[1])
        cf_n = dil.char_fun(us) ** n
        ratios = np.divide(target_cf, cf_n, out=np.ones_like(cf_n), where=cf_n != 0)
        # the n-th power turns with the mean phase n <u, m> of the dilated law: the fit
        # reads the ratios' angles with it removed, so they stay off the branch cut
        mean = n * (dil.weights @ dil.points)
        shift = np.subtract(fit_cf_shift(us, ratios * np.exp(1j * (us @ mean))), mean)
        cls.append(float(np.abs(cf_n * np.exp(1j * (us @ shift)) - target_cf).max()))
    return ConvergenceReport(
        ns=ns,
        bifree_residuals=bif,
        classical_residuals=cls,
        bifree_converged=_settles(np.array(bif), ns),
        classical_converged=_settles(np.array(cls), ns),
    )
