"""Infinitely divisible laws in the classical and bi-free worlds.

A characteristic triplet (v, A, tau) parameterizes both the classical
characteristic function and the two-variable phi-transform of an ID law.
Levy measures are atomic lists plus an optional radial-stable part: rays
r^{-1-alpha} dr carried by unit-circle directions, optionally truncated to
[r_min, r_max]; a radial part holds its directions and masses as arrays.
Each marginal is a free ID law whose phi and phi' come from one pass over
the triplet (:meth:`CharTriplet.marginal_phi_dphi`).

Rays on all of (0, inf) have closed forms: their integrals are Mellin
transforms, evaluated in one broadcast over (probe..., ray) for the
bi-free phi, the marginal phi and its derivative, and the classical
characteristic function.  Rays with a finite end (r_min > 0 or r_max < inf)
go through one fixed-node Gauss-Legendre kernel, :func:`quad`, in one
broadcast over (probe, ray, panel, node) per block of probes: v = r^{2-a}
near zero, u = r^{-a} toward infinity, geometric panels between, poles
near a panel subtracted in closed form, and the CF's oscillatory tail and
the drift integral in closed form (see the section on finite ends).  No
module of the package imports scipy.  Both the classical compensator and
the planar one divide by the same 1 + ||x||^2; only the sigma-form
components weight the coordinates separately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measure import MERGE_TOL, AtomicMeasure2D, Matrix2, PlanarMeasure, Vec2, _freeze

QUAD_ERR_TOL = 1e-7
AXIS_SNAP = 1e-15  # direction components this small are the axis itself
SIGMA_FORM_TOL = 1e-9


class QuadratureError(ArithmeticError):
    """A truncated-ray integral's error estimate exceeds QUAD_ERR_TOL (1 + |value|).

    ``integral`` is "phi", "marginal_phi", "marginal_dphi", "cf" or "drift",
    and ``worst_estimate`` the largest failing estimate, at ``worst_point``.
    """

    def __init__(self, integral: str, worst_estimate: float, worst_point):
        super().__init__(f"quadrature error estimate too large: integral={integral} "
                         f"worst_estimate={worst_estimate:.3e} worst_point={worst_point}")
        self.integral, self.worst_estimate, self.worst_point = integral, worst_estimate, worst_point


class InconsistentSigmaForm(ValueError):
    """The sigma-form relations are violated beyond tolerance."""


@dataclass(frozen=True)
class RadialPart:
    """Radial-stable component: sum over rays of mass * r^{-1-alpha} dr.

    ``omega`` (rays, 2) holds the unit directions and ``mass`` (rays,) the
    ray masses, built once from ``rays``.  A direction component within
    ``AXIS_SNAP`` of zero is exactly 0: cos(pi/2) is 6e-17, which would put
    a ray on the t-axis into the s-marginal.
    """

    alpha: float
    rays: tuple[tuple[float, float], ...]  # (angle, mass)
    r_min: float = 0.0
    r_max: float = math.inf
    omega: np.ndarray = field(init=False, repr=False, compare=False)
    mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("radial index must lie in (0, 2)")
        if any(m <= 0.0 for _, m in self.rays):
            raise ValueError("ray masses must be positive")
        if not (0.0 <= self.r_min < self.r_max):
            raise ValueError("need 0 <= r_min < r_max")
        snap = [[x if abs(x) > AXIS_SNAP else 0.0 for x in (math.cos(a), math.sin(a))] for a, _ in self.rays]
        object.__setattr__(self, "omega", _freeze(np.array(snap, dtype=float).reshape(-1, 2)))
        object.__setattr__(self, "mass", _freeze(np.array([m for _, m in self.rays], dtype=float)))

    def directions(self) -> list[tuple[float, float, float]]:
        """(omega1, omega2, mass) per ray."""
        return list(zip(*self.omega.T.tolist(), self.mass.tolist()))

    def is_untruncated(self) -> bool:
        """Rays span all of (0, inf), where the integrals have closed forms."""
        return self.r_min == 0.0 and math.isinf(self.r_max)

    def scaled(self, c: float) -> "RadialPart":
        return RadialPart(self.alpha, tuple((a, c * m) for a, m in self.rays), self.r_min, self.r_max)


@dataclass(frozen=True)
class LevyMeasure:
    """Positive measure with no mass at 0 and 1 ^ ||x||^2 integrable."""

    atoms: AtomicMeasure2D
    radial: RadialPart | None = None

    def __post_init__(self):
        if len(self.atoms) and np.any(self.atoms.masses <= 0.0):
            raise ValueError("Levy atoms must carry positive mass")
        if self.atoms.mass_at((0.0, 0.0)) != 0.0:
            raise ValueError("Levy measure cannot charge the origin")

    @classmethod
    def zero(cls) -> "LevyMeasure":
        return cls(AtomicMeasure2D())

    def is_atomic(self) -> bool:
        return self.radial is None

    def scaled(self, c: float) -> "LevyMeasure":
        if c <= 0.0:
            raise ValueError("scale must be positive")
        return LevyMeasure(
            self.atoms.scaled(c), None if self.radial is None else self.radial.scaled(c)
        )

    def __add__(self, other: "LevyMeasure") -> "LevyMeasure":
        if self.radial is not None and other.radial is not None:
            if (
                self.radial.alpha != other.radial.alpha
                or self.radial.r_min != other.radial.r_min
                or self.radial.r_max != other.radial.r_max
            ):
                raise ValueError("cannot add radial parts with different shapes")
            radial = RadialPart(
                self.radial.alpha,
                self.radial.rays + other.radial.rays,
                self.radial.r_min,
                self.radial.r_max,
            )
        else:
            radial = self.radial or other.radial
        return LevyMeasure(self.atoms + other.atoms, radial)

    def discretized(self, cells_per_decade: int = 200, r_lo: float = 1e-4, r_hi: float = 1e4) -> "LevyMeasure":
        """Atomic approximation of the radial part on a log grid.

        Each cell carries its exact mass, placed at the cell's mass centroid;
        mass outside [r_lo, r_hi] is dropped (tails are O(r_lo^{2-alpha}) and
        O(r_hi^{-alpha}) relative to the full ray).
        """
        if self.radial is None:
            return self
        rp = self.radial
        a = rp.alpha
        lo = max(rp.r_min, r_lo)
        hi = min(rp.r_max, r_hi)
        n = max(1, int(round(cells_per_decade * math.log10(hi / lo))))
        edges = np.geomspace(lo, hi, n + 1)
        el, er = edges[:-1], edges[1:]
        cell_mass = (el**-a - er**-a) / a
        if a == 1.0:
            centroid = np.log(er / el) / cell_mass
        else:
            centroid = (el ** (1.0 - a) - er ** (1.0 - a)) / ((a - 1.0) * cell_mass)
        # ray-major, cells within a ray: (rays, cells, 2) points, (rays, cells) masses
        pts = rp.omega[:, None, :] * centroid[:, None]
        masses = rp.mass[:, None] * cell_mass
        return LevyMeasure(AtomicMeasure2D.from_arrays(
            np.concatenate([self.atoms.points, pts.reshape(-1, 2)]),
            np.concatenate([self.atoms.masses, masses.ravel()])))


@dataclass(frozen=True)
class CharTriplet:
    """Characteristic triplet (v, A, tau); A = [[a, c], [c, b]] must be psd."""

    v: Vec2
    A: Matrix2
    tau: LevyMeasure

    def __post_init__(self):
        if not self.A.is_psd():
            raise ValueError("matrix part must be positive semi-definite")

    # -- bi-free side ------------------------------------------------------

    def bi_free_phi(self, z, w):
        """phi-transform of the ID law; defined on all of (C\\R)^2."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        v1, v2 = self.v
        A = self.A
        val = v1 / z + v2 / w + A.a / z**2 + A.c / (z * w) + A.b / w**2
        val = val + self._poisson_part(z, w)
        return complex(val) if np.ndim(val) == 0 else val

    def _poisson_part(self, z, w):
        out = np.zeros(np.broadcast(z, w).shape, dtype=complex)
        if len(self.tau.atoms):
            s = self.tau.atoms.points[:, 0]
            t = self.tau.atoms.points[:, 1]
            m = self.tau.atoms.masses
            zz = z[..., None]
            ww = w[..., None]
            kern = zz * ww / ((zz - s) * (ww - t)) - 1.0 - (s / zz + t / ww) / (1.0 + s * s + t * t)
            out = out + (m * kern).sum(axis=-1)
        rp = self.tau.radial
        if rp is not None and rp.is_untruncated():
            c1 = rp.omega[:, 0] / z[..., None]
            c2 = rp.omega[:, 1] / w[..., None]
            delta = rp.alpha - 1.0
            out = out + (_ray_i1(c1, delta) + _ray_i1(c2, delta) + _ray_cross(c1, c2, delta)) @ rp.mass
        elif rp is not None:
            out = out + _truncated_phi(rp, z, w)
        return out

    # -- classical side ----------------------------------------------------

    def classical_cf(self, u):
        """Characteristic function exp[i<u,v> - <Au,u>/2 + integral part].

        ``u`` has shape (..., 2); one u gives a complex.
        """
        u = np.asarray(u, dtype=float)
        u1, u2 = u[..., 0], u[..., 1]
        expo = 1j * (u1 * self.v[0] + u2 * self.v[1]) - 0.5 * self.A.quad_form((u1, u2))
        if len(self.tau.atoms):
            s = self.tau.atoms.points[:, 0]
            t = self.tau.atoms.points[:, 1]
            m = self.tau.atoms.masses
            dot = u1[..., None] * s + u2[..., None] * t
            expo = expo + (m * (np.exp(1j * dot) - 1.0 - 1j * dot / (1.0 + s * s + t * t))).sum(axis=-1)
        rp = self.tau.radial
        if rp is not None and rp.is_untruncated():
            expo = expo + _ray_cf(u @ rp.omega.T, rp.alpha - 1.0) @ rp.mass
        elif rp is not None:
            expo = expo + _truncated_cf(rp, u)
        val = np.exp(expo)
        return complex(val) if val.ndim == 0 else val

    # -- marginals ---------------------------------------------------------

    def marginal_phi_dphi(self, axis: int, z):
        """phi of the free ID law on the chosen axis and its z-derivative phi', in one pass.

        Full rays share c = omega/z and Log(-c) between I1 and its derivative;
        truncated rays integrate both kernels on one panel layout.
        """
        z = np.asarray(z, dtype=complex)
        diag = self.A.a if axis == 1 else self.A.b
        phi = self.v[axis - 1] + diag / z
        dphi = -diag / z**2
        if len(self.tau.atoms):
            pts, m = self.tau.atoms.points, self.tau.atoms.masses
            s = pts[:, axis - 1]
            nrm = 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
            zz = z[..., None]
            d = zz - s
            phi = phi + (m * (zz * s / d - s / nrm)).sum(axis=-1)
            dphi = dphi - (m * s * s / d**2).sum(axis=-1)
        rp = self.tau.radial
        if rp is not None and rp.is_untruncated():
            i1, di1 = _ray_i1_di1(rp.omega[:, axis - 1] / z[..., None], rp.alpha - 1.0)
            phi = phi + z * (i1 @ rp.mass)
            dphi = dphi + di1 @ rp.mass
        elif rp is not None:
            p, dp = _truncated_marginal(rp, axis, z)
            phi, dphi = phi + p, dphi + dp
        return (complex(phi), complex(dphi)) if np.ndim(phi) == 0 else (phi, dphi)

    def marginal_phi(self, axis: int, z):
        """Free phi-transform of the marginal law on the chosen axis."""
        return self.marginal_phi_dphi(axis, z)[0]

    def marginal_dphi(self, axis: int, z):
        """d/dz of the marginal phi-transform."""
        return self.marginal_phi_dphi(axis, z)[1]

    # -- structure ---------------------------------------------------------

    def drift(self) -> Vec2 | None:
        """Drift vector when ||x||/(1+||x||^2) is tau-integrable, else None.

        With the drift u the phi-transform reads u1/z + u2/w + quadratic
        + integral of [zw/((z-s)(w-t)) - 1].
        """
        u1, u2 = self.v
        if len(self.tau.atoms):
            pts = self.tau.atoms.points
            m = self.tau.atoms.masses
            nrm = 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
            u1 -= float((m * pts[:, 0] / nrm).sum())
            u2 -= float((m * pts[:, 1] / nrm).sum())
        if self.tau.radial is not None:
            rp = self.tau.radial
            base = _ray_drift(rp)
            if base is None:
                return None
            for w1, w2, mass in rp.directions():
                u1 -= mass * w1 * base
                u2 -= mass * w2 * base
        return (u1, u2)

    def scaled(self, f: float) -> "CharTriplet":
        """Triplet of the f-th convolution power (f > 0); affine in all parts."""
        return CharTriplet(
            (f * self.v[0], f * self.v[1]), self.A.scaled(f), self.tau.scaled(f)
        )


# -- full rays: closed forms -------------------------------------------------
#
# On (0, inf) each radial integral is a Mellin transform.  Per ray of unit
# mass, with c = omega / z, delta = alpha - 1 and principal branches:
#   I1(c) = integral of [cr/(1-cr) - cr/(1+r^2)] r^{-1-alpha} dr
#         = c pi/sin(pi delta) [-2 sin^2(pi delta/4) - expm1(delta Log(-c))],
#   which is -c Log(-c) at delta = 0.  The marginal phi is z I1(omega/z), with
#   z-derivative -(1-alpha)(-c)^alpha pi/sin(pi alpha).
# The bi-free kernel splits by partial fractions into I1(c1) + I1(c2) +
#   c1 c2 (pi/sin pi alpha) D,  D = [(-c1)^delta - (-c2)^delta] / (c1 - c2).
# The classical integral is Gamma(-alpha)(-ik)^alpha - ik (pi/2)/cos(pi alpha/2)
#   = -ik expm1(delta t) / (delta sinc(delta/2)),  t = H(delta) + Log(-ik),
#   H(d) = [lgamma(1-d) - log1p(d) + log sinc(d/2)] / d,
#   which is -(pi/2)|k| - ik log|k| + ik(1 - gamma) at alpha = 1.
# Written with sinc and expm1(x)/x, the forms below stay accurate through
# alpha = 1, and the divided difference D stays accurate through c1 = c2.

# H(d) = (gamma - 1) + sum over n >= 2 of a_n d^{n-1}, with a_n = (zeta(n) - 1)/n
# for odd n and ((1 - 2^{1-n}) zeta(n) + 1)/n for even n; a_2 ... a_13 below.
# Below the cut the truncated series is exact to rounding; above it, the
# absolute rounding of lgamma(1-d) over d stays under 2e-14.
_EULER_MINUS_ONE = -0.42278433509846714
_H_SERIES = (
    0.91123351671205661, 0.067352301053198095, 0.48675820737431148, 0.0073855510286739853,
    0.33092518188290585, 0.001192753911703261, 0.24952912523158099, 0.00022315475845357938,
    0.19990395075982716, 4.4926236738133142e-5, 0.16664647376198818, 9.4394882752683959e-6,
)
_H_SERIES_CUT = 0.05


def _sinc(x: float) -> float:
    """sin(pi x) / (pi x), 1 at 0."""
    return 1.0 if x == 0.0 else math.sin(math.pi * x) / (math.pi * x)


def _exprel(x):
    """expm1(x) / x elementwise, 1 at 0."""
    x = np.asarray(x, dtype=complex)
    zero = x == 0
    safe = np.where(zero, 1.0, x)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


def _log1p(u):
    """Log(1 + u) for complex u, accurate for small |u| (NumPy's complex log1p is not)."""
    x, y = u.real, u.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _nonzero(c):
    """Mask of c != 0 and c with its zeros replaced by 1 (axis rays drop out)."""
    nz = c != 0
    return nz, np.where(nz, c, 1.0)


def _log_diff(x1, x2):
    """Log x1 - Log x2 and its ratio to x1 - x2 (1/x2 at x1 = x2).

    For |x1 - x2| < |x2|/2 the difference is Log1p((x1 - x2)/x2) plus the
    whole turns that the two principal logs differ by, so nearby x1, x2 lose
    nothing to cancellation.
    """
    log1, log2 = np.log(x1), np.log(x2)
    h = x1 - x2
    u = h / x2
    near = np.abs(u) < 0.5
    lp = _log1p(np.where(near, u, 0.0))
    turns = np.round((log1.imag - log2.imag - lp.imag) / (2.0 * math.pi))
    dl = np.where(near, lp + 2j * math.pi * turns, log1 - log2)
    return dl, np.where(h == 0, 1.0 / x2, dl / np.where(h == 0, 1.0, h))


def _i1(c, log, delta: float):
    """I1(c) = -c/sinc(d) [(pi^2 d/8) sinc(d/4)^2 + Log(-c) exprel(d Log(-c))], with log = Log(-c)."""
    return -c / _sinc(delta) * (math.pi**2 * delta / 8.0 * _sinc(0.25 * delta) ** 2 + log * _exprel(delta * log))


def _ray_i1(c, delta: float):
    """I1(c), 0 where c = 0."""
    nz, c = _nonzero(c)
    return np.where(nz, _i1(c, np.log(-c), delta), 0.0)


def _ray_i1_di1(c, delta: float):
    """I1(c) and the z-derivative of z I1(omega/z), c (-c)^delta / sinc(delta), from one Log(-c)."""
    nz, c = _nonzero(c)
    log = np.log(-c)
    return np.where(nz, _i1(c, log, delta), 0.0), np.where(nz, c * np.exp(delta * log) / _sinc(delta), 0.0)


def _ray_cross(c1, c2, delta: float):
    """c1 c2 (pi/sin pi alpha) D = -c1 c2 (-c2)^d exprel(d Dl) (Dl/h) / sinc(d).

    h = c1 - c2 and Dl = Log(-c1) - Log(-c2), from :func:`_log_diff`, so
    nearly equal c1, c2 (such as cos(pi/4) against sin(pi/4)) lose nothing
    to cancellation; Dl/h is 1/c2 at h = 0.
    """
    nz1, c1 = _nonzero(c1)
    nz2, c2 = _nonzero(c2)
    dl, ratio = _log_diff(-c1, -c2)  # ratio = Dl / (c2 - c1)
    val = c1 * c2 * np.exp(delta * np.log(-c2)) * _exprel(delta * dl) * ratio / _sinc(delta)
    return np.where(nz1 & nz2, val, 0.0)


def _cf_log_slope(delta: float) -> float:
    """H(delta); gamma - 1 at delta = 0."""
    if abs(delta) < _H_SERIES_CUT:
        acc = 0.0
        for a in reversed(_H_SERIES):
            acc = acc * delta + a
        return _EULER_MINUS_ONE + delta * acc
    return (math.lgamma(1.0 - delta) - math.log1p(delta) + math.log(_sinc(0.5 * delta))) / delta


def _ray_cf(k, delta: float):
    """Classical ray integral at real k: -ik t exprel(delta t) / sinc(delta/2), 0 at k = 0."""
    nz, k = _nonzero(np.asarray(k, dtype=float))
    t = _cf_log_slope(delta) + np.log(np.abs(k)) - 0.5j * math.pi * np.sign(k)
    return np.where(nz, -1j * k * t * _exprel(delta * t) / _sinc(0.5 * delta), 0.0)


# -- rays with a finite end: fixed-node Gauss-Legendre -------------------------
#
# Per unit-mass ray each integral is integral of h(r) r^{1-alpha} dr over
# [r_min, r_max], h = kernel / r^2.  Per (probe, ray), _Panels puts a panel in
# v = r^p on [r_min, e0], geometric r-panels on [e0, e1] and, for the phi
# kinds, a panel in u = r^{-alpha} beyond e1; the CF has closed forms there.
# e0 and e1 lie a factor _END_FRAC inside the radius where h is analytic at
# 0 and at infinity, so the fractional powers left at v = 0 and u = 0 weigh
# nothing.  Poles near an r-panel are subtracted and integrated exactly.
# Each rule has n and 2n nodes; their difference is the error estimate.

_GL_N = 24
_PANEL_RATIO = 8.0
_END_FRAC = 1e-3
_NEAR_SUM = 1.25  # |p - a| + |p - b| < 1.25 (b - a): inside the ellipse rho = 2
_CF_TAIL_KR = 20.0
_BLOCK_PAIRS = 256  # (probe, ray) pairs per broadcast, so grids go in blocks


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the n- and 2n-point rules on [-1, 1] side by side, and each rule's weights on them."""
    (x1, w1), (x2, w2) = (np.polynomial.legendre.leggauss(n) for n in (_GL_N, 2 * _GL_N))
    return np.concatenate([x1, x2]), np.concatenate([0.0 * w1, w2]), np.concatenate([w1, 0.0 * w2])


def quad(f, a, b):
    """Gauss-Legendre integrals of f over the panels [a, b], summed over panels.

    ``a`` and ``b`` have shape (..., panels); f maps nodes of shape
    (..., panels, 3n) to values of that shape.  Returns the 2n-point sums and
    their error estimates, the sums over panels of |2n-point - n-point|.
    """
    t, w_hi, w_lo = _gauss_legendre()
    half = 0.5 * (b - a)
    fx = f((0.5 * (a + b))[..., None] + half[..., None] * t)
    hi = (fx @ w_hi) * half
    return hi.sum(axis=-1), np.abs(hi - (fx @ w_lo) * half).sum(axis=-1)


class _Panels:
    """Panel ends per (probe, ray, panel), each panel in its own variable."""

    def __init__(self, alpha: float, p: float, r_min, r_max, e0, e1, u_tail: bool = True, cuts=()):
        self.alpha, self.p = alpha, p
        lo = np.clip(e0, r_min, r_max)
        self.hi = hi = np.clip(e1, lo, r_max)
        n = max(1, math.ceil(float(np.max(np.log(hi / lo))) / math.log(_PANEL_RATIO)))
        edges = lo[..., None] * (hi / lo)[..., None] ** (np.arange(n + 1) / n)
        edges[..., -1] = hi
        extra = [np.clip(c, lo, hi)[..., None] for c in cuts if np.any((c > lo) & (c < hi))]
        if extra:
            edges = np.sort(np.concatenate([edges] + extra, axis=-1), axis=-1)
        a, b = [edges[..., :-1]], [edges[..., 1:]]
        self.v = bool(np.any(r_min < e0))
        if self.v:
            a.insert(0, np.broadcast_to(r_min, lo.shape)[..., None] ** p)
            b.insert(0, lo[..., None] ** p)
        self.u = u_tail and bool(np.any(r_max > e1))
        if self.u:
            a.append(np.broadcast_to(r_max, hi.shape)[..., None] ** -alpha)
            b.append(hi[..., None] ** -alpha)
        self.a, self.b = np.concatenate(a, axis=-1), np.concatenate(b, axis=-1)
        self.rs = slice(int(self.v), self.a.shape[-1] - int(self.u))

    def nodes(self, x):
        """r at the nodes x, and the factor that turns h(r) into each panel's integrand."""
        r, jac = x.copy(), x ** (1.0 - self.alpha)
        if self.v:
            r[..., 0, :] = np.maximum(x[..., 0, :] ** (1.0 / self.p), 1e-300)  # r = 0 only by underflow
            jac[..., 0, :] = r[..., 0, :] ** (2.0 - self.alpha - self.p) / self.p
        if self.u:  # beyond r = 1e100, h r^2 is its limit
            r[..., -1, :] = np.minimum(x[..., -1, :] ** (-1.0 / self.alpha), 1e100)
            jac[..., -1, :] = r[..., -1, :] ** 2 / self.alpha
        return r, jac


def _pole_rays(rp: RadialPart, c1, c2, a1, a2, pair, h):
    """Per (probe, ray): integral of h(r) r^{1-alpha} dr over the ray, and its error estimate.

    h(r, c1, c2, y1, y2) has poles at p_j = 1/c_j (none where c_j = 0), with
    principal parts k1/(r - p1) and k2/(r - p2), k_j = a_j F(p_j), F = r^{1-alpha},
    and ``pair`` times [F(p1) + F[p1, p2](r - p1)]/((r - p1)(r - p2)), which
    stays finite as p1 -> p2.  On an r-panel [a, b] that a pole is near, its
    parts are subtracted and integrate to k ell(p), ell(p) = Log(b - p) - Log(a - p),
    or through the divided difference of ell.  h gets y_j = 1/(1 - c_j r) as
    p_j/(p_j - r), so near a pole h and its parts share one rounded r - p_j.
    With a leading kernel axis on a_j, ``pair`` and h, the kernels share the panels.
    """
    s = 1.0 - rp.alpha
    p1, p2 = (np.where(c != 0, 1.0 / np.where(c != 0, c, 1.0), -1.0) for c in (c1, c2))  # -1: near no panel
    m1, m2 = (np.where(c != 0, np.abs(p), 1.0) for c, p in ((c1, p1), (c2, p2)))
    # an edge at Re p keeps the nodes off a pole close to the positive axis
    cuts = [np.where(np.abs(p.imag) < p.real, p.real, 0.0) for p in (p1, p2)]
    pan = _Panels(rp.alpha, 2.0 - rp.alpha, rp.r_min, rp.r_max, _END_FRAC * np.minimum(1.0, np.minimum(m1, m2)),
                  np.maximum(1.0, np.maximum(m1, m2)) / _END_FRAC, cuts=cuts)
    rs = pan.rs
    a, b = pan.a[..., rs], pan.b[..., rs]
    pe1, pe2 = p1[..., None], p2[..., None]
    n1 = np.abs(pe1 - a) + np.abs(pe1 - b) < _NEAR_SUM * (b - a)
    n2 = np.abs(pe2 - a) + np.abs(pe2 - b) < _NEAR_SUM * (b - a)
    near = bool(n1.any() or n2.any())
    if near:
        f1, f2 = np.exp(s * np.log(pe1)), np.exp(s * np.log(pe2))
        dl, ratio = _log_diff(pe1, pe2)
        kp = np.asarray(pair)[..., None] * (n1 | n2)
        k1 = np.asarray(a1)[..., None] * f1 * n1
        k2 = np.asarray(a2)[..., None] * f2 * n2 + kp * s * f2 * _exprel(s * dl) * ratio
        kp = kp * f1
        ell12 = _log_diff(a - pe1, a - pe2)[1] - _log_diff(b - pe1, b - pe2)[1]
        exact = (k1 * (np.log(b - pe1) - np.log(a - pe1)) + k2 * (np.log(b - pe2) - np.log(a - pe2))
                 + kp * ell12).sum(axis=-1)
    ce1, ce2, pe1, pe2 = (x[..., None, None] for x in (c1, c2, p1, p2))

    def f(x):
        r, jac = pan.nodes(x)
        val = h(r, ce1, ce2, pe1 / (pe1 - r), pe2 / (pe2 - r)) * jac
        if near:
            d1, d2 = r[..., rs, :] - pe1, r[..., rs, :] - pe2
            val[..., rs, :] -= k1[..., None] / d1 + k2[..., None] / d2 + kp[..., None] / (d1 * d2)
        return val

    val, err = quad(f, pan.a, pan.b)
    return (val + exact if near else val), err


def _by_blocks(integrals: tuple[str, ...], block, m, *args):
    """Per kernel named in ``integrals``, the sum over rays, with masses m, of block's integrals.

    ``block`` returns values and estimates of shape (kernel, probe, ray) at
    a block of the broadcast probes: fixed blocks of _BLOCK_PAIRS (probe,
    ray) pairs, so a grid never holds all of its nodes at once.  Raises
    QuadratureError where an estimate exceeds QUAD_ERR_TOL (1 + |value|).
    """
    args = np.broadcast_arrays(*args)
    flat = [a.reshape(-1) for a in args]
    step = max(1, _BLOCK_PAIRS // len(m))
    out = np.empty((len(integrals), flat[0].size), dtype=complex)
    for lo in range(0, flat[0].size, step):
        chunk = [a[lo:lo + step] for a in flat]
        val, err = (x.reshape(len(integrals), len(chunk[0]), len(m)) for x in block(*chunk))
        bad = err > QUAD_ERR_TOL * (1.0 + np.abs(val))
        if bad.any():
            k, i, j = np.unravel_index(np.argmax(np.where(bad, err, -1.0)), err.shape)
            pt = tuple(c[i].item() for c in chunk)
            raise QuadratureError(integrals[k], float(err[k, i, j]), pt[0] if len(pt) == 1 else pt)
        out[:, lo:lo + step] = val @ m
    return out.reshape((len(integrals),) + args[0].shape)


def _truncated_phi(rp: RadialPart, z, w):
    om = rp.omega

    def h(r, c1, c2, y1, y2):
        return (c1 * (r + c1) * y1 + c2 * (r + c2) * y2) / (1.0 + r * r) + c1 * c2 * y1 * y2

    def block(zb, wb):
        c1, c2 = om[:, 0] / zb[:, None], om[:, 1] / wb[:, None]
        return _pole_rays(rp, c1, c2, -c1, -c2, (c1 != 0) & (c2 != 0), h)

    return _by_blocks(("phi",), block, rp.mass, z, w)[0]


def _truncated_marginal(rp: RadialPart, axis: int, z):
    """The rays' parts of the marginal phi and phi' at z, both kernels on one panel layout per block.

    The phi kernel omega (r + c) y / (1 + r^2) has a simple pole at 1/c; the
    phi' kernel -(c y)^2 has a double pole there, the pair term at p1 = p2.
    """
    o = rp.omega[:, axis - 1]
    oe = o[:, None, None]
    a1 = np.stack([-o, 0.0 * o])[:, None, :]  # (kernel, probe, ray)

    def h(r, c, _, y, __):
        return np.stack([oe * (r + c) * y / (1.0 + r * r), -(c * y) ** 2])

    def block(zb):
        c = o / zb[:, None]
        return _pole_rays(rp, c, c, a1, 0.0, np.stack([0.0 * c, -1.0 * (c != 0)]), h)

    return _by_blocks(("marginal_phi", "marginal_dphi"), block, rp.mass, z)


def _e1_ratio(t):
    """(e^{it} - 1 - it) / (it)^2 at real t; its odd part (t - sin t)/t^2 by series below |t| = 1."""
    acc = np.zeros_like(t)
    for j in range(8, -1, -1):
        acc = acc * t * t + (-1) ** j / math.factorial(2 * j + 3)
    small = np.abs(t) < 1.0
    safe = np.where(small, 1.0, t)
    odd = np.where(small, t * acc, (safe - np.sin(safe)) / (safe * safe))
    return 0.5 * np.sinc(t / (2.0 * math.pi)) ** 2 + 1j * odd


def _gamma_tail(alpha: float, k, x):
    """integral of e^{ikr} r^{-1-alpha} dr over [x, inf) = (-ik)^alpha Gamma(-alpha, -ikx), for |kx| >= 20.

    Legendre's continued fraction for Gamma(a, z) (DLMF 8.9.2) in its even
    form, run backward from depth 24; depth 20 already reaches rounding.
    """
    z = -1j * k * x
    acc = np.zeros_like(z)
    for n in range(24, 0, -1):
        acc = -n * (n + alpha) / (z + (2 * n + 1 + alpha) + acc)
    return np.exp(1j * k * x) * x**-alpha / (z + 1.0 + alpha + acc)


def _drift_integral(alpha: float, a, b):
    """integral of r^{-alpha}/(1+r^2) dr over [a, b] elementwise, and its estimate; a = 0 needs alpha < 1.

    Near 0 the panel is in v = r^{1-alpha}, which exists only for alpha < 1.
    """
    a = np.asarray(a, dtype=float)
    e0 = np.full(a.shape, _END_FRAC) if alpha < 1.0 else a
    pan = _Panels(alpha, 1.0 - alpha, a, b, e0, np.full(a.shape, 1.0 / _END_FRAC))

    def f(x):
        r, jac = pan.nodes(x)
        return jac / (r * (1.0 + r * r))

    return quad(f, pan.a, pan.b)


def _cf_rays(rp: RadialPart, k):
    """Per (u, ray): integral of e^{ikr} - 1 - ikr/(1+r^2) against r^{-1-alpha} dr, and its estimate.

    Panels reach b = max(20/|k|, r_min); beyond b, e^{ikr} is :func:`_gamma_tail`,
    the -1 exact and the compensator :func:`_drift_integral`.
    """
    nz, k = _nonzero(k)
    a, r_max = rp.alpha, rp.r_max
    pan = _Panels(a, 2.0 - a, rp.r_min, r_max, _END_FRAC * np.minimum(1.0, 1.0 / np.abs(k)),
                  np.maximum(_CF_TAIL_KR / np.abs(k), rp.r_min), u_tail=False)
    ke = k[..., None, None]

    def f(x):
        r, jac = pan.nodes(x)
        return (1j * ke * r / (1.0 + r * r) - ke * ke * _e1_ratio(ke * r)) * jac

    val, err = quad(f, pan.a, pan.b)
    b = pan.hi
    if np.any(b < r_max):
        drift, drift_err = _drift_integral(a, b, r_max)
        osc = _gamma_tail(a, k, b) - (0.0 if math.isinf(r_max) else _gamma_tail(a, k, r_max))
        val = val + np.where(b < r_max, osc - (b**-a - r_max**-a) / a - 1j * k * drift, 0.0)
        err = err + np.abs(k) * drift_err
    return np.where(nz, val, 0.0), np.where(nz, err, 0.0)


def _truncated_cf(rp: RadialPart, u):
    om = rp.omega
    u = np.asarray(u, dtype=float)
    return _by_blocks(("cf",), lambda u1, u2: _cf_rays(rp, u1[:, None] * om[:, 0] + u2[:, None] * om[:, 1]),
                      rp.mass, u[..., 0], u[..., 1])[0]


def _ray_drift(rp: RadialPart) -> float | None:
    """integral of r^{-alpha}/(1+r^2) dr over the ray, None if divergent."""
    if rp.r_min == 0.0 and rp.alpha >= 1.0:
        return None
    if rp.is_untruncated():
        return 0.5 * math.pi / math.cos(0.5 * math.pi * rp.alpha)

    def block(a, b):
        return _drift_integral(rp.alpha, a[:, None], b[:, None])

    return _by_blocks(("drift",), block, np.ones(1), rp.r_min, rp.r_max)[0].real.item()


# -- named constructors ------------------------------------------------------


def make_gaussian(v: Sequence[float], A: Matrix2) -> CharTriplet:
    """Triplet (v, A, 0)."""
    return CharTriplet((float(v[0]), float(v[1])), A, LevyMeasure.zero())


def make_compound_poisson(lam: float, jump: PlanarMeasure) -> CharTriplet:
    """Rate-lam compound law with the given jump distribution.

    The drift compensator integral fixes v = lam * E[x / (1 + ||x||^2)].
    """
    if lam <= 0.0:
        raise ValueError("rate must be positive")
    if jump.tail_mass(1e-300) < 1.0 - 1e-12:
        raise ValueError("jump distribution cannot charge the origin")
    pts, wts = jump.points, jump.weights
    nrm = 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2
    v = (
        lam * float((wts * pts[:, 0] / nrm).sum()),
        lam * float((wts * pts[:, 1] / nrm).sum()),
    )
    tau = LevyMeasure(AtomicMeasure2D.from_arrays(pts, lam * wts))
    return CharTriplet(v, Matrix2(0.0, 0.0, 0.0), tau)


def convolve_triplets(t1: CharTriplet, t2: CharTriplet) -> CharTriplet:
    """Triplet of the convolution: components add."""
    return CharTriplet(
        (t1.v[0] + t2.v[0], t1.v[1] + t2.v[1]), t1.A + t2.A, t1.tau + t2.tau
    )


def lambda_bijection(direction: str, t: CharTriplet) -> CharTriplet:
    """Identity on triplets; tags which representation a pipeline evaluates.

    ``direction`` is "classical-to-bifree" or "bifree-to-classical".
    """
    if direction not in ("classical-to-bifree", "bifree-to-classical"):
        raise ValueError(f"unknown direction {direction!r}")
    return t


# -- sigma-form --------------------------------------------------------------


@dataclass(frozen=True)
class SigmaForm:
    """Finite-measure representation (gamma1, gamma2, sigma1, sigma2, sigma~)."""

    gamma1: float
    gamma2: float
    sigma1: AtomicMeasure2D
    sigma2: AtomicMeasure2D
    sigma_tilde: AtomicMeasure2D

    def verify(self, tol: float = 1e-12) -> None:
        """Check the defining relations atomwise; raises on violation."""
        _check_sites(self, tol)


def _check_sites(sf: SigmaForm, tol: float) -> list[float]:
    """Check the relations at every atom; return the three masses within MERGE_TOL of 0.

    The atoms of the three measures are put in lexicographic order by one
    stable sort.  At each atom a measure reads the mass of its atoms within
    MERGE_TOL, as ``mass_at`` reads it; the first atom that fails raises.
    """
    parts = (sf.sigma1, sf.sigma2, sf.sigma_tilde)
    pts = np.concatenate([m.points for m in parts])
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    s, t = pts.T
    part = np.repeat(np.arange(3), [len(m) for m in parts])[order]
    mass = np.concatenate([m.masses for m in parts])[order]
    # atoms within MERGE_TOL share a cell: a chain of s-gaps <= MERGE_TOL, then of t-gaps in it
    run = np.cumsum(np.diff(s, prepend=s[:1]) > MERGE_TOL)
    o = np.lexsort((t, run))
    cell = np.cumsum((np.diff(run[o], prepend=run[o][:1]) != 0) | (np.diff(t[o], prepend=t[o][:1]) > MERGE_TOL))
    size = np.bincount(cell)[cell]
    i = np.repeat(o, size)
    j = o[np.repeat(np.searchsorted(cell, cell), size) + np.arange(len(i)) - np.repeat(np.cumsum(size) - size, size)]
    near = np.linalg.norm(pts[j] - pts[i], axis=1) <= MERGE_TOL
    m1, m2, mt = (np.bincount(i, np.where(near & (part[j] == k), mass[j], 0.0), len(pts)) for k in range(3))
    r1, r2 = s / np.sqrt(1.0 + s * s), t / np.sqrt(1.0 + t * t)
    origin = (s == 0.0) & (t == 0.0)
    relations = (np.abs(r2 * m1 - r1 * mt) > tol) | (np.abs(r1 * m2 - r2 * mt) > tol)
    bad = np.flatnonzero(np.where(origin, mt * mt > m1 * m2 + tol, relations))
    if len(bad) and origin[bad[0]]:
        raise InconsistentSigmaForm("origin masses violate Cauchy-Schwarz")
    if len(bad):
        raise InconsistentSigmaForm(f"relations fail at atom ({s[bad[0]]}, {t[bad[0]]})")
    return np.bincount(part, np.where(np.linalg.norm(pts, axis=1) <= MERGE_TOL, mass, 0.0), 3).tolist()


def _added_in_order(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., rounded after each addition as a loop adds them."""
    return float(np.cumsum(np.append(start, terms))[-1])


def triplet_to_sigma_form(t: CharTriplet) -> SigmaForm:
    """Finite-measure form of an atomic triplet: elementwise maps of tau's atoms.

    Radial Levy parts must be discretized first (see
    :meth:`LevyMeasure.discretized`).  A puts one atom at the origin of each
    sigma; zero masses are dropped.
    """
    if not t.tau.is_atomic():
        raise ValueError("sigma-form requires an atomic Levy measure; discretize first")
    pts, m = t.tau.atoms.points, t.tau.atoms.masses
    s, tt = pts.T
    den1, den2, nrm = 1.0 + s * s, 1.0 + tt * tt, 1.0 + s * s + tt * tt
    with_origin = np.vstack(([0.0, 0.0], pts))
    return SigmaForm(
        _added_in_order(t.v[0], m * s * tt * tt / (den1 * nrm)),
        _added_in_order(t.v[1], m * tt * s * s / (den2 * nrm)),
        AtomicMeasure2D.from_arrays(with_origin, np.append(t.A.a, m * s * s / den1)),
        AtomicMeasure2D.from_arrays(with_origin, np.append(t.A.b, m * tt * tt / den2)),
        AtomicMeasure2D.from_arrays(with_origin, np.append(t.A.c, m * s * tt / np.sqrt(den1 * den2))),
    )


def sigma_form_to_triplet(sf: SigmaForm) -> CharTriplet:
    """Inverse of :func:`triplet_to_sigma_form`; validates the relations to SIGMA_FORM_TOL.

    sigma2's atoms are matched to sigma1's by exact equality; both are in
    lexicographic order, which is the order of their points read as complex
    numbers, so one ``searchsorted`` finds every match.
    """
    a, b, c = _check_sites(sf, SIGMA_FORM_TOL)
    if c * c > a * b + SIGMA_FORM_TOL:
        raise InconsistentSigmaForm("origin masses violate Cauchy-Schwarz")
    off = [(m.points != 0.0).any(axis=1) for m in (sf.sigma1, sf.sigma2)]
    p1, p2 = sf.sigma1.points[off[0]], sf.sigma2.points[off[1]]
    if (p1[:, 0] == 0.0).any():
        raise InconsistentSigmaForm("sigma1 charges a point with s = 0 off the origin")
    s, t = p1.T
    tau1 = sf.sigma1.masses[off[0]] * (1.0 + s * s) / (s * s)
    # atoms after the first one with t = 0 are never reached
    k = np.flatnonzero(np.append(p2[:, 1] == 0.0, True))[0]
    s, t = p2[:k].T
    tau2 = sf.sigma2.masses[off[1]][:k] * (1.0 + t * t) / (t * t)
    key1, key2 = p1.view(complex).ravel(), p2[:k].view(complex).ravel()
    j = np.searchsorted(key1, key2)
    hit = j < len(key1)
    hit[hit] = key1[j[hit]] == key2[hit]
    ref = tau1[j[hit]]
    bad = np.flatnonzero(hit)[np.abs(tau2[hit] - ref) > SIGMA_FORM_TOL * (1.0 + np.abs(ref))]
    if len(bad):
        raise InconsistentSigmaForm(f"sigma1/sigma2 disagree at ({s[bad[0]]}, {t[bad[0]]})")
    if k < len(p2):
        raise InconsistentSigmaForm("sigma2 charges a point with t = 0 off the origin")
    pts, m = np.concatenate((p1, p2[~hit])), np.concatenate((tau1, tau2[~hit]))
    s, t = pts.T
    v1 = sf.gamma1 - _added_in_order(0.0, m * s * t * t / ((1.0 + s * s) * (1.0 + s * s + t * t)))
    v2 = sf.gamma2 - _added_in_order(0.0, m * t * s * s / ((1.0 + t * t) * (1.0 + s * s + t * t)))
    return CharTriplet((v1, v2), Matrix2(a, c, b), LevyMeasure(AtomicMeasure2D.from_arrays(pts, m)))
