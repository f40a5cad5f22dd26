"""Analytic transforms of atomic laws.

Cauchy transforms in one and two variables, reciprocal F-transforms and
their functional inverses on truncated cones, the free and bi-free
phi-transforms, and Stieltjes inversion onto grids.

The functional inverse of F is computed by damped Newton iteration with the
identity initial guess, which is justified by the non-tangential asymptotics
F^{-1}(xi) = (1 + o(1)) xi on the cone returned by :func:`cone_for`.  The
8x-support-radius cone height is a heuristic (no constructive bound is
available); outside the cone the iteration may legitimately fail, which is
reported as :class:`NoConvergence`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import Measure1D, PlanarMeasure, RowStack

NEWTON_TOL = 1e-12
NEWTON_MAXITER = 100
DEGENERATE_TOL = 1e-14
_ONE = np.ones(1, dtype=int)


class NoConvergence(ArithmeticError):
    """Newton iteration failed; the target is outside the reliable domain."""


class DegenerateDenominator(ArithmeticError):
    """|z w G| fell below tolerance; the working cone is too small."""


@dataclass(frozen=True)
class TruncatedCone:
    """Gamma_{theta,M} = { x+iy : |x| <= theta |y|, |y| >= M }."""

    theta: float
    M: float

    def __post_init__(self):
        if self.theta <= 0.0 or self.M <= 0.0:
            raise ValueError("cone parameters must be positive")


def _require_nonreal(z: np.ndarray | complex, name: str = "z") -> None:
    if not np.asarray(z).imag.all():
        raise ValueError(f"{name} must be non-real")


def _probe_pairs(probes, dtype, name: str) -> np.ndarray:
    """The probes as an array (P, 2); an empty set raises, since a residual over no probes checks nothing."""
    pairs = np.array(probes, dtype=dtype).reshape(-1, 2)
    if not len(pairs):
        raise ValueError(f"{name} is empty: a residual over no probes checks nothing")
    return pairs


def _require_eps(eps: float) -> None:
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be finite and positive")


def cauchy1d(nu: Measure1D, z) -> complex | np.ndarray:
    """G_nu(z) = sum w_k / (z - p_k)."""
    z = np.asarray(z, dtype=complex)
    _require_nonreal(z)
    g = (nu.weights / (z[..., None] - nu.points)).sum(axis=-1)
    return complex(g) if g.ndim == 0 else g


def f_transform(nu: Measure1D, z) -> complex | np.ndarray:
    """F_nu = 1 / G_nu."""
    return 1.0 / cauchy1d(nu, z)


def cauchy2d(mu: PlanarMeasure, z, w) -> complex | np.ndarray:
    """G_mu(z, w) = sum w_k / ((z - s_k)(w - t_k)); z, w broadcast elementwise."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    _require_nonreal(z, "z")
    _require_nonreal(w, "w")
    g = (mu.weights / ((z[..., None] - mu.points[:, 0]) * (w[..., None] - mu.points[:, 1]))).sum(axis=-1)
    return complex(g) if g.ndim == 0 else g


def _f_and_deriv(points: np.ndarray, weights: np.ndarray, x: np.ndarray):
    """F = 1/G and F' = F^2 sum_k w_k / (x - p_k)^2 of the atomic law at x.

    One complex division over the atoms; the sums over the few atoms are
    matrix-vector products, which ``weights`` of shape (m,) or (..., m) both
    take.
    """
    inv = 1.0 / (x[..., None] - points)
    weighted = inv * weights
    ones = np.ones(inv.shape[-1])
    f = 1.0 / (weighted @ ones)
    return f, ((weighted * inv) @ ones) * (f * f)


def _hyperbolic(x, h):
    """Pseudo-hyperbolic distance |h| / |x - conj(x - h)| between x and x - h."""
    return np.abs(h) / np.abs(2j * x.imag + np.conj(h))


def _nonzero(d):
    """d with its entries of modulus <= 1e-300 set to 1, a divisor that keeps a Newton step finite."""
    return np.where(np.abs(d) > 1e-300, d, 1.0)


def _damped_newton(h_eval: Callable, x, target, tol: float = NEWTON_TOL,
                   maxiter: int = NEWTON_MAXITER, fixed_point: bool = False):
    """Solve h(x) = 0 by damped Newton; one root per target entry.

    ``h_eval(x) -> (h, step, aux)`` evaluates the residual, the Newton step
    -J^{-1} h, which the caller forms from its own Jacobian, and per-entry
    by-products ``aux`` (a sequence of arrays shaped like ``target``), which
    are returned as evaluated at the final ``x``.  ``x`` is shaped like
    ``target`` or has leading axes in front, the unknowns of each entry: an
    entry is settled when all its unknowns are, fails when any does, and its
    merit is the largest over them.  An entry stops once
    |h| <= tol (1 + |target|).  Its step is halved, up to 60 times, while h
    at the proposal is not finite or the proposal leaves the half-plane of
    its target; an entry whose halvings run out, or whose start is not
    finite, is given up.  Every entry takes its proposal: an entry outside
    the active set took a zero step, so its proposal is its own point, and
    one given up keeps its last rejected proposal, so callers read only the
    entries of the converged mask.

    With ``fixed_point`` the residual is h = x - T(x) for a holomorphic map T
    of the target's half-plane (a product of them, with unknown axes) into
    itself, and an unknown settles once |h| <= tol (1 + |x|).  A Newton
    proposal must then also lower the merit, the largest pseudo-hyperbolic
    distance |h| / |x - conj(T(x))| over the unknowns, which the plain step
    x <- T(x) = x - h never increases (Schwarz-Pick for the Kobayashi
    distance of the product); one that does not is replaced, before any
    halving, by the plain step.  Returns ``(x, aux, converged mask)``.
    """
    x = np.array(x, dtype=complex)
    sign = np.sign(target.imag)
    if x.ndim > np.ndim(target):  # over the unknowns of each entry
        lead = tuple(range(x.ndim - np.ndim(target)))
        every, some, largest = (functools.partial(f, axis=lead) for f in (np.all, np.any, np.max))
    else:
        every = some = largest = lambda a: a

    def settled(x, h):
        return every(np.abs(h) <= tol * (1.0 + np.abs(x if fixed_point else target)))

    h, step, aux = h_eval(x)
    done = settled(x, h)
    failed = some(~np.isfinite(h))
    merit = largest(_hyperbolic(x, h)) if fixed_point else np.zeros(done.shape)
    for _ in range(maxiter):
        act = ~(done | failed)
        if not act.any():
            break
        step = np.where(act, step, 0.0)
        newton = act & fixed_point
        for _ in range(60):
            prop = x + step
            ph, pstep, paux = h_eval(prop)
            bad = act & some(~np.isfinite(ph) | (np.sign(prop.imag) != sign))
            pmerit = largest(_hyperbolic(prop, ph)) if fixed_point else merit
            fall_back = newton & (bad | (pmerit >= merit))
            if not (bad | fall_back).any():
                break
            step = np.where(fall_back, -h, np.where(bad, 0.5 * step, step))
            newton &= ~fall_back
        failed |= bad
        x, h, step, merit, aux = prop, ph, pstep, pmerit, paux
        done |= act & ~bad & settled(x, h)
    return x, aux, done


def newton_f_inverse(points: np.ndarray, weights: np.ndarray, target: np.ndarray,
                     guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve F(x) = target elementwise for the atomic law (points, weights):
    (roots, converged mask)."""
    target = np.asarray(target, dtype=complex)

    def h_eval(x):
        f, fp = _f_and_deriv(points, weights, x)
        h = f - target
        return h, -h / _nonzero(fp), ()

    roots, _, ok = _damped_newton(h_eval, guess, target)
    return roots, ok


def invert_f(nu: Measure1D, target):
    """zeta with F_nu(zeta) = target, to 1e-12 relative residual.

    The iteration starts at the target itself.  Raises
    :class:`NoConvergence` when the iteration does not settle, which signals
    a target outside the reliable inversion domain.
    """
    target = np.asarray(target, dtype=complex)
    _require_nonreal(target, "target")
    roots, ok = newton_f_inverse(nu.points, nu.weights, target, target)
    if not ok.all():
        raise NoConvergence(f"F inversion failed at {target[~ok].ravel()[:3]}")
    return complex(roots) if roots.ndim == 0 else roots


def free_phi(nu: Measure1D, z):
    """Voiculescu transform phi_nu(z) = F_nu^{-1}(z) - z."""
    return invert_f(nu, z) - np.asarray(z, dtype=complex)


def _pair_factors(stack: RowStack, i1: np.ndarray, i2: np.ndarray, z: np.ndarray, w: np.ndarray):
    """The factors of z w G_g(i1_g, i2_g) = sum_k A_gk B_gk for each law g of ``stack``.

    A = z / (i1 - s_gk) and B = w p_gk / (i2 - t_gk), shaped (n, *z.shape,
    m) and (n, *w.shape, m); z and w have a common number of axes, and i1,
    i2 (n, *z.shape) and (n, *w.shape) hold the laws' marginal inverses.
    """
    lead = (len(stack.counts), *(1,) * z.ndim, -1)
    a = z[..., None] / (i1[..., None] - stack.points[..., 0].reshape(lead))
    b = (w[..., None] * stack.weights.reshape(lead)) / (i2[..., None] - stack.points[..., 1].reshape(lead))
    return a, b


def _pair_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z w G_g = sum_k A_gk B_gk from the factors of :func:`_pair_factors`, law by law.

    The sums over k are BLAS products, so no broadcast (..., m) temporary
    is formed: an outer grid (A (n, S, 1, m) against B (n, 1, T, m)) is one
    matrix product per law, any other broadcast a batch of dot products.
    """
    if a.ndim == b.ndim == 4 and a.shape[2] == b.shape[1] == 1:
        return a[:, :, 0] @ b[:, 0].transpose(0, 2, 1)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _inverse_pair_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 / (z w G_g), the reciprocal of :func:`_pair_sum`.

    Raises :class:`DegenerateDenominator` where |z w G_g| < DEGENERATE_TOL.
    """
    x = _pair_sum(a, b)
    if (np.abs(x) < DEGENERATE_TOL).any():
        raise DegenerateDenominator("z w G(F1^-1, F2^-1) vanished; enlarge the cone height")
    return np.divide(1.0, x, out=x)


def _law_sum(counts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_g counts[g] x[g] over the law axis in front, scaling x in place
    (real and imaginary parts as one real array: a complex product's bits)."""
    if (counts != 1).any():
        parts = x.view(np.float64).reshape(*x.shape, 2)
        np.multiply(parts, counts.reshape(-1, *(1,) * x.ndim), out=parts)
    return x[0] if len(counts) == 1 else x.sum(axis=0)


def bi_free_phi(mu, z, w):
    """Two-variable phi-transform at (z, w), broadcast against each other.

    phi(z,w) = phi_1(z)/z + phi_2(w)/w + 1 - 1/(z w G(F_1^{-1}(z), F_2^{-1}(w))).

    ``mu`` is a :class:`PlanarMeasure` or a :class:`RowStack`, whose phi is
    the count-weighted sum of its laws' phis, the phi of their bi-free
    convolution.  All laws' marginal inversions, the s-columns at z and the
    t-columns at w, are one Newton solve on z and w as given, started at
    the targets.  The parts that depend on z only or w only are computed on
    the axes, law by law; no broadcast (..., m) temporary is formed.  Raises
    :class:`NoConvergence` when an inversion does not settle.
    """
    if not isinstance(mu, RowStack):
        mu = RowStack(mu.points[None], mu.weights[None], _ONE)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    _require_nonreal(z, "z")
    _require_nonreal(w, "w")
    n = len(mu.counts)
    # law-major entries: the s-columns against z, then the t-columns against w
    target = np.concatenate([x.reshape(1, -1).repeat(n, 0).ravel() for x in (z, w)])
    roots, ok = newton_f_inverse(
        np.concatenate([mu.points[..., 0].repeat(z.size, 0), mu.points[..., 1].repeat(w.size, 0)]),
        np.concatenate([mu.weights.repeat(z.size, 0), mu.weights.repeat(w.size, 0)]), target, target)
    if not ok.all():
        raise NoConvergence(f"F inversion failed at {target[~ok][:3]}")
    # a common number of axes, so the law axis in front lines up
    nd = max(z.ndim, w.ndim)
    z = z.reshape((1,) * (nd - z.ndim) + z.shape)
    w = w.reshape((1,) * (nd - w.ndim) + w.shape)
    i1 = roots[: z.size * n].reshape(n, *z.shape)
    i2 = roots[z.size * n:].reshape(n, *w.shape)
    # each law's phi is put together before the laws are summed: a sum over
    # the laws of the z-parts and w-parts alone would round at their size,
    # which can be far above phi's where they cancel (point masses)
    val = (i1 - z) / z + (i2 - w) / w
    val += 1.0
    val -= _inverse_pair_sum(*_pair_factors(mu, i1, i2, z, w))
    val = _law_sum(mu.counts, val)
    return complex(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class GridDensity:
    """Epsilon-smoothed density on a rectangular grid (row-major over s).

    ``axis_densities`` are the eps-smoothed densities of the two marginal
    laws on ``s_axis`` and ``t_axis``: ``BiConvRep.density`` always sets
    them, from its own marginal solves; a bare :func:`stieltjes2d` grid
    leaves them None.
    """

    s_axis: np.ndarray
    t_axis: np.ndarray
    values: np.ndarray
    epsilon: float
    axis_densities: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def spacing(self) -> tuple[float, float]:
        ds = float(np.diff(self.s_axis).mean()) if len(self.s_axis) > 1 else 1.0
        dt = float(np.diff(self.t_axis).mean()) if len(self.t_axis) > 1 else 1.0
        return ds, dt

    def riemann_mass(self) -> float:
        ds, dt = self.spacing()
        return float(self.values.sum() * ds * dt)

    def marginal(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Axis values and row/column sums times the grid step."""
        ds, dt = self.spacing()
        if axis == 1:
            return self.s_axis, self.values.sum(axis=1) * dt
        if axis == 2:
            return self.t_axis, self.values.sum(axis=0) * ds
        raise ValueError("axis must be 1 or 2")


def inversion_values(g_plus: np.ndarray, g_minus: np.ndarray) -> np.ndarray:
    """-Re[G(s+ie, t+ie) - G(s+ie, t-ie)] / (2 pi^2), the planar inversion."""
    vals = np.real(g_plus) - np.real(g_minus)
    vals *= -0.5
    vals /= np.pi**2
    return vals


def stieltjes2d(geval: Callable, s_axis, t_axis, eps: float) -> GridDensity:
    """Planar Stieltjes inversion of a Cauchy-transform evaluator.

    ``geval(zmat, wmat)`` must broadcast over numpy arrays.  The result is
    the eps-smoothed measure itself; no extrapolation toward eps -> 0 is
    attempted.
    """
    _require_eps(eps)
    s_axis = np.asarray(s_axis, dtype=float)
    t_axis = np.asarray(t_axis, dtype=float)
    Z = (s_axis + 1j * eps)[:, None] * np.ones_like(t_axis)[None, :]
    Wp = np.ones_like(s_axis)[:, None] * (t_axis + 1j * eps)[None, :]
    gp = np.asarray(geval(Z, Wp), dtype=complex)
    gm = np.asarray(geval(Z, np.conj(Wp)), dtype=complex)
    if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
        raise ArithmeticError("transform evaluation failed at a grid node")
    vals = inversion_values(gp, gm)
    return GridDensity(s_axis, t_axis, vals, eps)


def cone_for(m: PlanarMeasure | Measure1D) -> TruncatedCone:
    """Working cone: theta = 1, M = max(1, 8 * support radius)."""
    return TruncatedCone(1.0, max(1.0, 8.0 * m.support_radius()))
