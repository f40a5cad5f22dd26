"""Reference values computed apart from the program.

Nothing here imports ``bifree``: each reference is an independent
implementation (direct quadrature, moment-cumulant recursion, closed forms,
30-digit ``mpmath`` integrals, scalar Newton) that the workloads compare the
program's outputs against.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad


# -- 1-d laws ---------------------------------------------------------------


def smoothed_arcsine(s: float, eps: float) -> float:
    """Cauchy-smoothed arcsine density on [-2, 2] at s, by direct quadrature.

    x = 2 sin(theta) removes the edge singularities; the arcsine law is
    B1 boxplus B1 for the symmetric Bernoulli law B1 on {-1, 1}.
    """
    val, _ = quad(
        lambda th: eps / (math.pi * ((s - 2.0 * math.sin(th)) ** 2 + eps * eps)) / math.pi,
        -0.5 * math.pi,
        0.5 * math.pi,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    return val


def _poly_mul(a: list[float], b: list[float], deg: int) -> list[float]:
    out = [0.0] * (deg + 1)
    for i, x in enumerate(a[: deg + 1]):
        if x == 0.0:
            continue
        for j, y in enumerate(b[: deg + 1 - i]):
            out[i + j] += x * y
    return out


def _moments_from_cumulants(kappa: list[float], order: int) -> list[float]:
    """Free moment-cumulant recursion m_n = sum_s kappa_s [x^{n-s}] M(x)^s.

    This is the first-block decomposition of the sum over non-crossing
    partitions; ``kappa[0]`` is unused and the result starts at m_0 = 1.
    """
    m = [1.0] + [0.0] * order
    for n in range(1, order + 1):
        total = kappa[n]
        power = [1.0]  # M(x)^s truncated, built up over s
        for s in range(1, n):
            power = _poly_mul(power, m, n - s)
            total += kappa[s] * (power[n - s] if n - s < len(power) else 0.0)
        m[n] = total
    return m


def _cumulants_from_moments(m: list[float]) -> list[float]:
    order = len(m) - 1
    kappa = [0.0] * (order + 1)
    for n in range(1, order + 1):
        rest = 0.0
        power = [1.0]
        for s in range(1, n):
            power = _poly_mul(power, m, n - s)
            rest += kappa[s] * (power[n - s] if n - s < len(power) else 0.0)
        kappa[n] = m[n] - rest
    return kappa


def free_convolution_cauchy(laws_1d, zs, order: int = 28) -> np.ndarray:
    """G of the free convolution of atomic 1-d laws at large |z|.

    Moments come from adding free cumulants and inverting the non-crossing
    moment-cumulant relation; G(z) = sum_n m_n z^{-n-1} is then summed to
    ``order``, which is exact to rounding when |z| is far beyond the support.
    """
    kappa = [0.0] * (order + 1)
    for points, weights in laws_1d:
        pts = np.asarray(points, dtype=float)
        wts = np.asarray(weights, dtype=float)
        moments = [float((wts * pts**n).sum()) for n in range(order + 1)]
        for n, k in enumerate(_cumulants_from_moments(moments)):
            kappa[n] += k
    m = _moments_from_cumulants(kappa, order)
    zs = np.asarray(zs, dtype=complex)
    return sum(m[n] / zs ** (n + 1) for n in range(order + 1))


# -- planar atomic laws -----------------------------------------------------


def _invert_f_scalar(points, weights, target: complex) -> complex:
    """Root of 1 / sum(w / (x - p)) = target by plain Newton from x = target."""
    x = target
    for _ in range(200):
        g = sum(w / (x - p) for p, w in zip(points, weights))
        gp = -sum(w / (x - p) ** 2 for p, w in zip(points, weights))
        f = 1.0 / g
        step = (f - target) / (-gp / (g * g))
        x -= step
        if abs(step) <= 1e-15 * abs(x):
            break
    return x


def atomic_bi_free_phi(atoms, z: complex, w: complex) -> complex:
    """Two-variable phi of a planar atomic law, with scalar Newton inversions.

    ``atoms`` is a list of ((s, t), weight); marginal atoms are not merged,
    which leaves the transforms unchanged.
    """
    s_pts = [p[0] for p, _ in atoms]
    t_pts = [p[1] for p, _ in atoms]
    wts = [wt for _, wt in atoms]
    i1 = _invert_f_scalar(s_pts, wts, z)
    i2 = _invert_f_scalar(t_pts, wts, w)
    g = sum(wt / ((i1 - s) * (i2 - t)) for s, t, wt in zip(s_pts, t_pts, wts))
    return (i1 - z) / z + (i2 - w) / w + 1.0 - 1.0 / (z * w * g)


# -- stable laws --------------------------------------------------------------


def stable_scale_constant(alpha: float) -> float:
    """C_alpha with integral of (1 - cos(kr)) r^{-1-alpha} dr = C_alpha |k|^alpha."""
    if alpha == 1.0:
        return 0.5 * math.pi
    return math.gamma(1.0 - alpha) * math.cos(0.5 * math.pi * alpha) / alpha


def symmetric_stable_cf(alpha: float, rays, u) -> complex:
    """exp(-sum_rays m C_alpha |<u, omega>|^alpha) for a symmetric circle measure."""
    c = stable_scale_constant(alpha)
    total = 0.0
    for angle, m in rays:
        k = u[0] * math.cos(angle) + u[1] * math.sin(angle)
        total += m * c * abs(k) ** alpha
    return cmath.exp(-total)


def truncated_ray_phi(alpha: float, rays, r_min: float, r_max: float, z: complex, w: complex) -> complex:
    """Levy part of the bi-free phi for rays on [r_min, r_max], 30 digits.

    Integrates zw/((z-s)(w-t)) - 1 - (s/z + t/w)/(1+s^2+t^2) against
    m r^{-1-alpha} dr along each ray with ``mpmath``.
    """
    with mp.workdps(30):
        zz, ww = mp.mpc(z), mp.mpc(w)
        a = mp.mpf(alpha)
        total = mp.mpc(0)
        for angle, m in rays:
            c, s_ = mp.cos(angle), mp.sin(angle)

            def f(r, c=c, s_=s_):
                s, t = r * c, r * s_
                kern = zz * ww / ((zz - s) * (ww - t)) - 1 - (s / zz + t / ww) / (1 + s * s + t * t)
                return kern * r ** (-1 - a)

            total += m * mp.quad(f, [r_min, 1, r_max])
        return complex(total)


def truncated_ray_cf(alpha: float, rays, r_min: float, r_max: float, u) -> complex:
    """Classical CF of the Levy part on [r_min, r_max], 30 digits."""
    with mp.workdps(30):
        a = mp.mpf(alpha)
        expo = mp.mpc(0)
        for angle, m in rays:
            k = mp.mpf(u[0]) * mp.cos(angle) + mp.mpf(u[1]) * mp.sin(angle)

            def f(r, k=k):
                return (mp.expj(k * r) - 1 - 1j * k * r / (1 + r * r)) * r ** (-1 - a)

            expo += m * mp.quad(f, mp.linspace(r_min, r_max, 9))
        return complex(mp.exp(expo))


# -- limit triplets -----------------------------------------------------------


def compound_poisson_limit(jumps):
    """(v, A, tau atoms) of the compound law with Levy atoms ``jumps``.

    ``jumps`` is a list of ((s, t), rate); v is the compensator integral of
    x / (1 + |x|^2) against the Levy measure.
    """
    v1 = sum(m * s / (1.0 + s * s + t * t) for (s, t), m in jumps)
    v2 = sum(m * t / (1.0 + s * s + t * t) for (s, t), m in jumps)
    return (v1, v2), ((0.0, 0.0), (0.0, 0.0)), list(jumps)


def gaussian_limit(a: float, c: float, b: float):
    """(v, A, tau atoms) of a centred Gaussian with covariance [[a, c], [c, b]]."""
    return (0.0, 0.0), ((a, c), (c, b)), []
