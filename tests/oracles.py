"""Independent oracles used by the test suite.

Kept out of the package on purpose: moment computations go through explicit
non-crossing-partition enumeration, densities through direct quadrature, and
radial Levy integrals through 30-digit ``mpmath`` quadrature, so they share
no code path with the transforms they check.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.integrate import quad


@lru_cache(maxsize=None)
def nc_block_sizes(n: int) -> tuple[tuple[int, ...], ...]:
    """All non-crossing partitions of an n-point line, as block-size tuples.

    The block containing the first point splits the remaining points into
    independent gaps, which is exactly the non-crossing condition.
    """
    if n == 0:
        return ((),)
    acc: list[tuple[int, ...]] = []

    def extend(remaining: int, gaps: list[int]):
        # close the first block here: gaps between its members, then the tail
        combos: list[tuple[int, ...]] = [()]
        for g in gaps + [remaining]:
            combos = [c + o for c in combos for o in nc_block_sizes(g)]
        size = len(gaps) + 1
        for c in combos:
            acc.append((size,) + c)
        # or put one more member into the first block after a gap of g points
        for g in range(remaining):
            extend(remaining - g - 1, gaps + [g])

    extend(n - 1, [])
    return tuple(acc)


def moments_from_free_cumulants(kappa: dict[int, float], order: int) -> list[float]:
    """m_n = sum over non-crossing partitions of products of block cumulants."""
    out = []
    for n in range(1, order + 1):
        total = 0.0
        for sizes in nc_block_sizes(n):
            prod = 1.0
            for b in sizes:
                prod *= kappa.get(b, 0.0)
            total += prod
        out.append(total)
    return out


def free_cumulants_from_moments(moments: list[float]) -> dict[int, float]:
    """Invert the moment relation order by order."""
    kappa: dict[int, float] = {}
    for n in range(1, len(moments) + 1):
        rest = 0.0
        for sizes in nc_block_sizes(n):
            if sizes == (n,):
                continue
            prod = 1.0
            for b in sizes:
                prod *= kappa.get(b, 0.0)
            rest += prod
        kappa[n] = moments[n - 1] - rest
    return kappa


def atomic_moments(points, weights, order: int) -> list[float]:
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return [float((weights * points**n).sum()) for n in range(1, order + 1)]


def cauchy_kernel(x: np.ndarray, eps: float) -> np.ndarray:
    return eps / (np.pi * (x * x + eps * eps))


def smoothed_arcsine(s: float, eps: float) -> float:
    """Cauchy-smoothed arcsine law on [-2, 2], by direct quadrature.

    Substituting x = 2 sin(theta) removes the edge singularities.
    """
    val, _ = quad(
        lambda th: cauchy_kernel(np.array(s - 2.0 * np.sin(th)), eps)[()] / np.pi,
        -np.pi / 2.0,
        np.pi / 2.0,
        epsabs=1e-12,
        epsrel=1e-11,
        limit=200,
    )
    return val


def smoothed_atoms_1d(points, weights, axis: np.ndarray, eps: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    out = np.zeros_like(axis)
    for p, w in zip(points, weights):
        out += w * cauchy_kernel(axis - p, eps)
    return out


def smoothed_atoms_2d(atoms, s_axis: np.ndarray, t_axis: np.ndarray, eps: float) -> np.ndarray:
    """Closed-form planar smoothing: product Cauchy kernel per atom."""
    s_axis = np.asarray(s_axis, dtype=float)
    t_axis = np.asarray(t_axis, dtype=float)
    out = np.zeros((len(s_axis), len(t_axis)))
    for (s0, t0), w in atoms:
        out += w * np.outer(cauchy_kernel(s_axis - s0, eps), cauchy_kernel(t_axis - t0, eps))
    return out


def richardson_limit(values, steps) -> complex:
    """Neville extrapolation of values(h) to h = 0."""
    xs = [float(h) for h in steps]
    p = list(values)
    k = len(p)
    for j in range(1, k):
        for i in range(k - j):
            p[i] = (xs[i + j] * p[i] - xs[i] * p[i + 1]) / (xs[i + j] - xs[i])
    return p[0]


# -- radial Levy integrals on a ray, 30 digits ---------------------------------


def _mp_ray(g, h, alpha, knots, r_min=0, r_max=mp.inf):
    """integral of g(r) r^{-1-alpha} dr over [r_min, r_max] at the working precision.

    r = v^{1/(2-alpha)} below the first knot and u = r^{-alpha} beyond the
    last one leave bounded integrands, so tanh-sinh keeps its accuracy at
    both ends; plain ``mp.quad`` on [0, inf) loses up to four digits here.
    ``h`` is g(r)/r^2 in a cancellation-free form; ``knots`` are pole
    moduli (and, for poles near the positive axis, points around them)
    and split the middle range.
    """
    a = mp.mpf(alpha)
    lo, hi = min(knots) / 4, max(knots) * 4
    p = 2 - a
    total = mp.mpf(0)
    if r_min < lo:
        total += mp.quad(lambda v: h(v ** (1 / p)) / p, [mp.mpf(r_min) ** p, min(lo, r_max) ** p])
    start, stop = max(lo, r_min), min(hi, r_max)
    if start < stop:
        pts = [start] + sorted(x for x in knots if start < x < stop) + [stop]
        total += mp.quad(lambda r: g(r) * r ** (-1 - a), pts)
    if r_max > hi:
        total += mp.quad(lambda u: g(u ** (-1 / a)) / a, [mp.mpf(r_max) ** (-a), max(hi, r_min) ** (-a)])
    return total


def _knots(*cs):
    """Pole moduli 1/|c|, 1, and around a pole within 1% of the positive axis, points
    at 1, 10 and 100 times its height either side, where tanh-sinh resolves it."""
    out = [mp.mpf(1)]
    for c in cs:
        if c == 0:
            continue
        p = 1 / c
        out.append(abs(p))
        if p.real > 0 and abs(p.imag) < p.real / 100:
            out += [p.real + s * j * abs(p.imag) for s in (-1, 1) for j in (1, 10, 100) if p.real + s * j * abs(p.imag) > 0]
    return out


def mp_ray_phi(alpha: float, omega, z: complex, w: complex, r_min=0, r_max=mp.inf) -> complex:
    """Bi-free Levy integral of one unit-mass ray along ``omega`` on [r_min, r_max].

    The kernel zw/((z-s)(w-t)) - 1 - (s/z + t/w)/(1+r^2) at (s, t) = r omega,
    written with c1 = omega1/z, c2 = omega2/w.
    """
    with mp.workdps(30):
        c1, c2 = mp.mpf(omega[0]) / mp.mpc(z), mp.mpf(omega[1]) / mp.mpc(w)

        def h(r):
            one = 1 + r * r
            return (c1 * (r + c1) / ((1 - c1 * r) * one) + c2 * (r + c2) / ((1 - c2 * r) * one)
                    + c1 * c2 / ((1 - c1 * r) * (1 - c2 * r)))

        return complex(_mp_ray(lambda r: h(r) * r * r, h, alpha, _knots(c1, c2), r_min, r_max))


def mp_ray_marginal_phi(alpha: float, om: float, z: complex, r_min=0, r_max=mp.inf) -> complex:
    """Free Levy integral of zs/(z-s) - s/(1+r^2) along one ray, s = r om."""
    with mp.workdps(30):
        zz = mp.mpc(z)
        c = mp.mpf(om) / zz

        def h(r):
            return zz * c * (r + c) / ((1 - c * r) * (1 + r * r))

        return complex(_mp_ray(lambda r: h(r) * r * r, h, alpha, _knots(c), r_min, r_max))


def mp_ray_marginal_dphi(alpha: float, om: float, z: complex, r_min=0, r_max=mp.inf) -> complex:
    """z-derivative of :func:`mp_ray_marginal_phi`: integral of -s^2/(z-s)^2."""
    with mp.workdps(30):
        c = mp.mpf(om) / mp.mpc(z)

        def h(r):
            return -c * c / (1 - c * r) ** 2

        return complex(_mp_ray(lambda r: h(r) * r * r, h, alpha, _knots(c), r_min, r_max))


def mp_ray_cf(alpha: float, k: float) -> complex:
    """integral of e^{ikr} - 1 - ikr/(1+r^2) against r^{-1-alpha} dr on (0, inf).

    As :func:`_mp_ray` on a full ray, except that the oscillatory tail e^{ikr} goes
    to ``mp.quadosc`` and only its non-oscillatory rest takes u = r^{-alpha}.
    """
    with mp.workdps(30):
        a, k = mp.mpf(alpha), mp.mpf(k)

        def h(r):
            x = 1j * k * r
            if abs(x) < mp.mpf("1e-4"):  # e^x - 1 - x by its series
                e1 = sum(x**n / mp.factorial(n) for n in range(2, 12))
            else:
                e1 = mp.exp(x) - 1 - x
            return e1 / (r * r) + 1j * k * r / (1 + r * r)

        lo, hi = min(1, 1 / abs(k)) / 4, 4 * max(1, 1 / abs(k))
        p = 2 - a
        total = mp.quad(lambda v: h(v ** (1 / p)) / p, [0, lo**p])
        total += mp.quad(lambda r: h(r) * r ** (1 - a), [lo, 1, hi])
        total += mp.quadosc(lambda r: mp.expj(k * r) * r ** (-1 - a), [hi, mp.inf], omega=abs(k))
        total += mp.quad(lambda u: (-1 - 1j * k * u ** (-1 / a) / (1 + u ** (-2 / a))) / a, [0, hi ** (-a)])
        return complex(total)


def mp_truncated_ray_phi(alpha, rays, r_min, r_max, z, w) -> complex:
    """Bi-free Levy integral of ``rays`` ((angle, mass) pairs) on [r_min, r_max] > 0."""
    with mp.workdps(30):
        zz, ww, a = mp.mpc(z), mp.mpc(w), mp.mpf(alpha)
        total = mp.mpc(0)
        for angle, m in rays:
            c, s_ = mp.cos(angle), mp.sin(angle)

            def f(r, c=c, s_=s_):
                s, t = r * c, r * s_
                kern = zz * ww / ((zz - s) * (ww - t)) - 1 - (s / zz + t / ww) / (1 + r * r)
                return kern * r ** (-1 - a)

            total += m * mp.quad(f, [r_min, 1, r_max])
        return complex(total)


def mp_truncated_ray_cf(alpha, rays, r_min, r_max, u) -> complex:
    """Classical CF of the Levy part on [r_min, r_max] > 0."""
    with mp.workdps(30):
        a = mp.mpf(alpha)
        expo = mp.mpc(0)
        for angle, m in rays:
            k = mp.mpf(u[0]) * mp.cos(angle) + mp.mpf(u[1]) * mp.sin(angle)

            def f(r, k=k):
                return (mp.expj(k * r) - 1 - 1j * k * r / (1 + r * r)) * r ** (-1 - a)

            expo += m * mp.quad(f, mp.linspace(r_min, r_max, 9))
        return complex(mp.exp(expo))


def mp_ray_cf_on(alpha: float, k: float, r_min, r_max=mp.inf) -> complex:
    """integral of e^{ikr} - 1 - ikr/(1+r^2) against r^{-1-alpha} dr over [r_min, r_max].

    Up to b = 1/|k| (clipped into the ray) by ``mp.quad`` in v = r^{2-alpha};
    beyond b term by term: e^{ikr} through ``mp.gammainc``, as
    (-ik)^alpha [Gamma(-alpha, -ikb) - Gamma(-alpha, -ik r_max)], the -1 exactly,
    and the compensator by ``mp.quad`` in u = 1/r.
    """
    with mp.workdps(30):
        a, k = mp.mpf(alpha), mp.mpf(k)
        r_min, r_max = mp.mpf(r_min), mp.mpf(r_max)

        def h(r):
            x = 1j * k * r
            if abs(x) < mp.mpf("1e-4"):
                e1 = sum(x**n / mp.factorial(n) for n in range(2, 12))
            else:
                e1 = mp.exp(x) - 1 - x
            return e1 / (r * r) + 1j * k * r / (1 + r * r)

        b = min(max(1 / abs(k), r_min), r_max)
        p = 2 - a
        total = mp.mpc(0)
        if b > r_min:
            total += mp.quad(lambda v: h(v ** (1 / p)) / p, [r_min**p] + ([1] if r_min < 1 < b else []) + [b**p])
        if b < r_max:
            upper = mp.gammainc(-a, -1j * k * b) if mp.isinf(r_max) else mp.gammainc(-a, -1j * k * b, -1j * k * r_max)
            total += (-1j * k) ** a * upper
            total -= (b**-a - (0 if mp.isinf(r_max) else r_max**-a)) / a
            lo_u = 0 if mp.isinf(r_max) else 1 / r_max
            total -= 1j * k * mp.quad(lambda u: u**a / (1 + u * u), [lo_u] + ([1] if lo_u < 1 < 1 / b else []) + [1 / b])
        return complex(total)


def mp_ray_drift(alpha: float, r_min, r_max=mp.inf) -> float:
    """integral of r^{-alpha}/(1+r^2) dr over [r_min, r_max].

    Below 1, v = r^{1-alpha} (alpha < 1) or x = log r (r_min > 0) leaves a
    bounded integrand; plain ``mp.quad`` misses most of r^{-alpha} near 0
    as alpha -> 1.
    """
    with mp.workdps(30):
        a, r_min, r_max = mp.mpf(alpha), mp.mpf(r_min), mp.mpf(r_max)
        total = mp.mpf(0)
        cut = min(r_max, 1)
        if r_min < cut:
            if r_min == 0:
                p = 1 - a
                total += mp.quad(lambda v: 1 / (p * (1 + v ** (2 / p))), [0, cut**p])
            else:
                total += mp.quad(lambda x: mp.exp((1 - a) * x) / (1 + mp.exp(2 * x)), [mp.log(r_min), mp.log(cut)])
        if r_max > 1:
            total += mp.quad(lambda r: r**-a / (1 + r * r), [max(r_min, 1), r_max])
        return float(total)


# -- free convolution of atomic laws, 30 digits --------------------------------


def mp_free_convolution_f(laws, zeta: complex, dps: int = 30, max_sweeps: int = 100000) -> complex:
    """F of the free convolution of atomic laws ((points, weights) pairs) at zeta.

    Sweeps the n-term subordination system omega_j = zeta + sum over k != j
    of h_k(omega_k), with h_k = F_k - id, Gauss-Seidel style from
    omega_j = zeta + i sign(Im zeta), at ``dps`` digits, until no omega moves
    by more than 10^(5 - dps) relative; then F = F_1(omega_1).  Plain sweeps
    only: no Newton step, no nesting and no pairwise fold.
    """
    with mp.workdps(dps):
        z = mp.mpc(zeta)
        laws = [([mp.mpf(p) for p in pts], [mp.mpf(w) for w in wts]) for pts, wts in laws]

        def h(law, x):
            pts, wts = law
            return 1 / sum(w / (x - p) for p, w in zip(pts, wts)) - x

        start = z + mp.mpc(0, 1 if zeta.imag > 0 else -1)
        omegas = [start for _ in laws]
        hs = [h(law, start) for law in laws]
        goal = mp.mpf(10) ** (5 - dps)
        for _ in range(max_sweeps):
            moved = 0
            for j, law in enumerate(laws):
                new = z + sum(hk for k, hk in enumerate(hs) if k != j)
                moved = max(moved, abs(new - omegas[j]) / (1 + abs(new)))
                omegas[j], hs[j] = new, h(law, new)
            if moved <= goal:
                return complex(omegas[0] + hs[0])
        raise ArithmeticError(f"n-term sweeps did not settle at {zeta}")
