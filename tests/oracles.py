"""Independent oracles used by the test suite.

Kept out of the package on purpose: moment computations go through explicit
non-crossing-partition enumeration, densities through direct quadrature, and
radial Levy integrals through 30-digit ``mpmath`` quadrature, so they share
no code path with the transforms they check.  ``integrate`` and ``dirac1d``
are plain references that only the tests need, and the sigma-form loops
(``sigma_form_loop``, ``verify_loop``, ``triplet_loop``) convert one atom at
a time, as the library did before its array maps.  The limit machinery's
row-by-row references (``phi_row``, ``cf_row``, ``bl_values_row`` and the
``*_rows`` runners and reports) work one row's stack at a time, each built
from the row alone (``own_stacks``), and rebuild the reported measures with
``AtomicMeasure2D.from_arrays``, as the library did before it took each
array in one pass per width class.
``damped_newton_loop`` is the damped-Newton loop as it was before its
passes per step were cut (every mask applied, |h| taken twice per
evaluation), the reference for the loop's iterates.
"""

from __future__ import annotations

import functools
import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.integrate import quad

import bifree.limits as lm
from bifree.idlaw import SIGMA_FORM_TOL, CharTriplet, InconsistentSigmaForm, LevyMeasure, SigmaForm
from bifree.measure import AtomicMeasure2D, Matrix2, Measure1D, row_groups, row_stack
from bifree.transforms import bi_free_phi


def dirac1d(a: float) -> Measure1D:
    """Point mass at a on the line."""
    return Measure1D([(float(a), 1.0)])


def integrate(measure, f) -> complex:
    """Sum of mass_k f(x_k) over the atoms, one call per atom; rejects non-finite values.

    ``measure`` is a ``PlanarMeasure`` or ``AtomicMeasure2D`` (f(s, t)) or a
    ``Measure1D`` (f(x)).
    """
    masses = measure.masses if isinstance(measure, AtomicMeasure2D) else measure.weights
    total = 0.0
    for x, m in zip(measure.points, masses):
        val = f(*np.atleast_1d(x))
        if not np.all(np.isfinite([np.real(val), np.imag(val)])):
            raise ValueError(f"integrand not finite at atom {x}")
        total = total + m * val
    return total


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


# -- 1 ^ ||x||^2 of a Levy measure, and the sigma-form atom by atom ---------------


def min_one_norm_sq(levy) -> float:
    """Integral of 1 ^ ||x||^2 against a ``LevyMeasure``: atoms one by one, rays by 30-digit quadrature."""
    total = sum(m * min(1.0, s * s + t * t) for (s, t), m in levy.atoms.atoms())
    rp = levy.radial
    if rp is not None:
        with mp.workdps(30):
            knots = [k for k in (rp.r_min, 1, rp.r_max) if rp.r_min <= k <= rp.r_max]
            ray = mp.quad(lambda r: min(1, r * r) * r ** (-1 - mp.mpf(rp.alpha)), knots)
        total += float(ray) * sum(m for _, m in rp.rays)
    return total


def sigma_form_loop(t):
    """``triplet_to_sigma_form`` as one pass over tau's atoms, one Python float operation at a time."""
    s1 = [((0.0, 0.0), t.A.a)] if t.A.a != 0.0 else []
    s2 = [((0.0, 0.0), t.A.b)] if t.A.b != 0.0 else []
    st = [((0.0, 0.0), t.A.c)] if t.A.c != 0.0 else []
    g1 = t.v[0]
    g2 = t.v[1]
    for (s, tt), m in t.tau.atoms.atoms():
        den1 = 1.0 + s * s
        den2 = 1.0 + tt * tt
        nrm = 1.0 + s * s + tt * tt
        if s != 0.0:
            s1.append(((s, tt), m * s * s / den1))
        if tt != 0.0:
            s2.append(((s, tt), m * tt * tt / den2))
        if s != 0.0 and tt != 0.0:
            st.append(((s, tt), m * s * tt / math.sqrt(den1 * den2)))
        g1 += m * s * tt * tt / (den1 * nrm)
        g2 += m * tt * s * s / (den2 * nrm)
    return SigmaForm(g1, g2, AtomicMeasure2D(s1), AtomicMeasure2D(s2), AtomicMeasure2D(st))


def verify_loop(sf, tol: float = 1e-12) -> None:
    """``SigmaForm.verify`` site by site: three ``mass_at`` reads at every distinct atom."""
    locs = {tuple(p) for p in sf.sigma1.points}
    locs |= {tuple(p) for p in sf.sigma2.points}
    locs |= {tuple(p) for p in sf.sigma_tilde.points}
    for s, t in sorted(locs):
        m1 = sf.sigma1.mass_at((s, t))
        m2 = sf.sigma2.mass_at((s, t))
        mt = sf.sigma_tilde.mass_at((s, t))
        if (s, t) == (0.0, 0.0):
            if mt * mt > m1 * m2 + tol:
                raise InconsistentSigmaForm("origin masses violate Cauchy-Schwarz")
            continue
        lhs1 = t / math.sqrt(1.0 + t * t) * m1
        rhs1 = s / math.sqrt(1.0 + s * s) * mt
        lhs2 = s / math.sqrt(1.0 + s * s) * m2
        rhs2 = t / math.sqrt(1.0 + t * t) * mt
        if abs(lhs1 - rhs1) > tol or abs(lhs2 - rhs2) > tol:
            raise InconsistentSigmaForm(f"relations fail at atom ({s}, {t})")


def triplet_loop(sf):
    """``sigma_form_to_triplet`` atom by atom, with a linear search for each shared atom."""
    verify_loop(sf, tol=SIGMA_FORM_TOL)
    a = sf.sigma1.mass_at((0.0, 0.0))
    b = sf.sigma2.mass_at((0.0, 0.0))
    c = sf.sigma_tilde.mass_at((0.0, 0.0))
    if c * c > a * b + SIGMA_FORM_TOL:
        raise InconsistentSigmaForm("origin masses violate Cauchy-Schwarz")
    tau_atoms = []
    for (s, t), m in sf.sigma1.atoms():
        if (s, t) == (0.0, 0.0):
            continue
        if s == 0.0:
            raise InconsistentSigmaForm("sigma1 charges a point with s = 0 off the origin")
        tau_atoms.append(((s, t), m * (1.0 + s * s) / (s * s)))
    seen = {pt for pt, _ in tau_atoms}
    for (s, t), m in sf.sigma2.atoms():
        if (s, t) == (0.0, 0.0):
            continue
        if t == 0.0:
            raise InconsistentSigmaForm("sigma2 charges a point with t = 0 off the origin")
        mass = m * (1.0 + t * t) / (t * t)
        if (s, t) in seen:
            ref = next(mm for pp, mm in tau_atoms if pp == (s, t))
            if abs(mass - ref) > SIGMA_FORM_TOL * (1.0 + abs(ref)):
                raise InconsistentSigmaForm(f"sigma1/sigma2 disagree at ({s}, {t})")
        else:
            tau_atoms.append(((s, t), mass))
    tau = LevyMeasure(AtomicMeasure2D(tau_atoms))
    v1 = sf.gamma1 - sum(m * s * t * t / ((1.0 + s * s) * (1.0 + s * s + t * t)) for (s, t), m in tau_atoms)
    v2 = sf.gamma2 - sum(m * t * s * s / ((1.0 + t * t) * (1.0 + s * s + t * t)) for (s, t), m in tau_atoms)
    return CharTriplet((v1, v2), Matrix2(a, c, b), tau)


# -- the limit machinery row by row -------------------------------------------


def phi_row(stack, shift, z, w):
    """One row's phi sum at the probes (z, w): one phi call over the laws of its stack."""
    return shift[0] / z + shift[1] / w + bi_free_phi(stack, z, w)


def cf_row(stack, shift, us):
    """One row's CF product at the u-probes (U, 2): one exp over its laws, atoms and probes."""
    law_cf = (stack.weights[..., None] * np.exp(1j * (stack.points @ us.T))).sum(axis=1)
    return np.exp(1j * (us @ np.asarray(shift, dtype=float))) * np.prod(law_cf ** stack.counts[:, None], axis=0)


def bl_values_row(acc):
    """The bounded-Lipschitz family against one row's sigma_1n and sigma_2n, shape (2, 29)."""
    s, t = acc.points[:, 0], acc.points[:, 1]
    ss, tt = s * s, t * t
    out = np.empty((2, 29))
    rational = (1.0 / (1.0 + ss + tt), s / (1.0 + ss), t / (1.0 + tt), s * t / ((1.0 + ss) * (1.0 + tt)))
    out[:, 25:] = [[f @ acc.sigma1 for f in rational], [f @ acc.sigma2 for f in rational]]
    bump_s, bump_t = lm._bumps(s), lm._bumps(t)
    weighted = np.empty_like(bump_s)
    for row, sigma in zip(out, (acc.sigma1, acc.sigma2)):
        row[:25] = (np.multiply(bump_s, sigma, out=weighted) @ bump_t.T).ravel()
    return out


def own_stacks(array):
    """Each row's stack, built from the row alone."""
    return [row_stack(row_groups(row)) for row in array.rows]


def infinitesimality_rows(array):
    """max_k mu_nk({||x|| >= INFINITESIMAL_EPS}), one row's stack at a time."""
    out = []
    for stack in own_stacks(array):
        far = np.hypot(stack.points[..., 0], stack.points[..., 1]) >= lm.INFINITESIMAL_EPS
        out.append(float(np.where(far, stack.weights, 0.0).sum(axis=-1).max()))
    return out


def bi_free_runner_rows(array, probes, reference):
    """``run_bi_free_limit`` with one ``phi_row`` call per row."""
    z, w = np.array(probes, dtype=complex).T
    target = reference.bi_free_phi(z, w)
    return [(len(row), float(np.abs(phi_row(stack, shift, z, w) - target).max()))
            for row, stack, shift in zip(array.rows, own_stacks(array), array.shifts)]


def classical_runner_rows(array, u_probes, reference):
    """``run_classical_limit`` with one ``cf_row`` call per row."""
    us = np.array(u_probes, dtype=float)
    target = reference.classical_cf(us)
    return [(len(row), float(np.abs(cf_row(stack, shift, us) - target).max()))
            for row, stack, shift in zip(array.rows, own_stacks(array), array.shifts)]


def conditions_I_II_rows(array):
    """The I/II report with one ``bl_values_row`` and one lookup per row and column."""
    accs = [rd.acc for rd in array.row_data]
    last = accs[-1]
    bl_steps = lm._bl_steps(np.array([bl_values_row(acc) for acc in accs]))
    escaping = np.array([[acc.above(lm.TIGHT_RADIUS, col) for acc in accs] for col in (last.SIGMA1, last.SIGMA2)])
    gammas = [float(acc.beyond[0, acc.GAMMA]) for acc in accs]
    sizes = array.row_sizes()
    return lm.ConditionReport(
        passed=all(lm._settles(x, sizes) for x in (bl_steps, escaping, lm._gaps(gammas))),
        sigma1=AtomicMeasure2D.from_arrays(last.points, last.sigma1),
        sigma2=AtomicMeasure2D.from_arrays(last.points, last.sigma2),
        gamma=lm.extrapolate_in_inverse_size(gammas, sizes),
        per_n={
            "sigma1_bl_steps": bl_steps[0].tolist(),
            "sigma2_bl_steps": bl_steps[1].tolist(),
            "sigma_escaping_mass": escaping.tolist(),
            "gamma_per_row": gammas,
        },
    )


def conditions_III_IV_rows(array):
    """The III/IV report with each row's own lookups, a lexsort per candidate row and ``from_arrays``."""
    accs = [rd.acc for rd in array.row_data]
    sizes = array.row_sizes()
    all_norms = np.concatenate([acc.norms for acc in accs])
    ladder = [lm._perturb_radius(e, all_norms) for e in lm.EPS_LADDER]
    away = [np.searchsorted(acc.norms, ladder[-1], side="left") for acc in accs]
    lo, hi = np.array([(e, math.inf) for e in ladder]
                      + [(ladder[0], lm._perturb_radius(lm.TIGHT_RADIUS, all_norms))]).T
    annuli = np.array([acc.between(lo, hi) for acc in accs]).T
    candidates = []
    for acc, k in zip(accs[-3:], away[-3:]):
        pts = acc.points[k:]
        candidates.append(pts[np.lexsort((pts[:, 1], pts[:, 0]))])
    sites = lm._atom_sites(np.concatenate(candidates))
    site_masses = np.empty((len(sites), len(accs)))
    for masses, q in zip(site_masses, sites):
        rad = 0.05 * (1.0 + math.hypot(q[0], q[1]))
        masses[:] = [acc.tau[k:][np.linalg.norm(acc.points[k:] - q, axis=1) <= rad].sum() for acc, k in zip(accs, away)]
    quad = np.array([acc.ball_quadratic(lm._DIRECTIONS, ladder) for acc in accs]).transpose(1, 2, 0)
    q_hat = np.array([[lm.extrapolate_in_inverse_size(vals, sizes) for vals in by_rung] for by_rung in quad.tolist()])
    ok = (all(lm._settles(lm._gaps(x), sizes) for x in (annuli, site_masses, quad))
          and lm._settles(lm._gaps(q_hat), 1 / np.array(ladder)))
    a, b, ab = q_hat[:, -1].tolist()
    c = 0.5 * (ab - a - b)
    if a >= 0.0 and b >= 0.0 and c * c > a * b:
        if c * c - a * b < 1e-9 * max(1.0, a * b):
            c = math.copysign(math.sqrt(a * b), c)
        else:
            ok = False
    gammas = [float(acc.beyond[0, acc.GAMMA]) for acc in accs]
    gamma_hat = lm.extrapolate_in_inverse_size(gammas, sizes)
    last, k_last = accs[-1], away[-1]
    tau_hat = LevyMeasure(AtomicMeasure2D.from_arrays(last.points[k_last:], last.tau[k_last:])) if ok else None
    v_rows, v = lm.limit_vector(array)
    return lm.ConditionReport(
        passed=ok,
        gamma=gamma_hat,
        tau_limit=tau_hat,
        A=Matrix2(max(a, 0.0), c, max(b, 0.0)) if ok else None,
        c=gamma_hat - float(last.beyond[k_last, last.GAMMA]) if ok else None,
        v=v,
        Q={lm._key(u): q for u, q in zip(lm._DIRECTIONS, q_hat[:, -1].tolist())},
        per_n={
            "eps_ladder": ladder,
            "annulus_masses": annuli.tolist(),
            "atom_sites": [{"site": q.tolist(), "masses": m} for q, m in zip(sites, site_masses.tolist())],
            "Q_by_eps": {lm._key(u): by_eps for u, by_eps in zip(lm._DIRECTIONS, q_hat.tolist())},
            "v_per_row": [list(x) for x in v_rows],
        },
    )


def damped_newton_loop(h_eval, x, target, tol: float, maxiter: int, fixed_point: bool = False):
    """The reference damped-Newton loop: ``transforms._damped_newton``'s contract,
    with the active mask applied to every step and every proposal, |h| taken
    for the settle test and again for the merit, and the plain mode's settle
    bound and fall-back arrays built at every step."""
    x = np.array(x, dtype=complex)
    sign = np.sign(target.imag)
    if x.ndim > np.ndim(target):  # over the unknowns of each entry
        lead = tuple(range(x.ndim - np.ndim(target)))
        every, some, largest = (functools.partial(f, axis=lead) for f in (np.all, np.any, np.max))
    else:
        every = some = largest = lambda a: a

    def settled(x, h):
        return every(np.abs(h) <= tol * (1.0 + np.abs(x if fixed_point else target)))

    def hyperbolic(x, h):
        return np.abs(h) / np.abs(2j * x.imag + np.conj(h))

    h, step, aux = h_eval(x)
    done = settled(x, h)
    failed = some(~np.isfinite(h))
    merit = largest(hyperbolic(x, h)) if fixed_point else np.zeros(done.shape)
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
            pmerit = largest(hyperbolic(prop, ph)) if fixed_point else merit
            fall_back = newton & (bad | (pmerit >= merit))
            if not (bad | fall_back).any():
                break
            step = np.where(fall_back, -h, np.where(bad, 0.5 * step, step))
            newton &= ~fall_back
        failed |= bad
        x, h, step, merit, aux = prop, ph, pstep, pmerit, paux
        done |= act & ~bad & settled(x, h)
    return x, aux, done
