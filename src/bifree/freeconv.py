"""Free additive convolution of laws on the line, by subordination.

A :class:`FreeConvRep` stores the terms of a free convolution: distinct
atomic laws with their counts, infinitely divisible laws as plain callables
z -> (phi, phi') (a triplet marginal is
``functools.partial(triplet.marginal_phi_dphi, axis)``) and a shift.  Its
Voiculescu transform phi is the count-weighted sum of the terms' phis plus
the shift; :meth:`FreeConvRep.phi` evaluates it inside the working cone by
inverting each distinct atomic F there once.

F of the convolution needs no inversion at all (Belinschi-Bercovici, J.
Anal. Math. 101, 2007).  With z = zeta - shift, h_j = F_j - id for the
atomic laws mu_j with counts c_j, and phi_ID the summed phi of the infinitely
divisible terms (analytic on C+ with Im phi_ID <= 0; Bercovici-Voiculescu,
Indiana Univ. Math. J. 42, 1993), F(zeta) = F_1(omega_1).  The c_j copies of
mu_j share one subordination function omega_j, so law 1 contributes
a(w) = z + (c_1 - 1) h_1(w) (for mu^{boxplus c} alone, omega = z/c +
(1 - 1/c) F_mu(omega); Belinschi-Bercovici, Math. Z. 248, 2004), and omega_1
is the fixed point of a map T sending C+ into {Im w >= Im z}:

- no atomic law: T(w) = z - phi_ID(w), and F is the fixed point itself;
- one: T(w) = a - phi_ID(F_1(w));
- two, the second once: T(w) = a + s_2(a + s_1(w)), with
  s_j(v) = h_j(v) - phi_ID(F_j(v));
- otherwise: T(w) = a + h_rest(z + c_1 h_1(w)), where h_rest of the
  convolution of the rest, with its counts, comes from the same solve.

The laws are numbered by descending count, ties in the given order, so two
laws of which one is counted once take the two-law map in either order.

Every added term has Im >= 0 on C+, so each T keeps that range, and the
nesting deepens once per distinct law, not once per copy.  Such a T has at
most one fixed point in C+ (Schwarz-Pick), so an iterate that settles in the
upper half-plane is on the right branch: there is no cone, ladder or branch
choice.  Newton steps on w - T(w), with T' in closed form, accelerate the
plain iteration w <- T(w), which converges from every start and takes over
wherever a Newton step would not bring w and T(w) closer in the hyperbolic
metric (``transforms._damped_newton``).  Each point stops once
|w - T(w)| <= 1e-13 (1 + |w|).  Lower half-plane points are solved at their
conjugates, since F commutes with conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measure import Measure1D
from .transforms import (
    NoConvergence,
    _damped_newton,
    _require_nonreal,
    newton_f_inverse,
)

FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAXITER = 200


def _h_and_deriv(points: np.ndarray, weights: np.ndarray, wp: np.ndarray, x: np.ndarray):
    """(h, h') of an atomic law, h = F - id = -sum(w p / (x - p)) / sum(w / (x - p)).

    ``wp`` is weights * points.  The quotient form has no cancellation
    between F and x at large |x|.
    """
    inv = 1.0 / (x[..., None] - points)
    g = inv @ weights
    return -(inv @ wp) / g, ((inv * inv) @ weights) / (g * g) - 1.0


def _phi_prime(hp):
    """phi'(F_j(v)) = 1 / F_j'(v) - 1 of a law with h_j'(v) = hp."""
    return -hp / (1.0 + hp)


def _subordinate(z: np.ndarray, laws: Sequence[Measure1D], counts: Sequence[int], id_phi):
    """h = F - z and h' = F' - 1 of the convolution at z in C+, with the omegas.

    ``laws`` are the distinct atomic operands, ``counts`` their
    multiplicities, and ``id_phi(x) -> (phi, phi')`` the summed phi of the
    infinitely divisible ones, or None.  Returns ``(h, h', omegas,
    converged)``; ``omegas[j]`` is omega_j with F_j(omega_j) = F(z), shared
    by the copies of law j, and entries that did not settle are nan.  The
    solve takes the laws by descending count (a stable sort); the omegas
    come back in the given order.
    """
    n = len(laws)
    order = sorted(range(n), key=lambda j: -counts[j])
    laws, counts = [laws[j] for j in order], [counts[j] for j in order]
    zero = np.zeros_like(z)
    if n == 0 and id_phi is None:
        return zero, zero, [], np.ones(z.shape, bool)
    cols = [(m.points, m.weights, m.weights * m.points) for m in laws]
    c1 = counts[0] if n else 1

    def step(j, v):
        """s_j(v) = h_j(v) - phi_ID(F_j(v)), s_j', h_j, h_j' and phi_ID'(F_j(v))."""
        h, hp = _h_and_deriv(*cols[j], v)
        if id_phi is None:
            return h, hp, h, hp, zero
        p, dp = id_phi(v + h)
        return h - p, hp - dp * (1.0 + hp), h, hp, dp

    def lead(h1, hp1):
        """a = z + (c_1 - 1) h_1(w), the other copies of law 1, and a'; z and 0 at c_1 = 1."""
        return (z, 0.0) if c1 == 1 else (z + (c1 - 1) * h1, (c1 - 1) * hp1)

    # each t_eval returns T(w), T'(w) and [h_1(w), phi_ID'(F_1(w)), h_1'(w),
    # h_rest'(omega_rest), omega_rest...]; F = w + h_1(w) at the fixed point
    # (h_1 = 0 without atomic terms), and phi'(F) sums over the terms there;
    # T' skips a' = 0 at c_1 = 1, so a law counted once costs what it did
    if n == 0:

        def t_eval(w):
            p, dp = id_phi(w)
            return z - p, -dp, [zero, dp]

    elif n == 1:

        def t_eval(w):
            s, _, h, hp, dp = step(0, w)  # s - h = -phi_ID(F_1(w))
            a, da = lead(h, hp)
            return a + (s - h), da - dp * (1.0 + hp), [h, dp, hp]

    elif n == 2 and counts[1] == 1:

        def t_eval(w):
            s1, ds1, h1, hp1, _ = step(0, w)
            a, da = lead(h1, hp1)
            om2 = a + s1
            s2, ds2, _, hp2, dp = step(1, om2)
            return a + s2, ds2 * ds1 if c1 == 1 else da + ds2 * (da + ds1), [h1, dp, hp1, hp2, om2]

    else:

        def t_eval(w):
            h1, hp1 = _h_and_deriv(*cols[0], w)
            a, da = lead(h1, hp1)
            v = a + h1
            # the rest is only defined on C+; a proposal that leaves it gets nan
            up = v.imag > 0
            hr, hpr, inner, _ = _subordinate(np.where(up, v, z), laws[1:], counts[1:], id_phi)
            dt = hpr * hp1 if c1 == 1 else da + hpr * (da + hp1)
            return np.where(up, a + hr, np.nan), dt, [h1, zero, hp1, hpr, *inner]

    def residual(w):
        t, dt, by = t_eval(w)
        return w - t, 1.0 - dt, by

    w, (h1, dp, *rest), ok = _damped_newton(
        residual, z + 2j, z, tol=FIXED_POINT_TOL, maxiter=FIXED_POINT_MAXITER, fixed_point=True
    )
    hps, rest = rest[: min(n, 2)], rest[min(n, 2):]
    dphi = dp + sum(k * _phi_prime(hp) for k, hp in zip((c1, 1), hps))
    h = (w - z) + h1
    hp = _phi_prime(dphi)  # F' = 1 / (1 + phi'(F))
    solved = [w, *rest] if n else []
    omegas = [solved[k] for k in sorted(range(n), key=order.__getitem__)]  # in the given order
    if not ok.all():
        h, hp = np.where(ok, h, np.nan), np.where(ok, hp, np.nan)
        omegas = [np.where(ok, o, np.nan) for o in omegas]
    return h, hp, omegas, ok


@dataclass(frozen=True)
class FreeConvRep:
    """Lazy representation of a free convolution: phi = sum of term phis + shift.

    ``laws`` are distinct atomic laws (no two byte-equal, none a point
    mass) and ``counts`` their multiplicities; ``ids`` are infinitely
    divisible laws as callables ``z -> (phi, phi')``, each one pass over
    its law; ``shift`` adds the constant phi of a point mass.  phi is
    ``sum(counts[j] phi_j) + sum(phi_ID) + shift``.
    """

    laws: tuple
    counts: tuple
    ids: tuple
    shift: float

    def phi(self, z):
        """phi of the representation at z (z within the working cone)."""
        z = np.asarray(z, dtype=complex)
        total = np.full(z.shape, complex(self.shift))
        for m, k in zip(self.laws, self.counts):
            root, ok = newton_f_inverse(m.points, m.weights, z, z)
            total = total + k * np.where(ok, root - z, np.nan)
        for t in self.ids:
            total = total + t(z)[0]
        if not np.all(np.isfinite(total)):
            raise NoConvergence("phi evaluation failed; move deeper into the cone")
        return complex(total) if total.ndim == 0 else total

    def _id_phi(self):
        """Summed (phi, phi') of the infinitely divisible terms, or None."""
        if not self.ids:
            return None

        def id_phi(x):
            p, dp = self.ids[0](x)
            for t in self.ids[1:]:
                q, dq = t(x)
                p, dp = p + q, dp + dq
            return p, dp

        return id_phi

    def f_value(self, zeta, return_aux: bool = False):
        """F(zeta), by subordination; zeta is non-real, of any shape.

        With ``return_aux`` also returns one array per distinct law, then one
        per infinitely divisible term: omega_j = F_j^{-1}(F(zeta)) on the
        branch that F_j maps onto F, which is the subordination function
        itself for an atomic law (one for all its copies) and F + phi_j(F)
        for an infinitely divisible term.  Raises :class:`NoConvergence` when
        an entry does not settle.
        """
        zeta = np.asarray(zeta, dtype=complex)
        _require_nonreal(zeta, "zeta")
        lower = zeta.imag < 0

        def reflect(a):
            """Conjugate the entries where zeta lies in the lower half-plane."""
            return np.where(lower, np.conj(a), a) if lower.any() else a

        z = reflect(zeta) - self.shift
        h, _, omegas, ok = _subordinate(z.ravel(), self.laws, self.counts, self._id_phi())
        if not ok.all():
            raise NoConvergence(
                f"subordination did not settle at {(~ok).sum()} of {ok.size} points"
            )
        out = reflect(z + h.reshape(z.shape))
        if not return_aux:
            return out
        aux = [reflect(om.reshape(z.shape)) for om in omegas]
        return out, aux + [out + t(out)[0] for t in self.ids]

    def cauchy(self, zeta):
        """G of the convolution: 1 / F(zeta)."""
        val = 1.0 / self.f_value(zeta)
        return complex(val) if np.ndim(val) == 0 else val

    def density(self, axis, eps: float) -> np.ndarray:
        """eps-smoothed density on the axis: -Im G(s + i eps) / pi by subordination."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        axis = np.asarray(axis, dtype=float)
        g = self.cauchy(axis + 1j * eps)
        return -np.asarray(g).imag / np.pi


def free_convolve(nu1: Measure1D, nu2: Measure1D) -> FreeConvRep:
    """Representation of nu1 boxplus nu2."""
    return free_convolve_many([nu1, nu2])


def free_convolve_many(laws: Sequence[Measure1D], ids: Sequence = (), shift: float = 0.0) -> FreeConvRep:
    """Representation of the free convolution of atomic laws, infinitely
    divisible laws ``ids`` (callables z -> (phi, phi')) and the point mass
    at ``shift``."""
    return _grouped([(m, 1) for m in laws], ids, shift)[0]


def _grouped(pairs, ids: Sequence, shift: float) -> tuple[FreeConvRep, list]:
    """The rep of laws given with counts, plus where each pair went.

    Byte-equal laws are one law, in first-seen order, with their counts
    summed; point masses are folded into the shift.  The slot of a pair is
    the index of its law in ``laws``, or None for a point mass.
    """
    index: dict[tuple[bytes, bytes], int] = {}
    laws, counts, slots = [], [], []
    shift = float(shift)
    for m, count in pairs:
        if len(m) == 1:
            shift += count * float(m.points[0])
            slots.append(None)
            continue
        k = index.setdefault((m.points.tobytes(), m.weights.tobytes()), len(laws))
        if k == len(laws):
            laws.append(m)
            counts.append(0)
        counts[k] += count
        slots.append(k)
    return FreeConvRep(tuple(laws), tuple(counts), tuple(ids), shift), slots
