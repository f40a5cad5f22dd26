"""Free additive convolution of laws on the line, by subordination.

A :class:`FreeConvRep` stores the terms of a free convolution: atomic laws
(:class:`AtomicPhiTerm`), phi-evaluators of infinitely divisible laws (the
triplet marginals) and a shift.  Its Voiculescu transform phi is the sum of
the terms' phis plus the shift; :meth:`FreeConvRep.phi` evaluates it inside
the working cone by inverting each atomic F there.

F of the convolution needs no inversion at all (Belinschi-Bercovici, J.
Anal. Math. 101, 2007).  With z = zeta - shift, h_j = F_j - id for the
atomic laws mu_j, and phi_ID the summed phi of the infinitely divisible terms
(analytic on C+ with Im phi_ID <= 0; Bercovici-Voiculescu, Indiana Univ.
Math. J. 42, 1993), F(zeta) = F_1(omega_1), where omega_1 is the fixed point
of a map T sending C+ into {Im w >= Im z}:

- no atomic term: T(w) = z - phi_ID(w), and F is the fixed point itself;
- one: T(w) = z - phi_ID(F_1(w));
- two: T(w) = z + s_2(z + s_1(w)), with s_j(v) = h_j(v) - phi_ID(F_j(v));
- more: the two-term map for mu_1 against the convolution of the rest, whose
  h comes from the same solve, nested.

Such a T has at most one fixed point in C+ (Schwarz-Pick), so an iterate
that settles in the upper half-plane is on the right branch: there is no
cone, ladder or branch choice.  Newton steps on w - T(w), with T' in closed
form, accelerate the plain iteration w <- T(w), which converges from every
start and takes over wherever a Newton step would not bring w and T(w)
closer in the hyperbolic metric (``transforms._damped_newton``).  Each
point stops once |w - T(w)| <= 1e-13 (1 + |w|).  Lower half-plane points are
solved at their conjugates, since F commutes with conjugation.
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


class AtomicPhiTerm:
    """phi evaluator backed by an atomic law."""

    __slots__ = ("measure",)

    def __init__(self, measure: Measure1D):
        self.measure = measure

    def phi_dphi(self, z: np.ndarray):
        """(phi(z), phi'(z)), with nan entries where the inversion fails."""
        root, fp, ok = newton_f_inverse(self.measure.points, self.measure.weights, z, z)
        phi = np.where(ok, root - z, np.nan)
        dphi = np.where(ok, 1.0 / fp - 1.0, np.nan)
        return phi, dphi


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


def _subordinate(z: np.ndarray, laws: Sequence[Measure1D], id_phi):
    """h = F - z and h' = F' - 1 of the convolution at z in C+, with the omegas.

    ``laws`` are the atomic operands and ``id_phi(x) -> (phi, phi')`` the
    summed phi of the infinitely divisible ones, or None.  Returns
    ``(h, h', omegas, converged)``; ``omegas[j]`` is omega_j with
    F_j(omega_j) = F(z), and entries that did not settle are nan.
    """
    n = len(laws)
    zero = np.zeros_like(z)
    if n == 0 and id_phi is None:
        return zero, zero, [], np.ones(z.shape, bool)
    cols = [(m.points, m.weights, m.weights * m.points) for m in laws]

    def step(j, v):
        """s_j(v) = h_j(v) - phi_ID(F_j(v)), s_j', h_j, h_j' and phi_ID'(F_j(v))."""
        h, hp = _h_and_deriv(*cols[j], v)
        if id_phi is None:
            return h, hp, h, hp, zero
        p, dp = id_phi(v + h)
        return h - p, hp - dp * (1.0 + hp), h, hp, dp

    # each t_eval returns T(w), T'(w) and [h_1(w), phi_ID'(F_1(w)), h_1'(w),
    # h_rest'(omega_rest), omega_rest...]; F = w + h_1(w) at the fixed point
    # (h_1 = 0 without atomic terms), and phi'(F) sums over the terms there
    if n == 0:

        def t_eval(w):
            p, dp = id_phi(w)
            return z - p, -dp, [zero, dp]

    elif n == 1:

        def t_eval(w):
            s, _, h, hp, dp = step(0, w)  # s - h = -phi_ID(F_1(w))
            return z + (s - h), -dp * (1.0 + hp), [h, dp, hp]

    elif n == 2:

        def t_eval(w):
            s1, ds1, h1, hp1, _ = step(0, w)
            om2 = z + s1
            s2, ds2, _, hp2, dp = step(1, om2)
            return z + s2, ds2 * ds1, [h1, dp, hp1, hp2, om2]

    else:

        def t_eval(w):
            h1, hp1 = _h_and_deriv(*cols[0], w)
            v = z + h1
            # the rest is only defined on C+; a proposal that leaves it gets nan
            up = v.imag > 0
            hr, hpr, inner, _ = _subordinate(np.where(up, v, z), laws[1:], id_phi)
            return np.where(up, z + hr, np.nan), hpr * hp1, [h1, zero, hp1, hpr, *inner]

    def residual(w, aux):
        t, dt, by = t_eval(w)
        return w - t, 1.0 - dt, by

    w, _, (h1, dp, *rest), ok = _damped_newton(
        residual, z + 2j, z, tol=FIXED_POINT_TOL, maxiter=FIXED_POINT_MAXITER, fixed_point=True
    )
    hps, rest = rest[: min(n, 2)], rest[min(n, 2):]
    dphi = dp + sum(_phi_prime(hp) for hp in hps)
    h = (w - z) + h1
    hp = _phi_prime(dphi)  # F' = 1 / (1 + phi'(F))
    omegas = [w, *rest] if n else []
    if not ok.all():
        h, hp = np.where(ok, h, np.nan), np.where(ok, hp, np.nan)
        omegas = [np.where(ok, o, np.nan) for o in omegas]
    return h, hp, omegas, ok


@dataclass(frozen=True)
class FreeConvRep:
    """Lazy representation of a free convolution: phi = sum of term phis + shift.

    ``terms`` are :class:`AtomicPhiTerm` objects and phi-evaluators of
    infinitely divisible laws, exposing ``phi_dphi(z) -> (phi, phi')``;
    ``shift`` adds the constant phi of a point mass.
    """

    terms: tuple
    shift: float

    def phi(self, z):
        """phi of the representation at z (z within the working cone)."""
        z = np.asarray(z, dtype=complex)
        total = np.full(z.shape, complex(self.shift))
        for t in self.terms:
            p, _ = t.phi_dphi(z)
            if not np.all(np.isfinite(p)):
                raise NoConvergence("phi evaluation failed; move deeper into the cone")
            total = total + p
        return complex(total) if total.ndim == 0 else total

    def _id_phi(self):
        """Summed (phi, phi') of the infinitely divisible terms, or None."""
        ids = [t for t in self.terms if not isinstance(t, AtomicPhiTerm)]
        if not ids:
            return None

        def id_phi(x):
            p, dp = ids[0].phi_dphi(x)
            for t in ids[1:]:
                q, dq = t.phi_dphi(x)
                p, dp = p + q, dp + dq
            return p, dp

        return id_phi

    def f_value(self, zeta, return_aux: bool = False):
        """F(zeta), by subordination; zeta is non-real, of any shape.

        With ``return_aux`` also returns one array per term: omega_j =
        F_j^{-1}(F(zeta)) on the branch that F_j maps onto F, which is the
        subordination function itself for an atomic term and F + phi_j(F)
        for an infinitely divisible one.  Raises :class:`NoConvergence` when
        an entry does not settle.
        """
        zeta = np.asarray(zeta, dtype=complex)
        _require_nonreal(zeta, "zeta")
        lower = zeta.imag < 0

        def reflect(a):
            """Conjugate the entries where zeta lies in the lower half-plane."""
            return np.where(lower, np.conj(a), a) if lower.any() else a

        z = reflect(zeta) - self.shift
        atomic = [t.measure for t in self.terms if isinstance(t, AtomicPhiTerm)]
        h, _, omegas, ok = _subordinate(z.ravel(), atomic, self._id_phi())
        if not ok.all():
            raise NoConvergence(
                f"subordination did not settle at {(~ok).sum()} of {ok.size} points"
            )
        out = reflect(z + h.reshape(z.shape))
        if not return_aux:
            return out
        atomic_omegas = iter(omegas)
        aux = []
        for t in self.terms:
            if isinstance(t, AtomicPhiTerm):
                aux.append(reflect(next(atomic_omegas).reshape(z.shape)))
            else:
                aux.append(out + t.phi_dphi(out)[0])
        return out, aux

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
    return free_convolve_many([AtomicPhiTerm(nu1), AtomicPhiTerm(nu2)])


def free_convolve_many(terms: Sequence, shift: float = 0.0) -> FreeConvRep:
    """n-ary version used by the planar machinery; terms are phi evaluators.

    Point masses (single-atom atomic terms) are folded into the shift; an
    empty term list is the point mass at the shift.
    """
    kept = []
    shift = float(shift)
    for t in terms:
        if isinstance(t, AtomicPhiTerm) and len(t.measure) == 1:
            shift += float(t.measure.points[0])
        else:
            kept.append(t)
    return FreeConvRep(tuple(kept), shift)
