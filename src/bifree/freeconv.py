"""Free additive convolution of laws on the line, by phi-addition.

A :class:`FreeConvRep` stores phi-evaluator terms whose transforms add; the
Cauchy transform of the convolution is recovered by solving the forward
relation phi(z) + z = zeta with Newton's method.  Near the real axis the
solve is warm-started through a factor-2 continuation ladder in Im(zeta),
descending from the cone height where the identity guess is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measure import Measure1D
from .transforms import (
    NoConvergence,
    TruncatedCone,
    _damped_newton,
    cauchy1d,
    cone_for,
    newton_f_inverse,
)

SOLVE_TOL = 1e-10


class AtomicPhiTerm:
    """phi evaluator backed by an atomic law, warm-startable."""

    __slots__ = ("measure",)

    def __init__(self, measure: Measure1D):
        self.measure = measure

    def cone(self) -> TruncatedCone:
        return cone_for(self.measure)

    def phi_dphi(self, z: np.ndarray, guess=None):
        """(phi(z), phi'(z), aux); aux is the inverse F^{-1}(z) for restarts.

        Returns nan entries where the inner inversion fails so the caller
        can damp its step instead of aborting.
        """
        g = z if guess is None else guess
        root, fp, ok = newton_f_inverse(self.measure.points, self.measure.weights, z, g)
        phi = root - z
        dphi = 1.0 / fp - 1.0
        bad = ~ok
        if bad.any():
            phi = np.where(bad, np.nan + 0j, phi)
            dphi = np.where(bad, np.nan + 0j, dphi)
        return phi, dphi, root


@dataclass(frozen=True)
class FreeConvRep:
    """Lazy representation of a free convolution: phi = sum of term phis + shift/id.

    ``terms`` are objects exposing ``phi_dphi(z, guess) -> (phi, dphi, aux)``
    and ``cone()``; ``shift`` adds the constant phi of a point mass.
    """

    terms: tuple
    shift: float
    cone: TruncatedCone

    def phi(self, z):
        """phi of the representation at z (z within the working cone)."""
        z = np.asarray(z, dtype=complex)
        total = np.full(z.shape, complex(self.shift))
        for t in self.terms:
            p, _, _ = t.phi_dphi(z)
            if not np.all(np.isfinite(p)):
                raise NoConvergence("phi evaluation failed; move deeper into the cone")
            total = total + p
        return complex(total) if total.ndim == 0 else total

    def f_inverse(self, z):
        return self.phi(z) + np.asarray(z, dtype=complex)

    def _h_eval(self, x: np.ndarray, target: np.ndarray, aux: list):
        """h = phi(x) + x - target with derivative; aux warm-starts per term."""
        h = x - target + self.shift
        hp = np.ones_like(x)
        new_aux = []
        for t, a in zip(self.terms, aux):
            p, dp, na = t.phi_dphi(x, guess=a)
            h = h + p
            hp = hp + dp
            new_aux.append(na)
        return h, hp, new_aux

    def _solve_signed(self, target: np.ndarray, tol: float) -> tuple[np.ndarray, list]:
        """Ladder solve for targets sharing an Im sign.

        The rungs sit at the cone height over powers of two, and a target
        at or above the cone height is solved directly from itself, so each
        target follows the same path whichever batch it is solved in.
        """
        sign = np.sign(target.imag)
        y = np.abs(target.imag)
        y_top = self.cone.M
        n_rungs = max(1, int(np.ceil(np.log2(y_top / float(y.min())))) + 1)
        x = target.real + 1j * sign * np.maximum(y, y_top)
        aux = [x.copy() for _ in self.terms]
        for k in range(n_rungs + 1):
            level = y_top / 2.0**k
            tk = target.real + 1j * sign * np.maximum(y, level)
            x, _, aux, ok = _damped_newton(
                lambda x, aux, tk=tk: self._h_eval(x, tk, aux), x, tk, aux, tol
            )
            if not ok.all():
                raise NoConvergence(
                    f"free convolution solve failed at ladder rung {k} (Im level {level:g})"
                )
            if level <= y.min():
                break
        return x, aux

    def _single_atomic(self) -> Measure1D | None:
        """The lone atomic term, when the rep is one atomic law up to a shift."""
        if len(self.terms) == 1 and isinstance(self.terms[0], AtomicPhiTerm):
            return self.terms[0].measure
        return None

    def f_value(self, zeta, return_aux: bool = False, tol: float = SOLVE_TOL):
        """F(zeta): the root z of phi(z) + z = zeta, residual <= tol relative."""
        zeta = np.asarray(zeta, dtype=complex)
        if np.any(zeta.imag == 0.0):
            raise ValueError("zeta must be non-real")
        # a translated atomic law needs no solve: F(zeta) = F_m(zeta - shift),
        # and the term's functional inverse there is zeta - shift exactly
        # (this also selects the right branch where F is not injective)
        if len(self.terms) == 0:
            out = zeta - self.shift
            return (out, []) if return_aux else out
        m = self._single_atomic()
        if m is not None:
            base = zeta - self.shift
            out = 1.0 / cauchy1d(m, base)
            return (out, [base]) if return_aux else out
        flat = zeta.ravel()
        out = np.empty_like(flat)
        aux_out = [np.empty_like(flat) for _ in self.terms]
        for sgn in (1.0, -1.0):
            idx = np.nonzero(np.sign(flat.imag) == sgn)[0]
            if idx.size == 0:
                continue
            roots, aux = self._solve_signed(flat[idx], tol)
            out[idx] = roots
            for slot, a in zip(aux_out, aux):
                slot[idx] = a
        out = out.reshape(zeta.shape)
        if return_aux:
            return out, [a.reshape(zeta.shape) for a in aux_out]
        return out

    def cauchy(self, zeta, tol: float = SOLVE_TOL):
        """G of the convolution: 1 / F(zeta)."""
        val = 1.0 / self.f_value(zeta, tol=tol)
        return complex(val) if np.ndim(val) == 0 else val

    def density(self, axis, eps: float) -> np.ndarray:
        """eps-smoothed density on the axis, via the continuation ladder."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        axis = np.asarray(axis, dtype=float)
        g = self.cauchy(axis + 1j * eps)
        return -np.asarray(g).imag / np.pi


def free_convolve(nu1: Measure1D, nu2: Measure1D) -> FreeConvRep:
    """Representation of nu1 boxplus nu2 (phi adds on the common cone)."""
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
    cone = TruncatedCone(1.0, 1.0)
    for t in kept:
        cone = cone.intersect(t.cone())
    return FreeConvRep(tuple(kept), shift, cone)
