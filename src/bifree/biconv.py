"""Bi-free additive convolution of planar laws, by phi-addition.

Terms of a :class:`BiConvRep` are atomic planar measures or characteristic
triplets; the representation is never materialized as atoms.  Recovery of
the planar Cauchy transform finds F_1(z) and F_2(w) of the two marginal
free convolutions by subordination (independent 1-d problems), evaluates
phi there, and divides through the defining relation of the two-variable
phi-transform.  The marginal solves also return each term's subordination
function, which is the exact inverse that phi needs, so the inversions
inside phi start at their roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .freeconv import AtomicPhiTerm, FreeConvRep, free_convolve_many
from .measure import PlanarMeasure, Vec2, dirac
from .transforms import (
    DEGENERATE_TOL,
    DegenerateDenominator,
    GridDensity,
    TruncatedCone,
    bi_free_phi,
    cauchy1d,
    cauchy2d,
    cone_for,
    inversion_values,
    stieltjes2d,
)


def _is_triplet(obj) -> bool:
    return hasattr(obj, "tau") and hasattr(obj, "bi_free_phi")


def _term_cone(term) -> TruncatedCone:
    if isinstance(term, PlanarMeasure):
        return cone_for(term)
    return TruncatedCone(1.0, 1.0)  # triplet transforms live on all of (C\R)^2


@dataclass(frozen=True)
class BiConvRep:
    """Lazy bi-free convolution: phi = sum of term phis + point-mass shift."""

    terms: tuple
    shift: Vec2
    cone: TruncatedCone
    marginals: tuple[tuple[FreeConvRep, tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "marginals", (self._marginal_with_map(1), self._marginal_with_map(2)))

    def _marginal_with_map(self, axis: int) -> tuple[FreeConvRep, tuple[int, ...]]:
        """Marginal rep plus the rep-term -> planar-term index map.

        Terms whose marginal collapses to a point are folded into the shift
        here so the map stays aligned with the solver's warm-start slots.
        Built once per rep, in ``marginals``.
        """
        parts: list = []
        src: list[int] = []
        shift = float(self.shift[axis - 1])
        for idx, t in enumerate(self.terms):
            if isinstance(t, PlanarMeasure):
                m = t.marginal(axis)
                if len(m) == 1:
                    shift += float(m.points[0])
                else:
                    parts.append(AtomicPhiTerm(m))
                    src.append(idx)
            else:
                parts.append(t.marginal_phi_term(axis))
                src.append(idx)
        return free_convolve_many(parts, shift=shift), tuple(src)

    def marginal(self, axis: int) -> FreeConvRep:
        """Free-convolution representation of the marginal law."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return self.marginals[axis - 1][0]

    def phi(self, z, w, guesses=None):
        """phi at (z, w) inside the working bicone, broadcast against each other.

        A grid is ``z[:, None], w[None, :]``.  ``guesses`` optionally carries
        per-term warm starts for the two marginal inversions, shaped like z
        and w, as produced by the marginal solves.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        total = np.zeros(np.broadcast_shapes(z.shape, w.shape), dtype=complex)
        for k, t in enumerate(self.terms):
            if isinstance(t, PlanarMeasure):
                g1, g2 = (None, None) if guesses is None else guesses[k]
                total += bi_free_phi(t, z, w, g1, g2)
            else:
                total += t.bi_free_phi(z, w)
        total += self.shift[0] / z + self.shift[1] / w
        return complex(total) if total.ndim == 0 else total

    def _recover(self, z1, w2, Phi1, Phi2, guesses) -> np.ndarray:
        D = Phi1 / z1 + Phi2 / w2 + 1.0 - self.phi(z1, w2, guesses)
        if np.any(np.abs(D) < DEGENERATE_TOL):
            raise DegenerateDenominator("phi-relation denominator vanished during recovery")
        return 1.0 / (z1 * w2 * D)

    def _marginal_solves(self, Z, W):
        (mr1, src1), (mr2, src2) = self.marginals
        z1, aux1 = mr1.f_value(Z, return_aux=True)
        w2, aux2 = mr2.f_value(W, return_aux=True)
        guesses = self._guesses(aux1, src1, aux2, src2)
        return z1, w2, guesses

    def _guesses(self, aux1, src1, aux2, src2):
        """Warm starts per planar term: its subordination functions, the roots
        of its marginal inversions.  Folded marginals need none (their
        inversions are linear and converge in one step)."""
        g1 = dict(zip(src1, aux1))
        g2 = dict(zip(src2, aux2))
        out = []
        for idx, t in enumerate(self.terms):
            if isinstance(t, PlanarMeasure):
                out.append((g1.get(idx), g2.get(idx)))
            else:
                out.append((None, None))
        return out

    def _direct_atomic(self):
        """The translated atomic law, when the rep is one up to a shift."""
        if len(self.terms) == 0:
            return dirac(self.shift)
        if len(self.terms) == 1 and isinstance(self.terms[0], PlanarMeasure):
            if self.shift == (0.0, 0.0):
                return self.terms[0]
            return self.terms[0].shifted_by((-self.shift[0], -self.shift[1]))
        return None

    def cauchy(self, Z, W):
        """G of the convolution at (Z, W), broadcast against each other.

        Representations that are a single atomic law up to translation are
        evaluated in closed form; genuine convolutions go through the
        marginal solves, which run on Z and W as given.
        """
        direct = self._direct_atomic()
        if direct is not None:
            return cauchy2d(direct, Z, W)
        G = self.cauchy_with_marginals(Z, W)[0]
        return complex(G) if G.ndim == 0 else G

    def cauchy_with_marginals(self, Z, W):
        """(G(Z, W), G_1(Z), G_2(W)): the planar and marginal Cauchy transforms.

        A genuine convolution gets all three from one pair of marginal solves.
        """
        direct = self._direct_atomic()
        if direct is not None:
            return (cauchy2d(direct, Z, W), cauchy1d(direct.marginal(1), Z),
                    cauchy1d(direct.marginal(2), W))
        Z = np.asarray(Z, dtype=complex)
        W = np.asarray(W, dtype=complex)
        z1, w2, guesses = self._marginal_solves(Z, W)
        return self._recover(z1, w2, Z - z1, W - w2, guesses), 1.0 / z1, 1.0 / w2

    def density(self, s_axis, t_axis, eps: float) -> GridDensity:
        """eps-smoothed joint density grid of the convolution.

        One subordination solve per axis gives F_1 on s + i eps and F_2 on
        t + i eps, with the terms' subordination functions as the warm
        starts of phi's inversions; G at t - i eps follows by conjugation.
        """
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        direct = self._direct_atomic()
        if direct is not None:
            return stieltjes2d(lambda z, w: cauchy2d(direct, z, w), s_axis, t_axis, eps)
        s_axis = np.asarray(s_axis, dtype=float)
        t_axis = np.asarray(t_axis, dtype=float)
        Z = (s_axis + 1j * eps)[:, None]
        W = (t_axis + 1j * eps)[None, :]
        z1, w2, guesses = self._marginal_solves(Z, W)
        Phi1 = Z - z1
        Phi2 = W - w2
        g_plus = self._recover(z1, w2, Phi1, Phi2, guesses)
        # lower w-half-plane values by reflection: F and phi commute with conj
        conj_guesses = [(a, None if b is None else np.conj(b)) for a, b in guesses]
        g_minus = self._recover(z1, np.conj(w2), Phi1, np.conj(Phi2), conj_guesses)
        return GridDensity(s_axis, t_axis, inversion_values(g_plus, g_minus), eps)


def bi_free_convolve(items: Sequence, shift: Vec2 = (0.0, 0.0)) -> BiConvRep:
    """Representation of the bi-free convolution of the items, plus a shift.

    Items are :class:`PlanarMeasure` or characteristic triplets; the working
    cone is the intersection (max height) of the per-item cones.  Point
    masses are the units of the operation up to translation and are folded
    into the shift, which keeps single-measure representations on the exact
    closed-form recovery path.
    """
    items = tuple(items)
    if not items:
        raise ValueError("need at least one item to convolve")
    s1, s2 = float(shift[0]), float(shift[1])
    terms = []
    for it in items:
        if isinstance(it, PlanarMeasure):
            if len(it) == 1:
                s1 += float(it.points[0, 0])
                s2 += float(it.points[0, 1])
            else:
                terms.append(it)
        elif _is_triplet(it):
            terms.append(it)
        else:
            raise TypeError(f"cannot convolve object of type {type(it).__name__}")
    cone = TruncatedCone(1.0, 1.0)
    for it in terms:
        cone = cone.intersect(_term_cone(it))
    return BiConvRep(tuple(terms), (s1, s2), cone)
