"""Bi-free additive convolution of planar laws, by phi-addition.

Terms of a :class:`BiConvRep` are atomic planar measures or characteristic
triplets; the representation is never materialized as atoms.  The atomic
terms are grouped by content into one padded stack with counts
(``measure.row_stack``, the row type of the limit machinery), so phi of
all of them is one ``bi_free_phi`` call and one Newton solve.  Recovery of
the planar Cauchy transform finds F_1(z) and F_2(w) of the two marginal
free convolutions by subordination (independent 1-d problems), evaluates
phi there, and divides through the defining relation of the two-variable
phi-transform.  The marginal solves also return each term's subordination
function, which is the exact inverse that phi needs, so the inversions
inside phi start at their roots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .freeconv import FreeConvRep, _grouped
from .measure import PlanarMeasure, RowStack, Vec2, dirac, row_groups, row_stack
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


@dataclass(frozen=True)
class BiConvRep:
    """Lazy bi-free convolution: phi = sum of term phis + point-mass shift.

    ``cone`` is the working cone of phi's inversions: theta = 1 and M the
    largest ``cone_for(m).M`` over the atomic laws, or 1, since triplet
    transforms live on all of (C\\R)^2.
    """

    terms: tuple
    shift: Vec2
    cone: TruncatedCone = field(init=False, compare=False)
    stack: RowStack | None = field(init=False, repr=False, compare=False)
    triplets: tuple = field(init=False, repr=False, compare=False)
    marginals: tuple[tuple[FreeConvRep, tuple], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = row_groups([t for t in self.terms if isinstance(t, PlanarMeasure)])
        height = max((cone_for(m).M for m, _ in groups), default=1.0)
        object.__setattr__(self, "cone", TruncatedCone(1.0, height))
        object.__setattr__(self, "stack", row_stack(groups) if groups else None)
        object.__setattr__(self, "triplets", tuple(t for t in self.terms if not isinstance(t, PlanarMeasure)))
        object.__setattr__(self, "marginals", tuple(self._marginal_with_starts(groups, ax) for ax in (1, 2)))

    def _marginal_with_starts(self, groups, axis: int) -> tuple[FreeConvRep, tuple]:
        """Marginal rep, plus where each law of ``stack`` finds its warm start.

        Each group's marginal enters once with its count (byte-equal
        marginals are one law).  A law's entry is (k, 0.0), with k the index
        of its marginal among the rep's laws, whose subordination function
        is the root of the law's inversion, or (None, p) when its marginal is
        the point p, folded into the shift, whose inversion at F has the root
        F + p.  Built once per rep, in ``marginals``.
        """
        lines = [(m.marginal(axis), count) for m, count in groups]
        rep, slots = _grouped(lines, [functools.partial(t.marginal_phi_dphi, axis) for t in self.triplets],
                              self.shift[axis - 1])
        return rep, tuple((k, 0.0) if k is not None else (None, float(line.points[0]))
                          for k, (line, _) in zip(slots, lines))

    def marginal(self, axis: int) -> FreeConvRep:
        """Free-convolution representation of the marginal law."""
        if axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        return self.marginals[axis - 1][0]

    def phi(self, z, w):
        """phi at (z, w) inside the working bicone, broadcast against each other.

        A grid is ``z[:, None], w[None, :]``.  The atomic terms take one
        ``bi_free_phi`` call over ``stack``.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        total = self._terms_phi(z, w) + self.shift[0] / z + self.shift[1] / w
        return complex(total) if total.ndim == 0 else total

    def _terms_phi(self, z, w, starts=(None, None)) -> np.ndarray:
        """Summed phi of the terms at (z, w), without the shift, as a new array."""
        if self.stack is None:
            total = np.zeros(np.broadcast_shapes(z.shape, w.shape), dtype=complex)
        else:
            total = np.asarray(bi_free_phi(self.stack, z, w, *starts))
        for t in self.triplets:
            total += t.bi_free_phi(z, w)
        return total

    def _recover(self, z1, w2, Phi1, Phi2, starts) -> np.ndarray:
        """G = 1 / (z1 w2 D), D = Phi1/z1 + Phi2/w2 + 1 - phi(z1, w2)."""
        neg_d = self._terms_phi(z1, w2, starts)
        neg_d -= (Phi1 - self.shift[0]) / z1 + 1.0
        neg_d -= (Phi2 - self.shift[1]) / w2
        if (np.abs(neg_d) < DEGENERATE_TOL).any():
            raise DegenerateDenominator("phi-relation denominator vanished during recovery")
        neg_d *= -z1
        neg_d *= w2
        return np.divide(1.0, neg_d, out=neg_d)

    def _marginal_solves(self, Z, W):
        """F_1(Z), F_2(W) and the stack's warm starts for phi at them."""
        out = []
        for (rep, starts), zeta in zip(self.marginals, (Z, W)):
            f, aux = rep.f_value(zeta, return_aux=True)
            out.append((f, np.array([f + p if k is None else aux[k] for k, p in starts])))
        (z1, start1), (w2, start2) = out
        return z1, w2, (start1, start2)

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
        z1, w2, starts = self._marginal_solves(Z, W)
        return self._recover(z1, w2, Z - z1, W - w2, starts), 1.0 / z1, 1.0 / w2

    def density(self, s_axis, t_axis, eps: float) -> GridDensity:
        """eps-smoothed joint density grid of the convolution.

        One subordination solve per axis gives F_1 on s + i eps and F_2 on
        t + i eps, with the terms' subordination functions as the warm
        starts of phi's inversions; G at t - i eps follows by conjugation.
        The same solves give the marginal densities (``axis_densities``),
        equal to ``self.marginal(j).density`` on the axes.
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
        z1, w2, starts = self._marginal_solves(Z, W)
        Phi1 = Z - z1
        Phi2 = W - w2
        g_plus = self._recover(z1, w2, Phi1, Phi2, starts)
        # lower w-half-plane values by reflection: F and phi commute with conj
        g_minus = self._recover(z1, np.conj(w2), Phi1, np.conj(Phi2), (starts[0], np.conj(starts[1])))
        # the marginal densities -Im G_j / pi come with the solves, G_j = 1 / F_j
        axis_densities = tuple(-(1.0 / f.ravel()).imag / np.pi for f in (z1, w2))
        return GridDensity(s_axis, t_axis, inversion_values(g_plus, g_minus), eps, axis_densities)


def bi_free_convolve(items: Sequence, shift: Vec2 = (0.0, 0.0)) -> BiConvRep:
    """Representation of the bi-free convolution of the items, plus a shift.

    Items are :class:`PlanarMeasure` or characteristic triplets.  Point
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
    return BiConvRep(tuple(terms), (s1, s2))
