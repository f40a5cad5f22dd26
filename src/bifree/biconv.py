"""Bi-free additive convolution of planar laws, by phi-addition.

Terms of a :class:`BiConvRep` are atomic planar measures or characteristic
triplets; the representation is never materialized as atoms.  The atomic
terms are grouped by content into one padded stack with counts
(``measure.row_stack``, the row type of the limit machinery), so phi of
all of them is one ``bi_free_phi`` call and one Newton solve.

Recovery of the planar Cauchy transform solves the defining relation of the
two-variable phi-transform, G = 1 / (z1 w2 D), at z1 = F_1(z), w2 = F_2(w),
the reciprocal Cauchy transforms of the two marginal free convolutions
(independent 1-d subordination solves).  With N the stack's total count,

    D = 1 - N + sum_g c_g / (z1 w2 G_g)
          + sum_t [phi_t1(z1)/z1 + phi_t2(w2)/w2 - phi_t(z1, w2)],

where G_g is law g's Cauchy transform at its marginals' inverses, which are
its marginals' subordination functions, and phi_t1(z1) = omega_t - z1 is
triplet t's marginal phi: the marginal solves give both, and the
subordination identity cancels every other axis term, so recovery inverts
nothing.  Pointwise evaluation and density grids share one routine that
completes G = 1 / (z1 w2 D) at broadcast (z1, w2); z1 w2 G_g is the pair
sum of ``transforms._pair_factors``, as in ``bi_free_phi``.  A lone law,
one atomic law counted once with no triplet and any shift, has G = G_g
itself: the pair sum over z1 w2, with no reciprocal, which stays exact
where G vanishes (through D, a lone B2 is degenerate at (i, i)).  A
density is recovered in row blocks of about ``BLOCK_NODES`` nodes, each
block's rows stacked on their conjugates: the lower w-half-plane needs no
second solve, since G(z, conj w) = conj G(conj z, w).  Every density
takes its marginal densities from the same solves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .freeconv import FreeConvRep, _grouped
from .measure import PlanarMeasure, RowStack, Vec2, row_groups, row_stack
from .transforms import (
    DEGENERATE_TOL,
    DegenerateDenominator,
    GridDensity,
    TruncatedCone,
    _inverse_pair_sum,
    _law_sum,
    _pair_factors,
    _pair_sum,
    _require_eps,
    bi_free_phi,
    cone_for,
)

# grid nodes per row block of a density: its work arrays, 2 x BLOCK_NODES values
# for the two half-planes, stay in cache and below the allocator's page-fault path
BLOCK_NODES = 4096


def _is_triplet(obj) -> bool:
    return hasattr(obj, "tau") and hasattr(obj, "bi_free_phi")


@dataclass(frozen=True)
class BiConvRep:
    """Lazy bi-free convolution: phi = sum of term phis + point-mass shift.

    ``cone`` is the working cone of phi's inversions: theta = 1 and M the
    largest ``cone_for(m).M`` over the atomic laws, or 1, since triplet
    transforms live on all of (C\\R)^2.  ``lone`` marks a rep that is one
    atomic law counted once, with no triplet, up to its shift.
    """

    terms: tuple
    shift: Vec2
    cone: TruncatedCone = field(init=False, compare=False)
    stack: RowStack | None = field(init=False, repr=False, compare=False)
    triplets: tuple = field(init=False, repr=False, compare=False)
    lone: bool = field(init=False, repr=False, compare=False)
    marginals: tuple[tuple[FreeConvRep, tuple], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = row_groups([t for t in self.terms if isinstance(t, PlanarMeasure)])
        height = max((cone_for(m).M for m, _ in groups), default=1.0)
        object.__setattr__(self, "cone", TruncatedCone(1.0, height))
        object.__setattr__(self, "stack", row_stack(groups) if groups else None)
        object.__setattr__(self, "triplets", tuple(t for t in self.terms if not isinstance(t, PlanarMeasure)))
        object.__setattr__(self, "lone", not self.triplets and [c for _, c in groups] == [1])
        object.__setattr__(self, "marginals", tuple(self._marginal_with_inverses(groups, ax) for ax in (1, 2)))

    def _marginal_with_inverses(self, groups, axis: int) -> tuple[FreeConvRep, tuple]:
        """Marginal rep, plus where each law of ``stack`` finds its marginal's inverse.

        Each group's marginal enters once with its count (byte-equal
        marginals are one law).  A law's entry is (k, 0.0), with k the index
        of its marginal among the rep's laws, whose subordination function
        is the inverse of the law's F at F of the rep, or (None, p) when its
        marginal is the point p, folded into the shift, whose inverse at F is
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
        if self.stack is None:
            total = np.zeros(np.broadcast_shapes(z.shape, w.shape), dtype=complex)
        else:
            total = np.asarray(bi_free_phi(self.stack, z, w))
        for t in self.triplets:
            total += t.bi_free_phi(z, w)
        total = total + self.shift[0] / z + self.shift[1] / w
        return complex(total) if total.ndim == 0 else total

    def _axis_parts(self, Z, W):
        """z1 = F_1(Z), w2 = F_2(W), the parts of D on one axis each, and the pair factors.

        Z and W take a common number of axes first.  One subordination solve
        per axis gives F_j, each stack law's marginal inverse there and the
        triplets' summed marginal phi, phi_Tj = sum_t (omega_t - F_j).  The
        axis parts are phi_T1(z1)/z1 and phi_T2(w2)/w2 + 1 - N; the factors
        are ``transforms._pair_factors`` at (z1, w2) and the laws' marginal
        inverses there, or None without atomic terms.
        """
        nd = max(Z.ndim, W.ndim)
        solves = []
        for (rep, slots), zeta in zip(self.marginals, (Z, W)):
            f, aux = rep.f_value(zeta.reshape((1,) * (nd - zeta.ndim) + zeta.shape), return_aux=True)
            inverses = np.array([f + p if k is None else aux[k] for k, p in slots])
            solves.append((f, inverses, sum(om - f for om in aux[len(rep.laws):]) / f))
        (z1, i1, u1), (w2, i2, u2) = solves
        if self.stack is None:
            return z1, w2, u1, u2 + 1.0, None
        return z1, w2, u1, u2 + float(1 - self.stack.counts.sum()), _pair_factors(self.stack, i1, i2, z1, w2)

    def _g_from_parts(self, z1, w2, u1, u2, factors):
        """G = 1 / (z1 w2 D), D = u1 + u2 - sum_t phi_t(z1, w2) + sum_g c_g / (z1 w2 G_g).

        The arguments are those of :meth:`_axis_parts`, or slices of them
        that broadcast against each other; G is computed in D's array.
        |z1 w2 G_g| or |D| below DEGENERATE_TOL raises
        :class:`DegenerateDenominator`.  A lone law's G is its own G_g, the
        pair sum over z1 w2, which raises nothing.
        """
        if self.lone:
            g = _pair_sum(*factors)[0, ...]
            g /= z1
            g /= w2
            return g
        d = np.asarray(u1 + u2)
        for t in self.triplets:
            d -= t.bi_free_phi(z1, w2)
        if factors is not None:
            d += _law_sum(self.stack.counts, _inverse_pair_sum(*factors))
        if (np.abs(d) < DEGENERATE_TOL).any():
            raise DegenerateDenominator("phi-relation denominator vanished during recovery")
        d *= z1
        d *= w2
        return np.reciprocal(d, out=d)

    def cauchy(self, Z, W):
        """G of the convolution at (Z, W), broadcast against each other: the
        first output of :meth:`cauchy_with_marginals`."""
        G = self.cauchy_with_marginals(Z, W)[0]
        return complex(G) if np.ndim(G) == 0 else G

    def cauchy_with_marginals(self, Z, W):
        """(G(Z, W), G_1(Z), G_2(W)): the planar and marginal Cauchy transforms.

        All three come from one pair of marginal solves, which run on Z and
        W as given; a lone law's solves are closed-form.
        """
        Z = np.asarray(Z, dtype=complex)
        W = np.asarray(W, dtype=complex)
        z1, w2, *rest = self._axis_parts(Z, W)
        return self._g_from_parts(z1, w2, *rest), (1.0 / z1).reshape(Z.shape), (1.0 / w2).reshape(W.shape)

    def density(self, s_axis, t_axis, eps: float) -> GridDensity:
        """eps-smoothed joint density grid of the convolution, with its marginals.

        One subordination solve per axis gives F_1 on s + i eps and F_2 on
        t + i eps: the marginal densities (``axis_densities``, equal to
        ``self.marginal(j).density`` on the axes) and the terms' marginal
        inverses.  Rows go in blocks of about ``BLOCK_NODES`` nodes, each
        block's rows stacked on their conjugates, since G(z, conj w) =
        conj G(conj z, w): one :meth:`_g_from_parts` call gives G at
        t + i eps and, in real part, at t - i eps.  A lone law takes the
        same blocks.
        """
        _require_eps(eps)
        s_axis = np.asarray(s_axis, dtype=float)
        t_axis = np.asarray(t_axis, dtype=float)
        z1, w2, u1, u2, factors = self._axis_parts((s_axis + 1j * eps)[:, None], t_axis + 1j * eps)
        # the marginal densities -Im G_j / pi come with the solves, G_j = 1 / F_j
        axis_densities = tuple(-(1.0 / f.ravel()).imag / np.pi for f in (z1, w2))
        values = np.empty((len(s_axis), len(t_axis)))
        rows = max(1, BLOCK_NODES // max(len(t_axis), 1))
        for lo in range(0, len(s_axis), rows):
            blk = slice(lo, lo + rows)
            zb, ub = (np.concatenate([x[blk], np.conj(x[blk])]) for x in (z1, u1))
            fb = None if factors is None else (
                np.concatenate([factors[0][:, blk], np.conj(factors[0][:, blk])], axis=1), factors[1])
            # Re G at t - i eps minus Re G at t + i eps: the inversion
            g = self._g_from_parts(zb, w2, ub, u2, fb).real
            np.subtract(g[len(g) // 2:], g[: len(g) // 2], out=values[blk])
            values[blk] /= 2.0 * np.pi**2
        return GridDensity(s_axis, t_axis, values, eps, axis_densities)


def bi_free_convolve(items: Sequence, shift: Vec2 = (0.0, 0.0)) -> BiConvRep:
    """Representation of the bi-free convolution of the items, plus a shift.

    Items are :class:`PlanarMeasure` or characteristic triplets.  Point
    masses are the units of the operation up to translation and are folded
    into the shift, so a single measure with point masses is still a lone
    law, whose G is exact where it vanishes.
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
