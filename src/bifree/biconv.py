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
nothing.  Pointwise evaluation (``cauchy``) and grids share the routine
that completes D.  A grid is recovered in row blocks of about
``BLOCK_NODES`` nodes: z1 w2 G_g comes from one real matrix product per law
and block, every reciprocal is conj(x) / |x|^2, and only Re 1/(z1 w2 D) is
formed.  The lower w-half-plane needs no second solve, since
G(z, conj w) = conj G(conj z, w).
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
    _pair_sum,
    _require_eps,
    bi_free_phi,
    cauchy1d,
    cauchy2d,
    cone_for,
    stieltjes2d,
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

    def _marginal_solves(self, Z, W):
        """Per axis, from one subordination solve: F_j, each stack law's marginal
        inverse at it, and the triplets' summed marginal phi there, sum_t (omega_t - F_j)."""
        out = []
        for (rep, slots), zeta in zip(self.marginals, (Z, W)):
            f, aux = rep.f_value(zeta, return_aux=True)
            inverses = np.array([f + p if k is None else aux[k] for k, p in slots])
            out.append((f, inverses, sum(om - f for om in aux[len(rep.laws):])))
        return out

    def _axis_parts(self, Z, W):
        """z1 = F_1(Z), w2 = F_2(W), the parts of D on one axis each, and the pair factors.

        Z and W take a common number of axes first.  The axis parts are
        phi_T1(z1)/z1 and phi_T2(w2)/w2 + 1 - N, with phi_Tj the triplets'
        summed marginal phi; the factors A = z1 / (F_g^{-1}(z1) - s_gk),
        shaped (n, *z1.shape, m), and B = w2 p_gk / (F_g^{-1}(w2) - t_gk) give
        z1 w2 G_g = sum_k A_gk B_gk.  Without atomic terms the factors are None.
        """
        nd = max(Z.ndim, W.ndim)
        Z = Z.reshape((1,) * (nd - Z.ndim) + Z.shape)
        W = W.reshape((1,) * (nd - W.ndim) + W.shape)
        (z1, i1, phi1), (w2, i2, phi2) = self._marginal_solves(Z, W)
        u1 = phi1 / z1
        if self.stack is None:
            return z1, w2, u1, phi2 / w2 + 1.0, None
        lead = (len(i1), *(1,) * nd, -1)
        pts = self.stack.points
        a = z1[..., None] / (i1[..., None] - pts[..., 0].reshape(lead))
        b = (w2[..., None] * self.stack.weights.reshape(lead)) / (i2[..., None] - pts[..., 1].reshape(lead))
        return z1, w2, u1, phi2 / w2 + float(1 - self.stack.counts.sum()), (a, b)

    def _complete_denominator(self, d_re, d_im, pairs, z1, w2) -> np.ndarray:
        """Finish D = d_re + i d_im at (z1, w2) in place; returns |D|^2.

        On entry D holds the axis parts.  This subtracts the triplets' phi
        and adds sum_g c_g / x_g, with x_g = z1 w2 G_g given by ``pairs``, its
        real and imaginary parts law by law in stack order.  Each reciprocal
        is conj(x) / |x|^2; |x| or |D| below DEGENERATE_TOL raises
        :class:`DegenerateDenominator`, and reading |x|^2 against
        DEGENERATE_TOL^2 keeps it clear of underflow.
        """
        for t in self.triplets:
            p = t.bi_free_phi(z1, w2)
            d_re -= p.real
            d_im -= p.imag
        q, tmp = np.empty_like(d_re), np.empty_like(d_re)
        for (x_re, x_im), count in zip(pairs, () if self.stack is None else self.stack.counts):
            np.multiply(x_re, x_re, out=q)
            q += np.multiply(x_im, x_im, out=tmp)
            if (q < DEGENERATE_TOL**2).any():
                raise DegenerateDenominator("z w G(F1^-1, F2^-1) vanished; enlarge the cone height")
            np.divide(count, q, out=q)
            d_re += np.multiply(x_re, q, out=tmp)
            d_im -= np.multiply(x_im, q, out=tmp)
        np.multiply(d_re, d_re, out=q)
        q += np.multiply(d_im, d_im, out=tmp)
        if (q < DEGENERATE_TOL**2).any():
            raise DegenerateDenominator("phi-relation denominator vanished during recovery")
        return q

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
        z1, w2, u1, u2, factors = self._axis_parts(Z, W)
        d = np.asarray(u1 + u2)
        pairs = ()
        if factors is not None:
            x = _pair_sum(*factors)
            pairs = zip(x.real, x.imag)
        self._complete_denominator(d.real, d.imag, pairs, z1, w2)
        d *= z1
        d *= w2
        g = np.conj(d)
        g /= d.real * d.real + d.imag * d.imag
        return g, (1.0 / z1).reshape(Z.shape), (1.0 / w2).reshape(W.shape)

    def density(self, s_axis, t_axis, eps: float) -> GridDensity:
        """eps-smoothed joint density grid of the convolution.

        One subordination solve per axis gives F_1 on s + i eps and F_2 on
        t + i eps and the terms' marginal inverses there; G at t - i eps
        follows by conjugation.  Rows go in blocks of about ``BLOCK_NODES``
        nodes, each written straight into the result.  The same solves give
        the marginal densities (``axis_densities``), equal to
        ``self.marginal(j).density`` on the axes.
        """
        _require_eps(eps)
        direct = self._direct_atomic()
        if direct is not None:
            return stieltjes2d(lambda z, w: cauchy2d(direct, z, w), s_axis, t_axis, eps)
        s_axis = np.asarray(s_axis, dtype=float)
        t_axis = np.asarray(t_axis, dtype=float)
        z1, w2, u1, u2, factors = self._axis_parts(s_axis + 1j * eps, t_axis + 1j * eps)
        # the lower w-half-plane by reflection, G(z, conj w) = conj G(conj z, w):
        # half h = 1 conjugates the z side, and the w side is shared
        zs = np.stack([z1, np.conj(z1)])
        us = np.stack([u1, np.conj(u1)])
        inv_z, inv_w = 1.0 / zs, 1.0 / w2
        n_t = len(t_axis)
        if factors is not None:
            # real factors of one product per block: row h of ``left`` against
            # ``right`` gives Re and Im of z1 w2 G_g on half h, side by side
            a, b = factors
            left = np.stack([np.concatenate([a.real, -a.imag], axis=-1),
                             np.concatenate([a.real, a.imag], axis=-1)], axis=1)
            b_re, b_im = b.real.transpose(0, 2, 1), b.imag.transpose(0, 2, 1)
            right = np.concatenate([np.concatenate([b_re, b_im], axis=2),
                                    np.concatenate([b_im, -b_re], axis=2)], axis=1)
        values = np.empty((len(s_axis), n_t))
        rows = max(1, BLOCK_NODES // max(n_t, 1))
        for lo in range(0, len(s_axis), rows):
            blk = slice(lo, lo + rows)
            d_re = us.real[:, blk, None] + u2.real
            d_im = us.imag[:, blk, None] + u2.imag
            # one law's product at a time, each freed before the next
            pairs = () if factors is None else (
                (x[..., :n_t], x[..., n_t:]) for x in (lf[:, blk] @ rt for lf, rt in zip(left, right)))
            q = self._complete_denominator(d_re, d_im, pairs, zs[:, blk, None], w2)
            # Re 1/(z1 w2 D) = Re(v conj D) / |D|^2 with v = 1/(z1 w2)
            v = inv_z[:, blk, None] * inv_w
            d_re *= v.real
            d_im *= v.imag
            d_re += d_im
            d_re /= q
            np.subtract(d_re[1], d_re[0], out=values[blk])
            values[blk] /= 2.0 * np.pi**2
        # the marginal densities -Im G_j / pi come with the solves, G_j = 1 / F_j
        axis_densities = tuple(-(1.0 / f).imag / np.pi for f in (z1, w2))
        return GridDensity(s_axis, t_axis, values, eps, axis_densities)


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
