"""Free additive convolution of laws on the line, by subordination.

A :class:`FreeConvRep` stores the terms of a free convolution: distinct
atomic laws with their counts, infinitely divisible laws as plain callables
z -> (phi, phi') (a triplet marginal is
``functools.partial(triplet.marginal_phi_dphi, axis)``) and a shift.  Its
Voiculescu transform phi is the count-weighted sum of the terms' phis plus
the shift; :meth:`FreeConvRep.phi` evaluates it inside the working cone by
inverting the distinct atomic laws' F there, all in one Newton solve.

F of the convolution needs no inversion at all (Belinschi-Bercovici, J.
Anal. Math. 101, 2007).  With z = zeta - shift, h_j = F_j - id for the
distinct atomic laws mu_j with counts c_j, and phi_ID the summed phi of the
infinitely divisible terms (analytic on C+ with Im phi_ID <= 0;
Bercovici-Voiculescu, Indiana Univ. Math. J. 42, 1993), the c_j copies of
mu_j share one subordination function omega_j (Belinschi-Bercovici, Math. Z.
248, 2004), and an infinitely divisible term t has omega_t = F + phi_t(F).
F_j(omega_j) = F and the sum of the N terms' omegas, z + (N - 1) F, give

    omega_j = z + S - h_j(omega_j) - phi_ID(F),  S = sum_i c_i h_i(omega_i),

with F = F_0(omega_0).  The laws are numbered by descending count, ties in
the given order.  Of two or more, a last law counted once, e, is eliminated:
omega_e = z + S - phi_ID(F), with S over the other laws, and each other
omega_j is an unknown of omega = T(omega), T_j = z + S + h_e(omega_e) -
h_j(omega_j) - phi_ID(F), with h_e = 0 when no law is eliminated.  Without
atomic laws the one unknown is F itself, F = z - phi_ID(F).  With no
infinitely divisible term and at most one law, counted once, the
elimination leaves no unknown: omega = z and F = z + h(z), with no
iteration (the subordination map is constant).  Every term of
T_j but z has Im >= 0 on C+, so T sends (C+)^U into {Im >= Im z}^U; a
holomorphic self-map has at most one fixed point there (Schwarz-Pick), so
an iterate that settles in C+ is on the right branch: there is no cone,
ladder or branch choice.  With atomic laws only, T maps {Im >= Im z}^U
into a bounded part of it, and the plain iteration omega <- T(omega)
converges from every start (Earle-Hamilton, 1970).

Newton steps on omega - T(omega) accelerate it.  The Jacobian is
diag(1 + h_j') - 1 u^T, u_i = (1 + h_e'(omega_e)) (c_i h_i' - [i = 0]
phi_ID'(F) F_0'), so a step costs O(U) per point by Sherman-Morrison (one
unknown takes the scalar quotient).  A Newton step is kept only where it
lowers the largest pseudo-hyperbolic distance between an omega_j and T_j,
which the plain step never raises; elsewhere the plain step is taken
(``transforms._damped_newton``).  Each unknown stops once
|omega - T(omega)| <= 1e-13 (1 + |omega|).  Lower half-plane points are
solved at their conjugates, since F commutes with conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measure import Measure1D, RowStack, row_stack
from .transforms import (
    NoConvergence,
    _damped_newton,
    _nonzero,
    _require_eps,
    _require_nonreal,
    newton_f_inverse,
)

FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAXITER = 200


def _h_and_deriv(points: np.ndarray, weights: np.ndarray, wp: np.ndarray, x: np.ndarray):
    """(h, h') of an atomic law, h = F - id = -sum(w p / (x - p)) / sum(w / (x - p)).

    ``wp`` is weights * points.  A law's (m,) arrays take x of any shape; a
    stack, with points (U, 1, m) and the rest (U, m, 1), takes x of shape
    (U, K).  The quotient form has no cancellation between F and x at large
    |x|.
    """
    inv = 1.0 / (x[..., None] - points)
    g = (inv @ weights).reshape(x.shape)
    return -(inv @ wp).reshape(x.shape) / g, ((inv * inv) @ weights).reshape(x.shape) / (g * g) - 1.0


def _system(stack: RowStack | None) -> tuple:
    """The distinct atomic laws of ``stack`` arranged for :func:`_subordinate`.

    The laws go by descending count (a stable sort); of two or more, a last
    law counted once is eliminated.  Returns ``(unknown, counts, first,
    last, order)``: (points, weights, weights * points) of the laws whose
    omegas are unknowns, as a zero-padded stack shaped for
    :func:`_h_and_deriv`, as one law's (m,) arrays, or None without laws;
    their counts, (U, 1) or a number; 1 at law 0 and 0 elsewhere, shaped
    alike; the eliminated law's (m,) arrays or None; and the given index of
    each law in solve order.
    """
    if stack is None:
        return None, 1.0, 1.0, None, []
    order = sorted(range(len(stack.counts)), key=lambda j: -stack.counts[j])
    counts = stack.counts[order]
    k = len(order) - (len(order) >= 2 and counts[-1] == 1)  # the unknown laws
    cols = stack.points[order], stack.weights[order], (stack.weights * stack.points)[order]
    last = tuple(a[-1] for a in cols) if k < len(order) else None
    if k == 1:  # one unknown takes the scalar step
        return tuple(a[0] for a in cols), float(counts[0]), 1.0, last, order
    unknown = cols[0][:k, None, :], cols[1][:k, :, None], cols[2][:k, :, None]
    return unknown, counts[:k, None].astype(float), (np.arange(k) == 0)[:, None] * 1.0, last, order


def _subordinate(z: np.ndarray, system: tuple, id_phi):
    """F of the convolution at z in C+ (a flat array), with the omegas.

    ``system`` holds the distinct atomic laws (see :func:`_system`) and
    ``id_phi(x) -> (phi, phi')`` is the summed phi of the infinitely
    divisible terms, or None.  Returns ``(F, omegas, converged)``;
    ``omegas[j]`` is omega_j with F_j(omega_j) = F, shared by the copies of
    law j, in the given order.
    """
    unknown, c, first, last, order = system
    stacked = np.ndim(c) > 0
    if id_phi is None and last is None and not stacked and c == 1:  # omega = z: F = z + h(z)
        f = z if unknown is None else z + _h_and_deriv(*unknown, z)[0]
        return f, [] if unknown is None else [z], np.ones(z.shape, bool)
    zero = np.zeros_like(z)

    def residual(x):
        """x - T(x), its Newton step and (F, omega_e); x is the unknown omegas, or F itself."""
        h, hp = (zero, zero) if unknown is None else _h_and_deriv(*unknown, x)
        f = x[0] + h[0] if stacked else x + h
        d, s, v = 1.0 + hp, c * h, c * hp  # v = d omega_e / d omega without phi_ID
        om_e = z + (s.sum(axis=0) if stacked else s)
        if id_phi is not None:
            p, dp = id_phi(f)
            om_e, v = om_e - p, v - dp * (first * d)
        he, hpe = (zero, zero) if last is None else _h_and_deriv(*last, om_e)
        r = x - (om_e + he - h)
        # the Jacobian of r is diag(d) - 1 u^T, with u = F_e'(omega_e) d omega_e / d omega
        u = (1.0 + hpe) * v
        if stacked:  # Sherman-Morrison, b = diag(d)^-1
            b = 1.0 / _nonzero(d)
            step = -b * (r + (u * b * r).sum(axis=0) / _nonzero(1.0 - (u * b).sum(axis=0)))
        else:
            step = -r / _nonzero(d - u)
        return r, step, (f, om_e)

    start = z + 2j
    if stacked:
        start = np.broadcast_to(start, (len(c), *z.shape))
    x, (f, om_e), ok = _damped_newton(
        residual, start, z, tol=FIXED_POINT_TOL, maxiter=FIXED_POINT_MAXITER, fixed_point=True
    )
    solved = list(x) if stacked else [] if unknown is None else [x]
    if last is not None:
        solved.append(om_e)
    omegas = [solved[k] for k in sorted(range(len(order)), key=order.__getitem__)]  # in the given order
    return f, omegas, ok


@dataclass(frozen=True)
class FreeConvRep:
    """Lazy representation of a free convolution: phi = sum of term phis + shift.

    ``laws`` are distinct atomic laws (no two byte-equal, none a point
    mass) and ``counts`` their multiplicities; ``ids`` are infinitely
    divisible laws as callables ``z -> (phi, phi')``, each one pass over
    its law; ``shift`` adds the constant phi of a point mass.  phi is
    ``sum(counts[j] phi_j) + sum(phi_ID) + shift``.  ``stack`` (the laws'
    padded stack, or None) and ``system`` (it arranged for the subordination
    solve) are built once.
    """

    laws: tuple
    counts: tuple
    ids: tuple
    shift: float
    stack: RowStack | None = field(init=False, repr=False, compare=False)
    system: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = row_stack(list(zip(self.laws, self.counts))) if self.laws else None
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "system", _system(stack))

    def phi(self, z):
        """phi of the representation at z (z within the working cone).

        The distinct atomic laws' F are inverted in one Newton solve over
        their padded stack.
        """
        z = np.asarray(z, dtype=complex)
        total = np.full(z.shape, complex(self.shift))
        if self.stack is not None:
            target = np.broadcast_to(z.ravel(), (len(self.laws), z.size))
            roots, ok = newton_f_inverse(self.stack.points[:, None], self.stack.weights[:, None], target, target)
            total = total + (self.stack.counts @ np.where(ok, roots - target, np.nan)).reshape(z.shape)
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
            values = [t(x) for t in self.ids]
            return sum(v[0] for v in values), sum(v[1] for v in values)

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
        f, omegas, ok = _subordinate(z.ravel(), self.system, self._id_phi())
        if not ok.all():
            raise NoConvergence(
                f"subordination did not settle at {(~ok).sum()} of {ok.size} points"
            )
        out = reflect(f.reshape(z.shape))
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
        _require_eps(eps)
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
