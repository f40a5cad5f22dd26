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

Convolutions solved together, such as the two marginals of a planar
convolution (``_f_values``), share one Newton loop: their points side by
side along the entry axis, their unknowns on the leading axis, where a
system with fewer unknowns is padded with rows whose residual and step are
0.  Such rows settle at once and move no reduction over the unknowns, so
every point takes the iterates of a loop of its own, bit for bit; a system
whose unknowns did not move keeps its last residual.  A convolution in
closed form (omega = z) takes no loop.
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


def _h(points: np.ndarray, weights: np.ndarray, wp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h of :func:`_h_and_deriv` alone, computed as it computes it."""
    inv = 1.0 / (x[..., None] - points)
    return -(inv @ wp).reshape(x.shape) / (inv @ weights).reshape(x.shape)


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


def _residual(z: np.ndarray, system: tuple, id_phi):
    """The residual of the subordination system at z, for ``_damped_newton``.

    Returns ``(residual, lead)``, or None where the map is constant: with no
    infinitely divisible term and at most one law, counted once, omega = z.
    ``residual(x)`` gives x - T(x), its Newton step and (F, omega_e); x is
    the unknown omegas, (lead, K) for a stack of ``lead`` laws, or (K,) for
    one unknown (lead 0), which may be F itself.
    """
    unknown, c, first, last, _ = system
    stacked = np.ndim(c) > 0
    if id_phi is None and last is None and not stacked and c == 1:
        return None
    zero = np.zeros_like(z)

    def residual(x):
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

    return residual, len(c) if stacked else 0


def _subordinate(problems: Sequence[tuple]) -> list:
    """F of each convolution at its z in C+ (a flat array), with the omegas.

    ``problems`` holds ``(z, system, id_phi)`` per convolution: its points,
    its distinct atomic laws (see :func:`_system`) and ``id_phi(x) -> (phi,
    phi')``, the summed phi of its infinitely divisible terms, or None.
    Every system whose map is not constant is solved in one
    ``_damped_newton`` loop, started at z + 2i: the systems' entries side
    by side along the entry axis and their unknowns on a leading axis, a
    system with fewer unknowns than the most padded with rows whose
    residual and step are 0.  Those rows settle at once and change no
    reduction over the unknowns, so each entry's iterates are those of a
    loop of its own.  Returns ``(F, omegas, converged)`` per problem;
    ``omegas[j]`` is omega_j with F_j(omega_j) = F, shared by the copies of
    law j, in the given order.
    """
    out, looped = [], []
    for z, system, id_phi in problems:
        part = _residual(z, system, id_phi)
        if part is None:  # F = z + h(z)
            unknown = system[0]
            out.append((z if unknown is None else z + _h(*unknown, z),
                        [] if unknown is None else [z], np.ones(z.shape, bool)))
        else:
            looped.append((len(out), *part))
            out.append(None)
    if not looped:
        return out
    rows = max(lead for _, _, lead in looped)
    if len(looped) == 1:
        (k, residual, _), = looped
        z, ats, cols = problems[k][0], [slice(None)], [slice(None)]
    else:
        # each system's entries, and where its unknowns sit in x
        cols, ats, lo = [], [], 0
        for k, _, lead in looped:
            cols.append(slice(lo, lo + problems[k][0].size))
            ats.append((slice(lead) if lead else 0, cols[-1]) if rows else cols[-1])
            lo = cols[-1].stop
        z = np.concatenate([problems[k][0] for k, _, _ in looped])
        seen = [(None, None)] * len(looped)  # each system's last unknowns, as bytes, and their residual

        def residual(x):
            r, step, aux = np.zeros(x.shape, complex), np.zeros(x.shape, complex), []
            for j, ((_, res, _), at) in enumerate(zip(looped, ats)):
                key = x[at].tobytes()
                if key != seen[j][0]:  # a system whose unknowns did not move keeps its residual
                    seen[j] = key, res(x[at])
                r[at], step[at], part = seen[j][1]
                aux.append(part)
            return r, step, aux

    start = z + 2j
    x, aux, ok = _damped_newton(residual, np.broadcast_to(start, (rows, z.size)) if rows else start, z,
                                tol=FIXED_POINT_TOL, maxiter=FIXED_POINT_MAXITER, fixed_point=True)
    for (k, _, lead), at, col, (f, om_e) in zip(looped, ats, cols, [aux] if len(looped) == 1 else aux):
        unknown, _, _, last, order = problems[k][1]
        solved = list(x[at]) if lead else [] if unknown is None else [x[at]]
        if last is not None:
            solved.append(om_e)
        omegas = [solved[j] for j in sorted(range(len(order)), key=order.__getitem__)]  # in the given order
        out[k] = f, omegas, ok[col]
    return out


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
        if not np.isfinite(self.shift):
            raise ValueError("shift must be finite")
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
        return _f_values((self,), (zeta,), return_aux)[0]

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


def _f_values(reps: Sequence[FreeConvRep], zetas: Sequence, return_aux: bool = True) -> list:
    """``rep.f_value(zeta, return_aux)`` of each rep at its own zeta, from one
    :func:`_subordinate` call, so one Newton loop for all of them.

    Raises :class:`NoConvergence`, for the first rep in order, when an
    entry does not settle.
    """
    problems, lowers = [], []
    for rep, zeta in zip(reps, zetas):
        zeta = np.asarray(zeta, dtype=complex)
        _require_nonreal(zeta, "zeta")
        lower = zeta.imag < 0
        lower = lower if lower.any() else None  # None: no point to reflect
        problems.append(((_reflect(lower, zeta) - rep.shift).ravel(), rep.system, rep._id_phi()))
        lowers.append((lower, zeta.shape))
    out = []
    for rep, (lower, shape), (f, omegas, ok) in zip(reps, lowers, _subordinate(problems)):
        if not ok.all():
            raise NoConvergence(
                f"subordination did not settle at {(~ok).sum()} of {ok.size} points"
            )
        f = _reflect(lower, f.reshape(shape))
        if not return_aux:
            out.append(f)
            continue
        aux = [_reflect(lower, om.reshape(shape)) for om in omegas]
        out.append((f, aux + [f + t(f)[0] for t in rep.ids]))
    return out


def _reflect(lower: np.ndarray | None, a: np.ndarray) -> np.ndarray:
    """a with its entries conjugated where ``lower`` holds (points in the lower
    half-plane); a itself when ``lower`` is None."""
    return a if lower is None else np.where(lower, np.conj(a), a)


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
