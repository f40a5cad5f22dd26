import contextlib
import functools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bifree.biconv as bc
import bifree.idlaw as idlaw
import bifree.transforms as tf
from bifree.biconv import bi_free_convolve
from bifree.freeconv import free_convolve_many
from bifree.idlaw import CharTriplet, LevyMeasure, RadialPart, make_compound_poisson, make_gaussian
from bifree.measure import AtomicMeasure2D, Matrix2, Measure1D, PlanarMeasure, dirac
from bifree.serialize import measure_from_dict, measure_to_dict, rep_from_dict
from bifree.transforms import bi_free_phi, cone_for, inversion_values

from oracles import richardson_limit, smoothed_atoms_2d

MU = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
B = Measure1D([(1.0, 0.5), (-1.0, 0.5)])
GAUSS = make_gaussian((0.2, -0.1), Matrix2(0.3, 0.05, 0.2))


def bicone_probes(n=100, seed=7):
    rng = np.random.default_rng(seed)
    y = rng.uniform(9.0, 40.0, n) * rng.choice([-1.0, 1.0], n)
    x = rng.uniform(-0.9, 0.9, n) * np.abs(y)
    v = rng.uniform(9.0, 40.0, n) * rng.choice([-1.0, 1.0], n)
    u = rng.uniform(-0.9, 0.9, n) * np.abs(v)
    return x + 1j * y, u + 1j * v


class TestBiFreeConvolve:
    def test_dirac_sum(self):
        rep = bi_free_convolve([dirac((1.0, 2.0)), dirac((0.5, -3.0))])
        for z, w in [(5j, 5j), (4j, -6j)]:
            assert rep.phi(z, w) == pytest.approx(1.5 / z - 1.0 / w, abs=1e-11)

    def test_dirac_shift_equivalence(self):
        reps = [
            bi_free_convolve([MU, dirac((0.3, -0.4))]),
            bi_free_convolve([MU], shift=(0.3, -0.4)),
        ]
        vals = [r.phi(5j, 6j) for r in reps]
        assert vals[0] == pytest.approx(vals[1], abs=1e-11)
        assert vals[0] == pytest.approx(
            bi_free_phi(MU, 5j, 6j) + 0.3 / 5j + (-0.4) / 6j, abs=1e-11
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bi_free_convolve([])

    def test_phi_linearization(self):
        nu = PlanarMeasure([((0.5, -0.5), 0.4), ((-0.2, 0.8), 0.6)])
        rep = bi_free_convolve([MU, nu])
        zs, ws = bicone_probes(100)
        got = np.array([rep.phi(z, w) for z, w in zip(zs, ws)])
        expect = np.array(
            [bi_free_phi(MU, z, w) + bi_free_phi(nu, z, w) for z, w in zip(zs, ws)]
        )
        assert np.max(np.abs(got - expect)) < 1e-11

    def test_weak_continuity_rate(self):
        # perturbing atoms at scale 1/n moves phi by O(1/n)
        base = bi_free_convolve([MU]).phi(6j, 7j)
        deltas = []
        for n in (10, 100, 1000):
            pert = PlanarMeasure(
                [((1.0 + 1.0 / n, 1.0 - 0.5 / n), 0.5), ((-1.0 + 0.3 / n, -1.0), 0.5)]
            )
            deltas.append(abs(bi_free_convolve([pert]).phi(6j, 7j) - base))
        assert 5.0 < deltas[0] / deltas[1] < 20.0
        assert 5.0 < deltas[1] / deltas[2] < 20.0


class TestEvalG2D:
    def test_dirac(self):
        rep = bi_free_convolve([dirac((1.0, 2.0))])
        assert rep.cauchy(5j, 5j) == pytest.approx(1.0 / ((5j - 1) * (5j - 2)), abs=1e-11)

    def test_shift_matches_atomic_oracle(self):
        rep = bi_free_convolve([MU, dirac((1.0, 0.0))])
        shifted = PlanarMeasure([((2.0, 1.0), 0.5), ((0.0, -1.0), 0.5)])
        from bifree.transforms import cauchy2d

        for z, w in [(5j, 5j), (-4j, 7j), (2 + 6j, -1 - 5j)]:
            assert rep.cauchy(z, w) == pytest.approx(cauchy2d(shifted, z, w), abs=1e-9)

    @pytest.mark.parametrize("items", [[MU], [dirac((1.0, 2.0))], [MU, MU], [MU, GAUSS]])
    def test_cauchy_is_the_first_output_of_cauchy_with_marginals(self, items):
        rep = bi_free_convolve(items, shift=(0.3, -0.4))
        Z, W = np.array([5j, 2 - 3j]), np.array([-4j, 1 + 2j])
        np.testing.assert_array_equal(rep.cauchy(Z, W), rep.cauchy_with_marginals(Z, W)[0])
        assert type(rep.cauchy(5j, 6j)) is complex

    def test_marginal_slice_richardson(self):
        rep = bi_free_convolve([MU, MU])
        Z = 3j
        vs = [50.0, 100.0, 200.0]
        vals = [1j * v * rep.cauchy(Z, 1j * v) for v in vs]
        slice_limit = richardson_limit(vals, [1.0 / v for v in vs])
        marg = rep.marginal(1)
        assert slice_limit == pytest.approx(marg.cauchy(Z), abs=1e-6)


class TestMarginalRep:
    def test_dirac(self):
        rep = bi_free_convolve([dirac((1.0, 2.0)), dirac((3.0, -1.0))])
        m1 = rep.marginal(1)
        assert m1.cauchy(5j) == pytest.approx(1.0 / (5j - 4.0), abs=1e-11)

    def test_arcsine_marginal(self):
        rep = bi_free_convolve([MU, MU])
        m1 = rep.marginal(1)
        z = 5j
        expect = complex(z * np.sqrt(1 + 4 / (z * z)) - z)
        assert m1.phi(np.asarray(z)) == pytest.approx(expect, abs=1e-10)

    def test_axis_symmetry(self):
        rep = bi_free_convolve([MU, MU])
        for z in (5j, -3j):
            a = rep.marginal(1).cauchy(z)
            b = rep.marginal(2).cauchy(z)
            assert a == pytest.approx(b, abs=1e-11)

    def test_built_once_per_rep(self, monkeypatch):
        other = PlanarMeasure([((0.5, -0.3), 0.3), ((-0.9, 0.7), 0.3), ((1.0, 1.1), 0.4)])
        rep = bi_free_convolve([MU, other])
        calls = []
        monkeypatch.setattr(PlanarMeasure, "marginal", lambda *args: calls.append(args))
        rep.cauchy(5j, 6j)
        rep.cauchy_with_marginals(5j, 6j)
        rep.density(np.linspace(-2.0, 2.0, 5), np.linspace(-2.0, 2.0, 4), 0.5)
        assert rep.marginal(1) is rep.marginal(1)
        assert calls == []


class TestDensity2D:
    def test_dirac_bump(self):
        rep = bi_free_convolve([dirac((0.0, 0.0))])
        grid = rep.density([0.0], [0.0], 0.1)
        assert grid.values[0, 0] == pytest.approx(100 / np.pi**2, abs=1e-10)

    def test_atomic_round_trip(self):
        # all-Dirac terms sum to a single point mass; the grid must match
        # the closed-form product-kernel smoothing
        rep = bi_free_convolve([dirac((1.3, -0.4)), dirac((-0.8, 0.6))])
        s_axis = np.linspace(-3, 3, 25)
        t_axis = np.linspace(-3, 3, 27)
        grid = rep.density(s_axis, t_axis, 0.1)
        oracle = smoothed_atoms_2d([((0.5, 0.2), 1.0)], s_axis, t_axis, 0.1)
        assert np.max(np.abs(grid.values - oracle)) < 1e-9

    def test_marginal_commuting_square(self):
        rep = bi_free_convolve([MU, MU])
        eps = 0.05
        s_axis = np.linspace(-4, 4, 161)
        t_axis = np.linspace(-6, 6, 241)
        grid = rep.density(s_axis, t_axis, eps)
        _, row_marginal = grid.marginal(1)
        direct = rep.marginal(1).density(s_axis, eps)
        l1 = float(np.sum(np.abs(row_marginal - direct)) * (s_axis[1] - s_axis[0]))
        assert l1 <= 0.02

    @pytest.mark.parametrize("items,shift", [
        ([MU], (0.0, 0.0)), ([MU], (0.3, -0.4)), ([dirac((0.5, 0.2))], (0.0, 0.0)),
        ([MU, MU], (0.3, -0.4)), ([MU, GAUSS], (0.0, 0.0)),
    ])
    def test_every_density_carries_its_marginals(self, items, shift):
        # a lone law up to a shift takes its grid and its marginals from the same solves as any rep
        rep = bi_free_convolve(items, shift=shift)
        s_axis, t_axis = np.linspace(-3, 3, 13), np.linspace(-2, 2, 9)
        grid = rep.density(s_axis, t_axis, 0.1)
        for axis, ax in ((1, s_axis), (2, t_axis)):
            np.testing.assert_array_equal(grid.axis_densities[axis - 1], rep.marginal(axis).density(ax, 0.1))

    def test_mass_in_window(self):
        rep = bi_free_convolve([MU, MU])
        s_axis = np.linspace(-5, 5, 161)
        grid = rep.density(s_axis, s_axis, 0.05)
        assert grid.riemann_mass() >= 0.9


class TestMixedTerms:
    def test_measure_plus_triplet(self):
        from bifree.idlaw import make_gaussian
        from bifree.measure import Matrix2

        gauss = make_gaussian((0.0, 0.0), Matrix2(0.5, 0.0, 0.5))
        rep = bi_free_convolve([MU, gauss])
        for z, w in [(5j, 5j), (-4j, 6j), (1 + 7j, -2 - 5j)]:
            assert rep.phi(z, w) == pytest.approx(
                bi_free_phi(MU, z, w) + gauss.bi_free_phi(z, w), abs=1e-10
            )
        # the law is invariant under x -> -x, so G(iy, iy) is real
        g = rep.cauchy(5j, 5j)
        assert abs(g.imag) <= 1e-15 * abs(g)
        z, w = 1 + 5j, -2 + 6j
        g = rep.cauchy(z, w)
        assert abs(rep.cauchy(np.conj(z), np.conj(w)) - np.conj(g)) <= 1e-15 * abs(g)
        axis = np.linspace(-6, 6, 61)
        grid = rep.density(axis, axis, 0.1)
        assert grid.riemann_mass() >= 0.9


    @staticmethod
    def b2_plus_truncated_rays():
        # rays in opposite pairs on [0.2, 5]: both terms are symmetric under x -> -x
        rays = tuple((0.3 + 0.5 * math.pi * k, 0.25) for k in range(4))
        trip = CharTriplet((0.0, 0.0), Matrix2(0.0, 0.0, 0.0),
                           LevyMeasure(AtomicMeasure2D(), RadialPart(1.2, rays, 0.2, 5.0)))
        return bi_free_convolve([PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)]), trip])

    def test_b2_plus_truncated_rays_density(self):
        rep = self.b2_plus_truncated_rays()
        axis = np.linspace(-3.0, 3.0, 16)
        vals = rep.density(axis, axis, 0.1).values
        assert np.all(np.isfinite(vals))
        assert vals.min() >= -1e-9 * vals.max()
        np.testing.assert_allclose(vals, vals[::-1, ::-1], rtol=0, atol=1e-8 * vals.max())

    def test_truncated_marginal_phi_and_derivative_share_kernel_calls(self, monkeypatch):
        # each subordination step gets phi and phi' of the rays from one kernel call per block
        calls = []
        real = idlaw.quad
        monkeypatch.setattr(idlaw, "quad", lambda *a: calls.append(1) or real(*a))
        rep = self.b2_plus_truncated_rays()
        axis = np.linspace(-3.0, 3.0, 16)
        rep.density(axis, axis, 0.1)
        assert len(calls) == 20  # 32 with separate phi and phi' kernel calls


class TestRepSerialization:
    def test_round_trip(self):
        rep = bi_free_convolve([MU, dirac((0.1, 0.2))], shift=(0.5, -0.5))
        back = rep_from_dict({
            "terms": [{"measure": measure_to_dict(MU)}, {"measure": {"atoms": [{"x": [0.1, 0.2], "w": 1.0}]}}],
            "shift": [0.5, -0.5],
        })
        assert back.shift == rep.shift
        assert back.phi(5j, 6j) == pytest.approx(rep.phi(5j, 6j), abs=1e-12)

    def test_round_trip_with_triplet_term(self):
        from bifree.idlaw import make_compound_poisson

        cp = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        rep = bi_free_convolve([MU, cp])
        back = rep_from_dict({"terms": [
            {"measure": measure_to_dict(MU)},
            {"triplet": {"v": [1 / 3, 1 / 3], "A": [[0.0, 0.0], [0.0, 0.0]],
                         "tau": {"atoms": [{"x": [1.0, 1.0], "m": 1.0}]}}},
        ]})
        assert back.phi(5j, 6j) == pytest.approx(rep.phi(5j, 6j), abs=1e-12)


coords = st.floats(-1.5, 1.5)


@st.composite
def planar_laws(draw):
    """Two- or three-atom planar laws with weights bounded away from 0."""
    n = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return PlanarMeasure([(p, w / total) for p, w in zip(points, weights)])


@st.composite
def unit_bicone(draw, n=5):
    """n points x + iy with |x| <= |y| and 1 <= |y| <= 3; scale by the cone height."""
    def one():
        y = draw(st.floats(1.0, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return draw(st.floats(-1.0, 1.0)) * abs(y) + 1j * y

    return np.array([one() for _ in range(n)]), np.array([one() for _ in range(n)])


class TestBroadcastProperties:
    """Array, grid and scalar evaluation of two-term atomic reps agree.

    Arrays and scalars run the same arithmetic per point.  A grid contracts
    over the atoms with one matrix product instead of dot products, which
    moves phi, a sum of terms of order one, by a few units of rounding.
    """

    @given(planar_laws(), planar_laws(), unit_bicone())
    def test_cauchy_arrays_match_points(self, m1, m2, probes):
        rep = bi_free_convolve([m1, m2])
        z, w = (rep.cone.M * p for p in probes)
        want = np.array([rep.cauchy(a, b) for a, b in zip(z, w)])
        np.testing.assert_allclose(rep.cauchy(z, w), want, rtol=1e-14, atol=0)

    @given(planar_laws(), planar_laws(), unit_bicone())
    def test_phi_arrays_and_grid_match_points(self, m1, m2, probes):
        rep = bi_free_convolve([m1, m2])
        z, w = (rep.cone.M * p for p in probes)
        want = np.array([rep.phi(a, b) for a, b in zip(z, w)])
        np.testing.assert_allclose(rep.phi(z, w), want, rtol=1e-14, atol=0)
        want_grid = np.array([[rep.phi(a, b) for b in w] for a in z])
        np.testing.assert_allclose(rep.phi(z[:, None], w[None, :]), want_grid, rtol=1e-12, atol=1e-14)

    @given(planar_laws(), unit_bicone())
    def test_bi_free_phi_broadcast_matches_points(self, mu, probes):
        z, w = (cone_for(mu).M * p for p in probes)
        want = np.array([[bi_free_phi(mu, a, b) for b in w] for a in z])
        np.testing.assert_allclose(bi_free_phi(mu, z[:, None], w[None, :]), want, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(bi_free_phi(mu, z, w), np.diag(want), rtol=1e-14, atol=0)

    @given(planar_laws(), planar_laws(), st.floats(0.2, 1.0))
    def test_density_is_pointwise_inversion(self, m1, m2, eps):
        rep = bi_free_convolve([m1, m2])
        s_axis = np.linspace(-3.0, 3.0, 7)
        t_axis = np.linspace(-2.5, 2.5, 6)
        Z, W = np.meshgrid(s_axis + 1j * eps, t_axis + 1j * eps, indexing="ij")
        want = inversion_values(rep.cauchy(Z, W), rep.cauchy(Z, np.conj(W)))
        got = rep.density(s_axis, t_axis, eps).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


POISSON = make_compound_poisson(0.5, PlanarMeasure([((0.5, -0.4), 0.5), ((-0.3, 0.6), 0.5)]))
nonzero = st.builds(lambda x, sign: sign * x, st.floats(0.05, 1.0), st.sampled_from([-1.0, 1.0]))
# a point x + iy off the real axis, in either half-plane, with 0.1 <= |y| <= 3
off_axis = st.builds(lambda x, y, sign: x + 1j * sign * 10.0**y, st.floats(-3.0, 3.0), st.floats(-1.0, 0.5),
                     st.sampled_from([-1.0, 1.0]))


@st.composite
def stacked_reps(draw):
    """Terms and shift of a rep with 1-4 atomic terms.

    One law comes back as the same object, as an equal-content copy loaded
    from JSON, or both; other laws and a triplet may join, in any order, and
    the shift is nonzero in both coordinates.
    """
    law = draw(planar_laws())
    copy = measure_from_dict(json.loads(json.dumps(measure_to_dict(law))))
    repeats = draw(st.sampled_from([[], [law], [copy], [law, copy]]))
    others = draw(st.lists(planar_laws(), max_size=3 - len(repeats)))
    triplet = draw(st.sampled_from([[], [GAUSS], [POISSON]]))
    terms = draw(st.permutations([law, *repeats, *others, *triplet]))
    return terms, (draw(nonzero), draw(nonzero))


def term_phis(terms, shift, z, w):
    """shift/z, shift/w and every term's phi, term by term."""
    return [shift[0] / z, shift[1] / w] + [
        bi_free_phi(t, z, w) if isinstance(t, PlanarMeasure) else t.bi_free_phi(z, w) for t in terms
    ]


def law_key(m):
    """Content key of a law: its frozen points and weights, as the reps group them."""
    return m.points.tobytes(), m.weights.tobytes()


def started_phi(m, z, w, start1, start2):
    """Law m's phi at (z, w), its marginals inverted by Newton from the given starts."""
    i1, ok1 = tf.newton_f_inverse(m.points[:, 0], m.weights, z, start1)
    i2, ok2 = tf.newton_f_inverse(m.points[:, 1], m.weights, w, start2)
    assert ok1.all() and ok2.all()
    return (i1 - z) / z + (i2 - w) / w + 1.0 - 1.0 / (z * w * tf.cauchy2d(m, i1, i2))


def reference_cauchy(terms, shift, Z, W):
    """G at (Z, W) by the phi relation, term by term.

    Each marginal is solved on its own rep built here from the terms'
    marginals in term order, which stores equal marginals once with their
    count.  Each law's phi is ``started_phi`` started at the
    subordination function of its marginal (at F + p where its marginal is
    the point p).
    """
    laws = [t for t in terms if isinstance(t, PlanarMeasure)]
    triplets = [t for t in terms if not isinstance(t, PlanarMeasure)]

    def solve(axis, zeta):
        lines = [m.marginal(axis) for m in laws]
        rep = free_convolve_many(lines, [functools.partial(t.marginal_phi_dphi, axis) for t in triplets],
                                 shift[axis - 1])
        f, aux = rep.f_value(zeta, return_aux=True)
        omegas = {law_key(x): om for x, om in zip(rep.laws, aux)}
        return f, [f + x.points[0] if len(x) == 1 else omegas[law_key(x)] for x in lines]

    (z1, starts1), (w2, starts2) = solve(1, Z), solve(2, W)
    phi = shift[0] / z1 + shift[1] / w2 + sum(t.bi_free_phi(z1, w2) for t in triplets)
    phi = phi + sum(started_phi(m, z1, w2, a, b) for m, a, b in zip(laws, starts1, starts2))
    return 1.0 / (z1 * w2 * ((Z - z1) / z1 + (W - w2) / w2 + 1.0 - phi))


def reference_density(terms, shift, s_axis, t_axis, eps):
    """The planar inversion of ``reference_cauchy``; the lower w-side is solved at conj(W) itself."""
    Z = (s_axis + 1j * eps)[:, None]
    W = (t_axis + 1j * eps)[None, :]
    return inversion_values(reference_cauchy(terms, shift, Z, W), reference_cauchy(terms, shift, Z, np.conj(W)))


@contextlib.contextmanager
def counting_inversions():
    """Yields a list that gets, per newton_f_inverse call, its F evaluations."""
    evals, per_call = [], []
    f_and_deriv, newton = tf._f_and_deriv, tf.newton_f_inverse

    def counting_f(*args):
        evals.append(1)
        return f_and_deriv(*args)

    def counting_newton(*args, **kwargs):
        evals.clear()
        out = newton(*args, **kwargs)
        per_call.append(len(evals))
        return out

    with mock.patch.object(tf, "_f_and_deriv", counting_f), \
            mock.patch.object(tf, "newton_f_inverse", counting_newton):
        yield per_call


class TestStackedRep:
    """A rep groups its atomic terms into one stack with counts; its phi and
    density match term-by-term evaluation, and its warm starts stay aligned
    with the stack."""

    @given(stacked_reps(), unit_bicone())
    def test_phi_matches_term_sum(self, drawn, probes):
        terms, shift = drawn
        rep = bi_free_convolve(terms, shift=shift)
        # laws that merged to one atom are folded into the shift
        laws = [t for t in terms if isinstance(t, PlanarMeasure) and len(t) > 1]
        assert (0 if rep.stack is None else sum(rep.stack.counts)) == len(laws)
        z, w = (rep.cone.M * p for p in probes)
        for zz, ww in [(z[0], w[0]), (z[1], w[1]), (z, w), (z[:, None], w[None, :])]:
            parts = term_phis(terms, shift, zz, ww)
            scale = sum(np.abs(p) for p in parts)
            assert np.all(np.abs(rep.phi(zz, ww) - sum(parts)) <= 1e-13 * scale)

    @settings(max_examples=50)
    @given(stacked_reps(), st.floats(0.2, 1.0))
    def test_density_matches_term_by_term_recovery(self, drawn, eps):
        terms, shift = drawn
        rep = bi_free_convolve(terms, shift=shift)
        s_axis = np.linspace(-3.0, 3.0, 7)
        t_axis = np.linspace(-2.5, 2.5, 6)
        with counting_inversions() as per_call:
            got = rep.density(s_axis, t_axis, eps).values
        # the subordination solves give every inverse that recovery needs
        assert per_call == []
        want = reference_density(terms, shift, s_axis, t_axis, eps)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


FULL_RAYS = CharTriplet((0.1, 0.0), Matrix2(0.0, 0.0, 0.0),
                        LevyMeasure(AtomicMeasure2D(), RadialPart(1.5, ((0.4, 0.3), (2.0, 0.2), (4.0, 0.25)))))
# with blocks of 12 nodes, (rows, columns): one block; rows not a multiple
# of a block's rows; a grid wider than a block
BLOCK_GRIDS = [(2, 6), (7, 5), (2, 15)]


@st.composite
def counted_reps(draw):
    """Terms and shift of a rep of 2-4 atomic laws, each given 1-3 times, and maybe a triplet."""
    laws = draw(st.lists(planar_laws(), min_size=2, max_size=4))
    terms = [m for m in laws for _ in range(draw(st.integers(1, 3)))]
    terms += draw(st.sampled_from([[], [GAUSS], [FULL_RAYS]]))
    return draw(st.permutations(terms)), (draw(nonzero), draw(nonzero))


class TestBlockedRecovery:
    """The row-blocked density agrees with term-by-term recovery and with
    pointwise ``cauchy``, on grids that split into blocks unevenly."""

    @settings(max_examples=10, deadline=None)
    @given(counted_reps(), st.sampled_from(BLOCK_GRIDS), st.floats(0.2, 1.0))
    def test_density_matches_references(self, drawn, shape, eps):
        terms, shift = drawn
        rep = bi_free_convolve(terms, shift=shift)
        s_axis = np.linspace(-3.0, 3.0, shape[0])
        t_axis = np.linspace(-2.5, 2.5, shape[1])
        with mock.patch.object(bc, "BLOCK_NODES", 12):
            got = rep.density(s_axis, t_axis, eps).values
        want = reference_density(terms, shift, s_axis, t_axis, eps)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        Z, W = np.meshgrid(s_axis + 1j * eps, t_axis + 1j * eps, indexing="ij")
        pointwise = inversion_values(rep.cauchy(Z, W), rep.cauchy(Z, np.conj(W)))
        assert np.max(np.abs(got - pointwise)) <= 1e-13 * np.max(np.abs(pointwise))

    @settings(max_examples=25, deadline=None)
    @given(counted_reps(), st.lists(off_axis, min_size=1, max_size=5), st.lists(off_axis, min_size=1, max_size=4))
    def test_outer_grid_matches_elementwise(self, drawn, z, w):
        # an outer grid takes the pair sum's matrix products, a flat list of pairs its dot products
        terms, shift = drawn
        rep = bi_free_convolve(terms, shift=shift)
        z, w = np.array(z), np.array(w)
        Z, W = (x.ravel() for x in np.meshgrid(z, w, indexing="ij"))
        grid = rep.cauchy_with_marginals(z[:, None], w[None, :])
        flat = rep.cauchy_with_marginals(Z, W)
        for got, want in zip((rep.cauchy(z[:, None], w[None, :]), *grid), (flat[0], *flat)):
            got = np.broadcast_to(got, (len(z), len(w))).ravel()
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_cauchy_with_marginals_with_a_gaussian_term(self):
        terms = [MU, GAUSS, MU, PlanarMeasure([((0.5, -0.3), 0.3), ((-0.9, 0.7), 0.3), ((1.0, 1.1), 0.4)])]
        shift = (0.3, -0.2)
        rep = bi_free_convolve(terms, shift=shift)
        # both half-planes on each side, and a point near the axes
        Z = np.array([0.5 + 0.3j, -1.0 + 2.0j, 2.0 - 0.5j, 0.1 + 0.05j])
        W = np.array([1.0 - 0.4j, 0.2 + 1.5j, -0.7 + 0.2j, -0.2 + 0.05j])
        with counting_inversions() as per_call:
            G, G1, G2 = rep.cauchy_with_marginals(Z, W)
        assert per_call == []
        want = reference_cauchy(terms, shift, Z, W)
        assert np.max(np.abs(G - want)) <= 1e-10 * np.max(np.abs(want))
        np.testing.assert_allclose(G1, rep.marginal(1).cauchy(Z), rtol=1e-14)
        np.testing.assert_allclose(G2, rep.marginal(2).cauchy(W), rtol=1e-14)


def lone_law(atoms, seed):
    """A random law of the given number of atoms on [-2, 2]^2."""
    rng = np.random.default_rng(seed)
    return PlanarMeasure(list(zip(map(tuple, rng.uniform(-2.0, 2.0, (atoms, 2))), rng.dirichlet(np.ones(atoms)))))


class TestLoneLaw:
    """One atomic law counted once, with no triplet, up to a shift: G is the
    law's own G at the marginal inverses, in the same row blocks as any rep."""

    LAW = lone_law(300, 3)
    SHIFT = (0.3, -0.7)

    def test_density_equals_the_smoothed_atoms(self):
        rep = bi_free_convolve([self.LAW], shift=self.SHIFT)
        assert rep.lone
        axis = np.linspace(-3.0, 3.0, 64)
        atoms = [((s + self.SHIFT[0], t + self.SHIFT[1]), p) for (s, t), p in zip(self.LAW.points, self.LAW.weights)]
        got = rep.density(axis, axis, 0.1).values
        assert np.max(np.abs(got - smoothed_atoms_2d(atoms, axis, axis, 0.1))) <= 1e-9

    def test_density_forms_no_atom_axis_over_the_grid(self):
        rep = bi_free_convolve([self.LAW], shift=self.SHIFT)
        axis = np.linspace(-3.0, 3.0, 64)
        rep.density(axis, axis, 0.1)
        tracemalloc.start()
        try:
            rep.density(axis, axis, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (S, T, m) complex array is 64 * 64 * 300 * 16 bytes = 19.7 MB
        assert peak <= 64 * 64 * 300 * 16 / 8

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.1, 0.2)])
    def test_b2_vanishes_without_a_degenerate_denominator(self, shift):
        # G_B2(i, i) = 0, where D of the phi relation is degenerate
        rep = bi_free_convolve([MU], shift=shift)
        assert abs(rep.cauchy(shift[0] + 1j, shift[1] + 1j)) <= 1e-15

    @given(planar_laws(), nonzero, nonzero, st.lists(off_axis, min_size=1, max_size=4),
           st.lists(off_axis, min_size=1, max_size=4))
    def test_cauchy_with_marginals_equals_the_shifted_law(self, law, a, b, z, w):
        rep = bi_free_convolve([law], shift=(a, b))
        moved = law.shifted_by((-a, -b))
        z, w = np.array(z)[:, None], np.array(w)[None, :]
        G, G1, G2 = rep.cauchy_with_marginals(z, w)
        # each bound is relative to the sum of the terms' moduli: G may vanish
        s, t, p = moved.points[:, 0], moved.points[:, 1], moved.weights
        scale = (p / np.abs((z[..., None] - s) * (w[..., None] - t))).sum(axis=-1)
        assert np.all(np.abs(G - tf.cauchy2d(moved, z, w)) <= 1e-13 * scale)
        for g, x, line in ((G1, z, moved.marginal(1)), (G2, w, moved.marginal(2))):
            line_scale = (line.weights / np.abs(x[..., None] - line.points)).sum(axis=-1)
            assert np.all(np.abs(g - tf.cauchy1d(line, x)) <= 1e-13 * line_scale)


class TestDegenerateChecks:
    """A raised DEGENERATE_TOL trips both checks: |z w G_g| of each atomic law,
    on the phi and recovery paths, and |D| of the phi relation."""

    @pytest.fixture(autouse=True)
    def huge_tolerance(self, monkeypatch):
        for module in (bc, tf):
            monkeypatch.setattr(module, "DEGENERATE_TOL", 1e3)

    def test_pair_denominator(self):
        rep = bi_free_convolve([MU, GAUSS])
        axis = np.linspace(-1.0, 1.0, 3)
        calls = [lambda: rep.density(axis, axis, 0.5), lambda: rep.cauchy(5j, 6j), lambda: rep.phi(30j, 40j)]
        for call in calls:
            with pytest.raises(tf.DegenerateDenominator, match="enlarge the cone height"):
                call()

    def test_relation_denominator(self):
        rep = bi_free_convolve([GAUSS, POISSON])
        axis = np.linspace(-1.0, 1.0, 3)
        for call in (lambda: rep.density(axis, axis, 0.5), lambda: rep.cauchy(5j, 6j)):
            with pytest.raises(tf.DegenerateDenominator, match="phi-relation denominator vanished"):
                call()


@pytest.mark.parametrize("eps", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["free", "bi_free", "stieltjes2d"])
def test_non_finite_eps_is_rejected(entry, eps):
    # before any solve: a genuine convolution would run its fixed-point loop on NaN
    rep = bi_free_convolve([MU, PlanarMeasure([((0.5, -0.5), 0.3), ((-0.2, 0.4), 0.7)])])
    axis = np.linspace(-1.0, 1.0, 3)
    calls = {
        "free": lambda: rep.marginal(1).density(axis, eps),
        "bi_free": lambda: rep.density(axis, axis, eps),
        "stieltjes2d": lambda: tf.stieltjes2d(functools.partial(tf.cauchy2d, MU), axis, axis, eps),
    }
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        calls[entry]()
