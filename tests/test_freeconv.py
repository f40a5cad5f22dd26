import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bifree.freeconv as fc
import bifree.transforms as tf
from bifree.biconv import bi_free_convolve
from bifree.freeconv import free_convolve, free_convolve_many
from bifree.idlaw import make_compound_poisson, make_gaussian
from bifree.measure import Matrix2, Measure1D, PlanarMeasure
from bifree.transforms import f_transform

from test_biconv import counting_inversions, law_key, reference_density
from oracles import (
    atomic_moments,
    dirac1d,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
    mp_free_convolution_f,
)

B = Measure1D([(1.0, 0.5), (-1.0, 0.5)])


def sqrt_branch(z):
    """The square root of z^2 + 4 that behaves like z at infinity."""
    z = np.asarray(z, dtype=complex)
    return z * np.sqrt(1.0 + 4.0 / (z * z))


def extract_moments(rep, order=6, orders_fit=12, ys=None):
    """Least-squares read-off of moments from the large-|z| expansion of G.

    zeta (zeta G - 1) = m1 + m2/zeta + ...; fit a polynomial in 1/zeta on a
    ladder of imaginary points, with nuisance orders soaking up truncation.
    """
    if ys is None:
        ys = np.geomspace(12.0, 96.0, 9)
    zeta = 1j * ys
    g = np.array([rep.cauchy(z) for z in zeta])
    lhs = zeta * (zeta * g - 1.0)
    x = 1.0 / zeta
    cols = [x**k for k in range(orders_fit)]
    A = np.array(cols).T
    # scale columns for conditioning
    scales = np.abs(A).max(axis=0)
    A_real = np.vstack([(A / scales).real, (A / scales).imag])
    b = np.concatenate([lhs.real, lhs.imag])
    sol, *_ = np.linalg.lstsq(A_real, b, rcond=None)
    moments = sol / scales
    return [float(m) for m in moments[:order]]


class TestFreeConvolve:
    def test_dirac_sum(self):
        rep = free_convolve(dirac1d(1.0), dirac1d(2.0))
        assert rep.phi(5j) == pytest.approx(3.0, abs=1e-12)

    def test_identity_element(self):
        rep = free_convolve(B, dirac1d(0.0))
        for z in (5j, -3j, 2 + 7j):
            assert rep.phi(np.asarray(z)) == pytest.approx(
                complex((sqrt_branch(z) - z) / 2), abs=1e-10
            )

    def test_bernoulli_square_phi(self):
        rep = free_convolve(B, B)
        z = 5j
        assert rep.phi(z) == pytest.approx(complex(sqrt_branch(z) - z), abs=1e-11)

    def test_bernoulli_square_moments(self):
        rep = free_convolve(B, B)
        moments = extract_moments(rep, order=4)
        assert moments[1] == pytest.approx(2.0, rel=1e-6)
        assert moments[3] == pytest.approx(6.0, rel=1e-5)

    def test_commutative_associative(self):
        nu1 = Measure1D([(0.0, 0.3), (1.0, 0.7)])
        nu2 = Measure1D([(-1.0, 0.5), (2.0, 0.5)])
        nu3 = B
        rng = np.random.default_rng(3)
        y = rng.uniform(16.0, 60.0, 50) * rng.choice([-1, 1], 50)
        z = rng.uniform(-0.5, 0.5, 50) * np.abs(y) + 1j * y
        ab = free_convolve(nu1, nu2).phi(z) + free_convolve(nu3, nu3).phi(z) * 0
        ba = free_convolve(nu2, nu1).phi(z)
        assert np.max(np.abs(ab - ba)) < 1e-12 * np.max(1 + np.abs(z))
        left = free_convolve_many([nu1, nu2, nu3]).phi(z)
        right = free_convolve_many([nu3, nu1, nu2]).phi(z)
        assert np.max(np.abs(left - right)) < 1e-12 * np.max(1 + np.abs(z))

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="shift must be finite"):
            free_convolve_many([B, B], shift=shift)


class TestEvalG:
    def test_dirac_pair(self):
        rep = free_convolve(dirac1d(1.0), dirac1d(2.0))
        assert rep.cauchy(5j) == pytest.approx(1.0 / (5j - 3), abs=1e-12)

    def test_arcsine_closed_form(self):
        rep = free_convolve(B, B)
        z = 5j
        assert rep.cauchy(z) == pytest.approx(complex(1.0 / np.sqrt(z * z - 4)), abs=1e-11)

    def test_conjugation(self):
        rep = free_convolve(B, B)
        for z in (5j, 1 + 6j):
            assert rep.cauchy(np.conj(z)) == pytest.approx(np.conj(rep.cauchy(z)), abs=1e-10)

    def test_nevanlinna(self):
        rep = free_convolve(B, Measure1D([(0.5, 0.4), (-0.7, 0.6)]))
        rng = np.random.default_rng(4)
        y = rng.uniform(0.05, 20.0, 40)
        x = rng.uniform(-3, 3, 40)
        g = rep.cauchy(x + 1j * y)
        assert np.all(np.imag(g) < 0)


class TestSymmetricPairOnAxis:
    """mu = (d_1 + d_-1)/2 and nu = (d_b + d_-b)/2 with 0 < b < 1.

    For eps < sqrt(1 - b^2), F_{mu boxplus nu}(i eps) = i Y, where Y > 2
    solves sqrt(Y^2 - 4 b^2) - sqrt(Y^2 - 4) = 2 eps, that is
    Y^2 = ((1 - b^2)/eps - eps)^2 + 4.
    """

    @pytest.mark.parametrize(
        "b,eps,y_quoted",
        [
            (0.8, 0.1, 4.031129),
            (0.85, 0.2, 2.325974),
            (0.9, 0.2, 2.136001),
        ],
    )
    def test_f_value_on_imaginary_axis(self, b, eps, y_quoted):
        y = math.sqrt(((1.0 - b * b) / eps - eps) ** 2 + 4.0)
        assert y == pytest.approx(y_quoted, abs=1e-6)
        assert math.sqrt(y * y - 4 * b * b) - math.sqrt(y * y - 4) == pytest.approx(2 * eps)
        rep = free_convolve(B, Measure1D([(b, 0.5), (-b, 0.5)]))
        assert abs(rep.f_value(1j * eps) - 1j * y) <= 1e-9


class TestDensity:
    def test_smoothed_point(self):
        rep = free_convolve(dirac1d(1.0), dirac1d(1.0))
        val = rep.density(np.array([2.0]), 0.1)
        assert val[0] == pytest.approx(10 / np.pi, abs=1e-10)

    def test_arcsine_shape(self):
        rep = free_convolve(B, B)
        axis = np.linspace(-3.0, 3.0, 121)
        vals = rep.density(axis, 0.05)
        assert np.allclose(vals, vals[::-1], atol=1e-9)  # symmetry
        # peaks near the edges +-2 of the support
        peak_pos = axis[np.argmax(vals * (axis > 0))]
        assert 1.7 <= peak_pos <= 2.2
        assert vals[np.argmin(np.abs(axis))] == pytest.approx(1 / (2 * np.pi), abs=2e-3)

    def test_mass(self):
        rep = free_convolve(B, B)
        axis = np.linspace(-4.0, 4.0, 401)
        vals = rep.density(axis, 0.05)
        assert np.trapezoid(vals, axis) >= 0.95


class TestMomentOracle:
    @pytest.mark.parametrize(
        "nu1,nu2",
        [
            (B, B),
            (
                Measure1D([(0.0, 0.5), (1.0, 0.5)]),
                Measure1D([(-1.0, 0.25), (0.5, 0.75)]),
            ),
            (
                Measure1D([(-1.0, 0.2), (0.3, 0.5), (2.0, 0.3)]),
                Measure1D([(0.0, 0.6), (1.5, 0.4)]),
            ),
        ],
    )
    def test_six_moments_match_cumulant_addition(self, nu1, nu2):
        order = 6
        k1 = free_cumulants_from_moments(atomic_moments(nu1.points, nu1.weights, order))
        k2 = free_cumulants_from_moments(atomic_moments(nu2.points, nu2.weights, order))
        ksum = {n: k1[n] + k2[n] for n in k1}
        expect = moments_from_free_cumulants(ksum, order)
        got = extract_moments(free_convolve(nu1, nu2), order=order)
        for m_got, m_exp in zip(got, expect):
            assert m_got == pytest.approx(m_exp, rel=1e-3, abs=1e-3)


@st.composite
def line_laws(draw):
    """Two- to five-atom laws on [-3, 3] with weights bounded away from 0."""
    n = draw(st.integers(2, 5))
    points = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return Measure1D([(p, w / total) for p, w in zip(points, weights)])


@st.composite
def off_axis(draw, n=6):
    """n points with real part in [-6, 6] and |Im| in [1e-3, 10], both half-planes."""
    def one():
        y = 10.0 ** draw(st.floats(-3.0, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
        return draw(st.floats(-6.0, 6.0)) + 1j * y

    return np.array([one() for _ in range(n)])


@st.composite
def id_terms(draw):
    """Marginal phi-evaluator of a Gaussian or a compound-Poisson triplet."""
    v = draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        a = draw(st.floats(0.05, 2.0))
        trip = make_gaussian((v, 0.0), Matrix2(a, 0.0, 1.0))
    else:
        jump = st.floats(0.2, 2.0) | st.floats(-2.0, -0.2)
        xs = draw(st.lists(jump, min_size=1, max_size=3, unique=True))
        jumps = PlanarMeasure([((x, 1.0), 1.0 / len(xs)) for x in xs])
        trip = make_compound_poisson(draw(st.floats(0.1, 2.0)), jumps)
    return functools.partial(trip.marginal_phi_dphi, 1)


def assert_subordination(rep, zeta):
    """F_j(omega_j) = F for the distinct laws, sum c_j omega_j + sum omega_ID =
    z + (N - 1) F with N the number of terms counted with multiplicity, and
    the signs."""
    F, omegas = rep.f_value(zeta, return_aux=True)
    assert len(omegas) == len(rep.laws) + len(rep.ids)
    sign = np.sign(zeta.imag)
    assert np.all(np.sign(F.imag) == sign)
    for om in omegas:
        assert np.all(np.sign(om.imag) == sign)
    for m, om in zip(rep.laws, omegas):
        assert np.all(np.abs(f_transform(m, om) - F) <= 1e-10 * np.abs(F))
    counts = [*rep.counts, *[1] * len(rep.ids)]
    z = zeta - rep.shift
    total = sum(c * om for c, om in zip(counts, omegas))
    scale = np.abs(z) + sum(c * np.abs(om) for c, om in zip(counts, omegas))
    assert np.all(np.abs(total - (z + (sum(counts) - 1) * F)) <= 1e-10 * scale)


class TestSubordination:
    """F by subordination: the identities that define omega_j, and an oracle."""

    @settings(max_examples=100)
    @given(st.lists(line_laws(), min_size=2, max_size=3), off_axis())
    def test_atomic_pairs_and_triples(self, laws, zeta):
        assert_subordination(free_convolve_many(laws), zeta)

    @settings(max_examples=100)
    @given(st.lists(line_laws(), min_size=1, max_size=3), id_terms(), st.floats(-1.0, 1.0), off_axis())
    def test_atomic_laws_with_id_term(self, laws, term, shift, zeta):
        assert_subordination(free_convolve_many(laws, [term], shift), zeta)

    @settings(max_examples=100)
    @given(st.data(), st.lists(line_laws(), min_size=1, max_size=4, unique_by=law_key),
           st.lists(id_terms(), max_size=1), st.floats(-1.0, 1.0) | st.just(0.0), off_axis())
    def test_repeated_laws(self, data, laws, ids, shift, zeta):
        counts = data.draw(st.lists(st.integers(1, 4), min_size=len(laws), max_size=len(laws)))
        terms = data.draw(st.permutations([m for m, c in zip(laws, counts) for _ in range(c)]))
        rep = free_convolve_many(terms, ids, shift)
        # point masses are folded into the shift
        kept = [(m, c) for m, c in zip(laws, counts) if len(m) > 1]
        assert sorted(rep.counts) == sorted(c for _, c in kept)
        assert {law_key(m) for m in rep.laws} == {law_key(m) for m, _ in kept}
        assert_subordination(rep, zeta)

    @settings(max_examples=100)
    @given(st.data(), st.lists(line_laws(), min_size=4, max_size=6, unique_by=law_key),
           st.lists(id_terms(), max_size=1), off_axis())
    def test_many_distinct_laws(self, data, laws, ids, zeta):
        counts = data.draw(st.lists(st.integers(1, 3), min_size=len(laws), max_size=len(laws)))
        assert_subordination(free_convolve_many([m for m, c in zip(laws, counts) for _ in range(c)], ids), zeta)

    @given(line_laws(), st.floats(-1.0, 1.0), off_axis())
    def test_one_law_counted_once_has_omega_zeta_minus_shift(self, law, shift, zeta):
        # the subordination map of a sole law is constant: no solve, omega exact in both half-planes
        assume(len(law) > 1)  # atoms that merged to one are a point mass, folded into the shift
        zeta = np.concatenate([zeta, np.conj(zeta)])
        rep = free_convolve_many([law], shift=shift)
        f, (omega,) = rep.f_value(zeta, return_aux=True)
        assert omega.tobytes() == (zeta - shift).tobytes()
        assert_subordination(rep, zeta)

    @pytest.mark.parametrize(
        "laws,zeta",
        [
            ([([1.0, -1.0], [0.5, 0.5]), ([0.9, -0.9], [0.5, 0.5])], 0.2j),
            ([([0.5, -0.9, 1.0], [0.3216, 0.3505, 0.3279]), ([-0.3, 0.8, -1.1], [0.2801, 0.3417, 0.3782])],
             0.7087 + 0.1j),
            ([([-1.2, 0.1, 0.9], [0.2, 0.5, 0.3]),
              ([-2.0, -0.4, 0.3, 1.1, 2.5], [0.1, 0.3, 0.2, 0.25, 0.15])], -1.3 - 0.05j),
            ([([-1.0, 1.0], [0.3, 0.7]), ([0.0, 2.0], [0.6, 0.4]), ([-0.5, 0.5, 1.5], [0.2, 0.5, 0.3])],
             0.4 + 0.3j),
            ([([-1.0, 0.2, 1.3], [0.4, 0.35, 0.25]), ([-0.6, 0.6], [0.45, 0.55])], 2.1 - 0.02j),
            ([([-0.6, 0.6], [0.45, 0.55])] + [([-1.0, 0.2, 1.3], [0.4, 0.35, 0.25])] * 3, 0.9 + 0.05j),
            # five distinct laws counted 1, 2, 1, 3, 1, and six counted once
            ([([-1.0, 0.5, 1.5], [0.3, 0.4, 0.3])] + [([-0.8, 0.8], [0.6, 0.4])] * 2
             + [([-1.5, 0.0, 1.0, 2.0], [0.1, 0.4, 0.3, 0.2])] + [([0.2, 1.2], [0.5, 0.5])] * 3
             + [([-2.0, -0.3, 0.7], [0.2, 0.5, 0.3])], 0.3 + 0.2j),
            ([([-1.0, 0.5, 1.5], [0.3, 0.4, 0.3]), ([-0.8, 0.8], [0.6, 0.4]),
              ([-1.5, 0.0, 1.0, 2.0], [0.1, 0.4, 0.3, 0.2]), ([0.2, 1.2], [0.5, 0.5]),
              ([-2.0, -0.3, 0.7], [0.2, 0.5, 0.3]), ([-0.5, 0.4, 1.1], [0.25, 0.35, 0.4])], -1.1 + 0.1j),
        ],
    )
    def test_against_mpmath_sweeps(self, laws, zeta):
        laws = [(p, [w / sum(ws) for w in ws]) for p, ws in laws]
        rep = free_convolve_many([Measure1D(list(zip(p, w))) for p, w in laws])
        want = mp_free_convolution_f(laws, zeta)
        assert abs(rep.f_value(zeta) - want) <= 1e-10 * abs(want)

    def test_unsettled_points_raise(self, monkeypatch):
        # one iteration from the start z + 2i settles none of the points
        monkeypatch.setattr(fc, "FIXED_POINT_MAXITER", 1)
        rep = free_convolve(Measure1D([(-1.0, 0.5), (1.0, 0.5)]), Measure1D([(-0.5, 0.4), (0.8, 0.6)]))
        with pytest.raises(tf.NoConvergence, match=r"^subordination did not settle at 3 of 3 points$"):
            rep.f_value(np.array([0.3 + 0.2j, -1.0 - 0.1j, 2.0j]))


def kesten_mckay_g(n, z):
    """G of B^{boxplus n}, the Kesten-McKay law of degree n.

    G = [(n - 2) z - n r] / (2 (n^2 - z^2)) with r = sqrt(z^2 - 4 (n - 1))
    on the branch where G ~ 1/z, written as 2 (n - 1) / ((n - 2) z + n r),
    which does not cancel near z = +-n.
    """
    z = np.asarray(z, dtype=complex)
    r = z * np.sqrt(1.0 - 4.0 * (n - 1) / (z * z))
    return 2.0 * (n - 1) / ((n - 2) * z + n * r)


class TestConvolutionPower:
    """B^{boxplus n} is one law with count n, against its closed form."""

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
    def test_kesten_mckay(self, n):
        rep = free_convolve_many([B] * n)
        assert rep.counts == (n,)
        edge = 2.0 * math.sqrt(n - 1)
        x = np.linspace(-1.3 * edge, 1.3 * edge, 53)
        angles = np.array([0.05, 0.5, 1.5, 2.6, 3.1])
        far = np.concatenate([r * np.exp(1j * angles) for r in (50.0, 1e4)])
        z = np.concatenate([x + 0.01j, x + 1j, far])
        z = np.concatenate([z, np.conj(z)])
        want = kesten_mckay_g(n, z)
        assert np.max(np.abs(rep.cauchy(z) - want) / np.abs(want)) <= 1e-10


# Two generic three-atom planar laws; the marginal-1 free convolution of
# their marginals used to raise NoConvergence at s = 0.7087, eps = 0.1.
GENERIC_PAIR = (
    [((0.5, -0.3), 0.3216), ((-0.9, 0.7), 0.3505), ((1.0, 1.1), 0.3279)],
    [((-0.3, 0.6), 0.2801), ((0.8, -0.8), 0.3417), ((-1.1, -1.0), 0.3782)],
)


def planar(atoms):
    total = sum(w for _, w in atoms)
    return PlanarMeasure([(p, w / total) for p, w in atoms])


class TestGenericPair:
    def test_marginal_density(self):
        rep = bi_free_convolve([planar(a) for a in GENERIC_PAIR])
        axis = np.linspace(-6.0, 6.0, 128)
        assert np.any(np.abs(axis - 0.7087) < 1e-4)
        eps = 0.1
        vals = rep.marginal(1).density(axis, eps)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        # Cauchy tails beyond the grid (the support lies in [-2.1, 2.1]) and
        # the Riemann error of a Cauchy kernel sampled at this step
        step = axis[1] - axis[0]
        tail = 2.0 * eps / (math.pi * (6.0 - 2.1))
        q = math.exp(-2.0 * math.pi * eps / step)
        riemann = 2.0 * q / (1.0 - q)
        mass = vals.sum() * step
        assert 1.0 - tail - riemann <= mass <= 1.0 + riemann

    def test_planar_density(self):
        rep = bi_free_convolve([planar(a) for a in GENERIC_PAIR])
        axis = np.linspace(-6.0, 6.0, 64)
        assert np.all(np.isfinite(rep.density(axis, axis, 0.2).values))


class TestWorkCounts:
    """The solve inverts nothing, and its omegas are exact warm starts."""

    def test_f_value_makes_no_inversions(self, monkeypatch):
        calls = []
        for module in (tf, fc):
            monkeypatch.setattr(module, "newton_f_inverse", lambda *a, **k: calls.append(1))
        rep = bi_free_convolve([planar(a) for a in GENERIC_PAIR])
        axis = np.linspace(-6.0, 6.0, 64)
        for axis_no in (1, 2):
            rep.marginal(axis_no).f_value(axis + 0.1j)
        assert calls == []

    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("other", [False, True])
    def test_repeated_law_is_one_solve(self, monkeypatch, n, other):
        # mu^{boxplus n}, or n - 1 copies of mu and one other law
        calls = []
        solve = fc._subordinate

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(fc, "_subordinate", counting)
        nu = Measure1D([(-0.5, 0.3), (0.4, 0.7)])
        rep = free_convolve_many([B] * (n - other) + [nu] * other)
        rep.f_value(np.linspace(-6.0, 6.0, 64) + 0.1j)
        assert calls == [1]

    @pytest.mark.parametrize("k", [3, 5])
    def test_law_order_does_not_matter(self, monkeypatch, k):
        # nu boxplus mu^{boxplus (k - 1)} in both orders: one solve each, the same F
        calls = []
        solve = fc._subordinate

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(fc, "_subordinate", counting)
        nu = Measure1D([(-0.5, 0.3), (0.4, 0.7)])
        zeta = np.linspace(-6.0, 6.0, 64) + 0.1j
        values = []
        for laws in ([nu] + [B] * (k - 1), [B] * (k - 1) + [nu]):
            calls.clear()
            rep = free_convolve_many(laws)
            f, omegas = rep.f_value(zeta, return_aux=True)
            assert calls == [1]
            # each omega belongs to its own law: F_j(omega_j) = F
            for m, om in zip(rep.laws, omegas):
                assert np.max(np.abs(1.0 / (1.0 / (om[:, None] - m.points) @ m.weights) - f)) <= 1e-10 * np.max(np.abs(f))
            values.append(f)
        assert np.max(np.abs(values[0] - values[1])) <= 1e-12 * np.max(np.abs(values[1]))

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("with_id", [False, True])
    def test_distinct_laws_are_one_solve(self, monkeypatch, n, with_id):
        calls = []
        newton = fc._damped_newton

        def counting(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(fc, "_damped_newton", counting)
        rng = np.random.default_rng(n)
        laws = [Measure1D(list(zip(rng.uniform(-2.0, 2.0, 3), rng.dirichlet(np.ones(3))))) for _ in range(n)]
        ids = [functools.partial(make_gaussian((0.2, 0.0), Matrix2(0.5, 0.0, 1.0)).marginal_phi_dphi, 1)] * with_id
        rep = free_convolve_many(laws, ids)
        assert len(rep.laws) == n
        rep.f_value(np.linspace(-6.0, 6.0, 64) + 0.1j)
        # one law counted once with no ID term has omega = z: nothing to solve
        assert calls == ([] if (n, with_id) == (1, False) else [1])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("mixed", [False, True])
    def test_phi_is_one_inversion(self, monkeypatch, n, mixed):
        # all distinct laws in one Newton solve, equal to the per-law sum of their phis
        calls = []
        newton = fc.newton_f_inverse

        def counting(*args):
            calls.append(1)
            return newton(*args)

        monkeypatch.setattr(fc, "newton_f_inverse", counting)
        rng = np.random.default_rng(n)
        sizes = [2 + k % 3 if mixed else 3 for k in range(n)]
        laws = [Measure1D(list(zip(rng.uniform(-2.0, 2.0, m), rng.dirichlet(np.ones(m))))) for m in sizes]
        rep = free_convolve_many(laws + laws[:2] + [dirac1d(0.3)])
        assert len(rep.laws) == n
        z = np.linspace(-20.0, 20.0, 32) + 25j * np.where(np.arange(32) % 2, 1.0, -1.0)
        got = rep.phi(z)
        assert calls == [1]
        want = rep.shift + sum(k * (tf.invert_f(m, z) - z) for m, k in zip(rep.laws, rep.counts))
        if mixed:
            # a padded law's F sums zeros too, which may round its root differently, at |z|
            assert np.all(np.abs(got - want) <= 1e-15 * sum(rep.counts) * np.abs(z))
        else:
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15

    @staticmethod
    def assert_recovery_makes_no_inversion(rep, axis):
        """Density, pointwise G and G with the marginals make no inversion; returns the density."""
        with counting_inversions() as per_call:
            grid = rep.density(axis, axis, 0.1).values
            rep.cauchy(axis + 0.1j, axis - 0.2j)
            rep.cauchy_with_marginals(axis[:, None] + 0.1j, axis[None, :] + 0.3j)
        assert per_call == []
        return grid

    def test_recovery_makes_no_inversion(self):
        # every inverse comes from the marginal subordination solves, with or without a triplet
        gauss = make_gaussian((0.1, 0.0), Matrix2(0.5, 0.1, 0.4))
        axis = np.linspace(-6.0, 6.0, 64)
        for extra in ([], [gauss]):
            self.assert_recovery_makes_no_inversion(bi_free_convolve([planar(a) for a in GENERIC_PAIR] + extra), axis)

    def test_collapsed_marginal_makes_no_inversion(self):
        # the third law's s-marginal is the point 0.4, folded into the shift;
        # its inverse at F is F + 0.4, the others are their omegas
        terms = [planar(GENERIC_PAIR[0]), planar(GENERIC_PAIR[0]), planar([((0.4, 1.0), 0.5), ((0.4, -1.0), 0.5)])]
        axis = np.linspace(-6.0, 6.0, 16)
        got = self.assert_recovery_makes_no_inversion(bi_free_convolve(terms), axis)
        want = reference_density(terms, (0.0, 0.0), axis, axis, 0.1)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_scalar_phi_makes_one_inversion(self):
        gauss = make_gaussian((0.1, 0.0), Matrix2(0.5, 0.1, 0.4))
        rep = bi_free_convolve([planar(a) for a in GENERIC_PAIR] + [gauss])
        with counting_inversions() as per_call:
            rep.phi(3.0 + 12j, -1.0 - 14j)
        assert len(per_call) == 1
