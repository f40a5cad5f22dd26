import math

import numpy as np
import pytest

from bifree.freeconv import free_convolve, free_convolve_many, AtomicPhiTerm
from bifree.measure import Measure1D, dirac1d
from bifree.transforms import NoConvergence

from oracles import (
    atomic_moments,
    free_cumulants_from_moments,
    moments_from_free_cumulants,
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
    g = np.array([rep.cauchy(z, tol=1e-13) for z in zeta])
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
        t = [AtomicPhiTerm(n) for n in (nu1, nu2, nu3)]
        left = free_convolve_many([t[0], t[1], t[2]]).phi(z)
        right = free_convolve_many([t[2], t[0], t[1]]).phi(z)
        assert np.max(np.abs(left - right)) < 1e-12 * np.max(1 + np.abs(z))


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
            pytest.param(
                0.9, 0.2, 2.136001,
                marks=pytest.mark.xfail(
                    strict=True, raises=NoConvergence,
                    reason="open defect: the ladder solve raises NoConvergence at this point",
                ),
            ),
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
