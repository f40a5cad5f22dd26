import ast
import cmath
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bifree import idlaw
from bifree.idlaw import (
    CharTriplet,
    InconsistentSigmaForm,
    LevyMeasure,
    RadialPart,
    SigmaForm,
    convolve_triplets,
    lambda_bijection,
    make_compound_poisson,
    make_gaussian,
    sigma_form_to_triplet,
    triplet_to_sigma_form,
)
from bifree.measure import AtomicMeasure2D, Matrix2, PlanarMeasure, dirac
from oracles import (
    min_one_norm_sq,
    mp_ray_cf,
    mp_ray_cf_on,
    mp_ray_drift,
    mp_ray_marginal_dphi,
    mp_ray_marginal_phi,
    mp_ray_phi,
    mp_truncated_ray_cf,
    mp_truncated_ray_phi,
    sigma_form_loop,
    triplet_loop,
    verify_loop,
)

I2 = Matrix2(1.0, 0.0, 1.0)
ONES = Matrix2(1.0, 1.0, 1.0)


def compound_poisson_phi(lam, jump: PlanarMeasure, z, w):
    """Direct evaluation of the rate-lam jump-law phi, used as an oracle."""
    total = 0.0 + 0.0j
    for (s, t), m in jump.atoms():
        total += m * (z * w / ((z - s) * (w - t)) - 1.0)
    return lam * total


def probes(n=50, seed=11):
    rng = np.random.default_rng(seed)
    y = rng.uniform(1.0, 20.0, n) * rng.choice([-1.0, 1.0], n)
    x = rng.uniform(-2.0, 2.0, n)
    v = rng.uniform(1.0, 20.0, n) * rng.choice([-1.0, 1.0], n)
    u = rng.uniform(-2.0, 2.0, n)
    return x + 1j * y, u + 1j * v


class TestBiFreePhiID:
    def test_pure_drift(self):
        t = make_gaussian((1.0, -2.0), Matrix2(0.0, 0.0, 0.0))
        assert t.bi_free_phi(2j, 2j) == pytest.approx(0.5j, abs=1e-14)

    def test_gaussian_quadratic(self):
        t = make_gaussian((0.0, 0.0), ONES)
        assert t.bi_free_phi(1j, 1j) == pytest.approx(-3.0, abs=1e-14)

    def test_compound_poisson_matches_direct_form(self):
        t = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        z = w = 2j
        expect = (2j) ** 2 / (2j - 1) ** 2 - 1
        assert t.bi_free_phi(z, w) == pytest.approx(expect, abs=1e-13)

    def test_compound_poisson_many_probes(self):
        jump = PlanarMeasure([((1.0, 0.5), 0.6), ((-0.7, 1.2), 0.4)])
        t = make_compound_poisson(1.7, jump)
        zs, ws = probes()
        for z, w in list(zip(zs, ws))[:50]:
            assert t.bi_free_phi(z, w) == pytest.approx(
                compound_poisson_phi(1.7, jump, z, w), abs=1e-12
            )

    def test_conjugation(self):
        t = CharTriplet(
            (0.2, -0.1),
            ONES,
            LevyMeasure(AtomicMeasure2D([((1.0, 0.0), 0.4), ((0.3, -0.8), 0.2)])),
        )
        zs, ws = probes()
        a = np.array([t.bi_free_phi(np.conj(z), np.conj(w)) for z, w in zip(zs, ws)])
        b = np.conj(np.array([t.bi_free_phi(z, w) for z, w in zip(zs, ws)]))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_radial_conjugation(self):
        t = CharTriplet(
            (0.0, 0.0),
            Matrix2(0, 0, 0),
            LevyMeasure(AtomicMeasure2D(), RadialPart(0.7, ((0.4, 0.5), (2.5, 0.5)))),
        )
        for z, w in [(2j, 3j), (1 + 4j, -2j)]:
            assert t.bi_free_phi(np.conj(z), np.conj(w)) == pytest.approx(
                np.conj(t.bi_free_phi(z, w)), abs=1e-10
            )

    @pytest.mark.parametrize("z,w", [(1.0, 2j), (3j, 1.0), (np.array([2j, -0.5]), 4j), (2j, np.array([[3j], [0.0]]))])
    def test_real_argument_rejected(self, z, w):
        # as for atomic laws (transforms.bi_free_phi): phi lives off the real axes
        drift = make_gaussian((1.0, -2.0), Matrix2(0.0, 0.0, 0.0))
        rays = CharTriplet((0.0, 0.0), Matrix2(0, 0, 0),
                           LevyMeasure(AtomicMeasure2D(), RadialPart(0.7, ((0.4, 0.5), (2.5, 0.5)))))
        for t in (drift, rays):
            with pytest.raises(ValueError, match="must be non-real"):
                t.bi_free_phi(z, w)

    def test_nth_root_divisibility(self):
        t = CharTriplet(
            (0.4, -0.2), ONES, LevyMeasure(AtomicMeasure2D([((1.0, 1.0), 0.9)]))
        )
        n = 7
        root = t.scaled(1.0 / n)
        for z, w in [(3j, 4j), (-2j, 5j)]:
            assert n * root.bi_free_phi(z, w) == pytest.approx(
                t.bi_free_phi(z, w), abs=1e-13
            )


class TestClassicalCF:
    def test_pure_drift(self):
        t = make_gaussian((1.0, 0.0), Matrix2(0.0, 0.0, 0.0))
        assert t.classical_cf((math.pi, 0.0)) == pytest.approx(-1.0)

    def test_gaussian(self):
        t = make_gaussian((0.0, 0.0), I2)
        assert t.classical_cf((1.0, 0.0)) == pytest.approx(math.exp(-0.5))

    def test_compound_poisson_compensation(self):
        t = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        # drift cancels the compensator: CF = exp(e^{i(u1+u2)} - 1)
        u = (math.pi, math.pi)
        assert t.classical_cf(u) == pytest.approx(1.0, abs=1e-12)
        u = (0.3, -1.1)
        expect = cmath.exp(cmath.exp(1j * (u[0] + u[1])) - 1.0)
        assert t.classical_cf(u) == pytest.approx(expect, abs=1e-12)

    def test_bounded_and_hermitian(self):
        t = CharTriplet(
            (0.1, 0.2),
            ONES,
            LevyMeasure(
                AtomicMeasure2D([((1.0, -0.5), 0.7)]),
                RadialPart(0.8, ((1.0, 0.3),)),
            ),
        )
        rng = np.random.default_rng(5)
        for u in rng.normal(0, 2, (200, 2)):
            val = t.classical_cf(tuple(u))
            assert abs(val) <= 1.0 + 1e-12
        for u in rng.normal(0, 2, (5, 2)):
            a = t.classical_cf((-u[0], -u[1]))
            b = np.conj(t.classical_cf(tuple(u)))
            assert a == pytest.approx(b, abs=1e-11)


class TestConstructors:
    def test_compound_poisson_drift_vector(self):
        t = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        assert t.v == pytest.approx((1 / 3, 1 / 3))
        assert t.tau.atoms.mass_at((1.0, 1.0)) == pytest.approx(1.0)

    def test_gaussian(self):
        t = make_gaussian((0.0, 0.0), I2)
        assert t.A.as_array().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert len(t.tau.atoms) == 0 and t.tau.radial is None

    def test_two_atom_jump(self):
        jump = PlanarMeasure([((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)])
        t = make_compound_poisson(2.0, jump)
        assert t.v == pytest.approx((0.5, 0.5))
        assert t.tau.atoms.mass_at((1.0, 0.0)) == pytest.approx(1.0)
        assert t.tau.atoms.mass_at((0.0, 1.0)) == pytest.approx(1.0)

    def test_origin_jump_rejected(self):
        with pytest.raises(ValueError):
            make_compound_poisson(1.0, dirac((0.0, 0.0)))

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            make_gaussian((0.0, 0.0), Matrix2(1.0, 2.0, 1.0))

    @pytest.mark.parametrize("v, A", [
        ((math.nan, 0.0), Matrix2(1.0, 0.0, 1.0)),
        ((0.0, -math.inf), Matrix2(1.0, 0.0, 1.0)),
        ((0.0, 0.0), Matrix2(math.inf, 0.0, 1.0)),  # psd, and its phi would be -inf + nan i
        ((0.0, 0.0), Matrix2(math.nan, 0.0, 1.0)),
        ((0.0, 0.0), Matrix2(1.0, math.nan, 1.0)),
        ((0.0, 0.0), Matrix2(1.0, 0.0, math.inf)),
    ])
    def test_non_finite_drift_or_matrix_rejected(self, v, A):
        with pytest.raises(ValueError, match="drift and matrix part must be finite"):
            CharTriplet(v, A, LevyMeasure.zero())

    @pytest.mark.parametrize("ray", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_ray_rejected(self, ray):
        with pytest.raises(ValueError, match="finite"):
            RadialPart(1.0, (ray,))

    @pytest.mark.parametrize("atom", [((1.0, 0.5), math.nan), ((1.0, 0.5), math.inf), ((math.nan, 0.5), 1.0)])
    def test_non_finite_levy_atom_rejected(self, atom):
        with pytest.raises(ValueError, match="finite"):
            LevyMeasure(AtomicMeasure2D([atom]))


class TestConvolveTriplets:
    def test_gaussian_addition(self):
        t = convolve_triplets(make_gaussian((0, 0), I2), make_gaussian((0, 0), ONES))
        assert t.A.as_array().tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_poisson_rates_add(self):
        p = dirac((1.0, 1.0))
        t = convolve_triplets(make_compound_poisson(1.0, p), make_compound_poisson(2.0, p))
        assert t.tau.atoms.mass_at((1.0, 1.0)) == pytest.approx(3.0)

    def test_phi_affine(self):
        t1 = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        t2 = make_gaussian((0.3, -0.3), ONES)
        t = convolve_triplets(t1, t2)
        zs, ws = probes(20)
        for z, w in zip(zs, ws):
            assert t.bi_free_phi(z, w) == pytest.approx(
                t1.bi_free_phi(z, w) + t2.bi_free_phi(z, w), abs=1e-12
            )


class TestLambda:
    def test_identity_both_ways(self):
        t = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        assert lambda_bijection("classical-to-bifree", t) is t
        assert lambda_bijection("bifree-to-classical", t) is t
        with pytest.raises(ValueError):
            lambda_bijection("sideways", t)


class TestDrift:
    def test_compound_poisson_zero_drift(self):
        t = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        assert t.drift() == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_gaussian_drift_is_v(self):
        t = make_gaussian((0.7, -0.2), I2)
        assert t.drift() == (0.7, -0.2)

    def test_radial_small_alpha_finite(self):
        rp = RadialPart(0.5, ((0.0, 1.0),))
        t = CharTriplet((0.0, 0.0), Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D(), rp))
        d = t.drift()
        expect = -0.5 * math.pi / math.cos(0.25 * math.pi)  # -mass * C(alpha)
        assert d[0] == pytest.approx(expect, rel=1e-10)
        assert d[1] == pytest.approx(0.0, abs=1e-14)

    def test_radial_large_alpha_none(self):
        rp = RadialPart(1.5, ((0.0, 1.0),))
        t = CharTriplet((0.0, 0.0), Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D(), rp))
        assert t.drift() is None

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.floats(-7.0, 7.0), st.floats(1e-3, 5.0)), min_size=1, max_size=6),
           st.floats(0.05, 0.95), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    def test_radial_drift_is_the_loop_over_rays(self, rays, alpha, v):
        t = CharTriplet(v, Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D(), RadialPart(alpha, tuple(rays))))
        u1, u2 = t.drift()
        # the same subtractions, one ray at a time
        w1, w2 = t.v
        base = idlaw._ray_drift(t.tau.radial)
        for o1, o2, mass in t.tau.radial.directions():
            w1 -= mass * o1 * base
            w2 -= mass * o2 * base
        assert (u1, u2) == (w1, w2)

    def test_drift_form_reproduces_phi(self):
        # with drift u: phi = u1/z + u2/w + quadratic + integral[zw/((z-s)(w-t)) - 1]
        t = make_compound_poisson(1.3, PlanarMeasure([((1.0, 2.0), 1.0)]))
        u = t.drift()
        z, w = 3j, 5j
        direct = u[0] / z + u[1] / w + compound_poisson_phi(1.3, PlanarMeasure([((1.0, 2.0), 1.0)]), z, w)
        assert t.bi_free_phi(z, w) == pytest.approx(direct, abs=1e-13)


class TestSigmaForm:
    def test_gaussian(self):
        sf = triplet_to_sigma_form(make_gaussian((0, 0), I2))
        assert sf.sigma1.mass_at((0.0, 0.0)) == 1.0
        assert sf.sigma2.mass_at((0.0, 0.0)) == 1.0
        assert len(sf.sigma_tilde) == 0
        assert sf.gamma1 == 0.0 and sf.gamma2 == 0.0

    def test_poisson_masses(self):
        t = CharTriplet((0, 0), Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D([((1.0, 1.0), 1.0)])))
        sf = triplet_to_sigma_form(t)
        assert sf.sigma1.mass_at((1.0, 1.0)) == pytest.approx(0.5)
        assert sf.sigma_tilde.mass_at((1.0, 1.0)) == pytest.approx(0.5)

    def test_cauchy_schwarz_carried(self):
        t = CharTriplet((0, 0), ONES, LevyMeasure(AtomicMeasure2D([((1.0, -1.0), 0.5)])))
        sf = triplet_to_sigma_form(t)
        sf.verify(tol=1e-12)

    @pytest.mark.parametrize(
        "trip",
        [
            make_gaussian((0.0, 0.0), I2),
            make_gaussian((1.0, -1.0), ONES),
            CharTriplet(
                (0.3, 0.7),
                Matrix2(2.0, -1.0, 1.0),
                LevyMeasure(
                    AtomicMeasure2D(
                        [((1.0, 1.0), 0.9), ((0.0, 2.0), 0.4), ((3.0, 0.0), 0.2), ((-1.5, 0.5), 1.1)]
                    )
                ),
            ),
            make_compound_poisson(2.0, PlanarMeasure([((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)])),
        ],
    )
    def test_round_trip(self, trip):
        sf = triplet_to_sigma_form(trip)
        sf.verify(tol=1e-12)
        back = sigma_form_to_triplet(sf)
        assert back.v == pytest.approx(trip.v, abs=1e-12)
        assert back.A.as_array() == pytest.approx(trip.A.as_array(), abs=1e-12)
        assert back.tau.atoms.close_to(trip.tau.atoms, tol=1e-12)
        assert sigma_form_bits(sf) == sigma_form_bits(sigma_form_loop(trip))
        assert triplet_bits(back) == triplet_bits(triplet_loop(sf))

    def test_inconsistent_rejected(self):
        t = CharTriplet((0, 0), Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D([((1.0, 1.0), 1.0)])))
        sf = triplet_to_sigma_form(t)
        bad = type(sf)(
            gamma1=sf.gamma1,
            gamma2=sf.gamma2,
            sigma1=sf.sigma1.scaled(2.0),
            sigma2=sf.sigma2,
            sigma_tilde=sf.sigma_tilde,
        )
        with pytest.raises(InconsistentSigmaForm):
            sigma_form_to_triplet(bad)

    def test_radial_must_be_discretized(self):
        t = CharTriplet(
            (0, 0), Matrix2(0, 0, 0),
            LevyMeasure(AtomicMeasure2D(), RadialPart(0.5, ((0.0, 1.0),))),
        )
        with pytest.raises(ValueError):
            triplet_to_sigma_form(t)
        disc = t.tau.discretized(cells_per_decade=50)
        assert disc.is_atomic()
        t2 = CharTriplet((0, 0), Matrix2(0, 0, 0), disc)
        sf = triplet_to_sigma_form(t2)
        back = sigma_form_to_triplet(sf)
        assert back.tau.atoms.close_to(disc.atoms, tol=1e-9)


def _bits(*xs) -> bytes:
    return b"".join(np.asarray(x, dtype=float).tobytes() for x in xs)


def sigma_form_bits(sf: SigmaForm) -> bytes:
    parts = (sf.sigma1, sf.sigma2, sf.sigma_tilde)
    return _bits(sf.gamma1, sf.gamma2, *(x for m in parts for x in (m.points, m.masses)))


def triplet_bits(t: CharTriplet) -> bytes:
    return _bits(t.v, t.A.a, t.A.c, t.A.b, t.tau.atoms.points, t.tau.atoms.masses)


def outcome(f, *args):
    """The bits of f's result, or the type and message of what it raised."""
    try:
        out = f(*args)
    except ValueError as e:  # InconsistentSigmaForm included
        return type(e), str(e)
    return {SigmaForm: sigma_form_bits, CharTriplet: triplet_bits}.get(type(out), repr)(out)


@st.composite
def atomic_triplets(draw):
    """Up to 2000 atoms: a quarter on each axis, scales 1e-3 to 1e3, and A charging the origin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 12) | st.integers(0, 2000))
    pts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    axis = rng.integers(0, 4, size=n)
    pts[axis == 0, 0] = 0.0
    pts[axis == 1, 1] = 0.0
    pts = pts[(pts != 0.0).any(axis=1)]
    a, b = draw(st.sampled_from([0.0, 1.0])) * rng.exponential(size=2)
    c = math.sqrt(a * b) * draw(st.sampled_from([-1.0, 0.0, 0.5]))
    v = tuple(rng.normal(size=2))
    return CharTriplet(v, Matrix2(a, c, b), LevyMeasure(AtomicMeasure2D.from_arrays(pts, rng.exponential(size=len(pts)))))


@st.composite
def perturbed(draw, sf: SigmaForm):
    """sf with one atom's mass moved near SIGMA_FORM_TOL, its site moved near MERGE_TOL, or onto an axis."""
    parts = [sf.sigma1, sf.sigma2, sf.sigma_tilde]
    k = draw(st.integers(0, 2))
    if not len(parts[k]):
        return sf
    i = draw(st.integers(0, len(parts[k]) - 1))
    pts, masses = parts[k].points.copy(), parts[k].masses.copy()
    kind = draw(st.sampled_from(["mass", "site", "axis"]))
    if kind == "mass":
        scale = draw(st.sampled_from([1.0, abs(masses[i])]))
        masses[i] += draw(st.sampled_from([-2.0, -1.01, -0.99, 0.5, 0.99, 1.01, 2.0])) * 1e-9 * scale
    elif kind == "site":
        pts[i] += draw(st.sampled_from([3e-13, 7e-13, 1.5e-12])) * np.array([draw(st.sampled_from([-1, 0, 1])), 1])
    else:
        pts[i, draw(st.integers(0, 1))] = 0.0
    parts[k] = AtomicMeasure2D.from_arrays(pts, masses)
    return SigmaForm(sf.gamma1, sf.gamma2, *parts)


class TestSigmaFormArrays:
    """The sigma-form conversions equal the atom-by-atom loops of ``oracles`` bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(atomic_triplets(), st.data())
    def test_bit_identical_to_the_loops(self, trip, data):
        sf = triplet_to_sigma_form(trip)
        assert sigma_form_bits(sf) == sigma_form_bits(sigma_form_loop(trip))
        assert outcome(sigma_form_to_triplet, sf) == outcome(triplet_loop, sf)
        bad = data.draw(perturbed(sf))
        assert outcome(sigma_form_to_triplet, bad) == outcome(triplet_loop, bad)
        assert outcome(bad.verify) == outcome(verify_loop, bad)

    @pytest.mark.parametrize("edit,raised", [
        ({1: [((0.0, 1.0), 1e-10)]}, "sigma1 charges a point with s = 0"),
        ({2: [((5.0, 0.0), 1e-10)]}, "sigma2 charges a point with t = 0"),
        ({2: [((0.01, 0.1), 2e-10)]}, None),  # tau differs by 2e-8, within 1e-9 (1 + 50)
        ({2: [((0.01, 0.1), 1e-9)]}, r"sigma1/sigma2 disagree at \(0\.01, 0\.1\)"),
        ({2: [((0.01, 0.1), 1e-9), ((5.0, 0.0), 1e-10)]}, "disagree"),
        ({2: [((0.01, 0.1), 1e-9), ((-5.0, 0.0), 1e-10)]}, "t = 0"),
    ])
    def test_errors_in_the_loops_order(self, edit, raised):
        # tau at (0.01, 0.1) carries 50; a sigma_2 mass moved by 2e-10 or 1e-9 passes verify
        tau = AtomicMeasure2D([((0.01, 0.1), 50.0), ((1.0, 2.0), 10.0), ((-1.0, 1.0), 1.0)])
        sf = triplet_to_sigma_form(CharTriplet((0.1, 0.2), I2, LevyMeasure(tau)))
        parts = {1: sf.sigma1, 2: sf.sigma2}
        for k, atoms in edit.items():
            parts[k] = parts[k] + AtomicMeasure2D(atoms)
        bad = SigmaForm(sf.gamma1, sf.gamma2, parts[1], parts[2], sf.sigma_tilde)
        assert outcome(sigma_form_to_triplet, bad) == outcome(triplet_loop, bad)
        if raised is None:
            sigma_form_to_triplet(bad)
        else:
            with pytest.raises(InconsistentSigmaForm, match=raised):
                sigma_form_to_triplet(bad)

    def test_near_sites_read_as_mass_at_reads_them(self):
        # sigma~ sits 0.5e-12 off the site of sigma1 and sigma2: both sites read all three masses
        sf = triplet_to_sigma_form(CharTriplet((0.0, 0.0), Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D([((1.0, 2.0), 1.0)]))))
        moved = SigmaForm(sf.gamma1, sf.gamma2, sf.sigma1, sf.sigma2, AtomicMeasure2D.from_arrays(
            sf.sigma_tilde.points + [0.0, 5e-13], sf.sigma_tilde.masses))
        moved.verify()
        assert outcome(sigma_form_to_triplet, moved) == outcome(triplet_loop, moved)
        far = SigmaForm(sf.gamma1, sf.gamma2, sf.sigma1, sf.sigma2, sf.sigma_tilde.scaled(1.0 + 1e-6))
        with pytest.raises(InconsistentSigmaForm, match=r"relations fail at atom \(1\.0, 2\.0\)"):
            far.verify()

    def test_round_trip_reads_no_site_alone(self, monkeypatch):
        rays = tuple((k * math.pi / 4, 1.0) for k in range(8))
        tau = LevyMeasure(AtomicMeasure2D(), RadialPart(1.2, rays)).discretized()
        trip = CharTriplet((0.1, -0.2), Matrix2(0.0, 0.0, 0.0), tau)
        assert len(tau.atoms) == 12800
        calls = []
        mass_at = AtomicMeasure2D.mass_at
        monkeypatch.setattr(AtomicMeasure2D, "mass_at", lambda self, p: calls.append(p) or mass_at(self, p))
        back = sigma_form_to_triplet(triplet_to_sigma_form(trip))
        assert len(calls) <= 3
        assert back.tau.atoms.close_to(tau.atoms, tol=1e-12)


class TestLevyAddition:
    ATOMS = AtomicMeasure2D([((1.0, 0.0), 0.5)])

    def test_radial_parts_of_one_shape_concatenate_their_rays(self):
        a = LevyMeasure(self.ATOMS, RadialPart(1.2, ((0.0, 0.5),), 0.1, 10.0))
        b = LevyMeasure(AtomicMeasure2D(), RadialPart(1.2, ((1.0, 0.25), (2.0, 0.25)), 0.1, 10.0))
        total = a + b
        assert total.radial == RadialPart(1.2, ((0.0, 0.5), (1.0, 0.25), (2.0, 0.25)), 0.1, 10.0)
        assert total.atoms.atoms() == self.ATOMS.atoms()

    @pytest.mark.parametrize("other", [RadialPart(0.8, ((1.0, 0.25),), 0.1, 10.0),
                                       RadialPart(1.2, ((1.0, 0.25),), 0.2, 10.0),
                                       RadialPart(1.2, ((1.0, 0.25),))])
    def test_radial_parts_of_different_shapes_do_not_add(self, other):
        a = LevyMeasure(self.ATOMS, RadialPart(1.2, ((0.0, 0.5),), 0.1, 10.0))
        with pytest.raises(ValueError, match="different shapes"):
            a + LevyMeasure(AtomicMeasure2D(), other)


class TestDiscretization:
    def test_index_one_keeps_mass_and_first_moment(self):
        # one ray of r^-2 dr on [0.5, 2]: mass 2 - 0.5, first moment log(2 / 0.5)
        lm = LevyMeasure(AtomicMeasure2D(), RadialPart(1.0, ((0.3, 1.0),), r_min=0.5, r_max=2.0))
        disc = lm.discretized()
        norms = np.hypot(disc.atoms.points[:, 0], disc.atoms.points[:, 1])
        assert disc.atoms.total_mass() == pytest.approx(1.5, abs=1e-14)
        assert float(norms @ disc.atoms.masses) == pytest.approx(math.log(4.0), abs=1e-14)
    def test_mass_and_moment_match(self):
        rp = RadialPart(0.7, ((0.0, 1.0),), r_min=1e-3, r_max=1e3)
        lm = LevyMeasure(AtomicMeasure2D(), rp)
        disc = lm.discretized(cells_per_decade=400, r_lo=1e-3, r_hi=1e3)
        # total mass of r^{-1-a} over [1e-3, 1e3] is exact by construction
        a = 0.7
        expect_mass = (1e-3**-a - 1e3**-a) / a
        assert disc.atoms.total_mass() == pytest.approx(expect_mass, rel=1e-12)
        # 1 ^ r^2 integral of the atoms agrees with the ray's, by quadrature
        assert min_one_norm_sq(disc) == pytest.approx(min_one_norm_sq(lm), rel=1e-5)

    def test_atoms_match_the_per_cell_loop(self):
        # the reference builds one atom per (ray, cell) in ray-major order
        rp = RadialPart(1.3, ((0.3, 0.5), (0.5 * math.pi, 0.25), (4.0, 0.25)), r_min=0.2, r_max=50.0)
        lm = LevyMeasure(AtomicMeasure2D([((1.0, -0.5), 0.3), ((0.2, 0.2), 0.1)]), rp)
        disc = lm.discretized(cells_per_decade=30)
        a, lo, hi = 1.3, 0.2, 50.0
        edges = np.geomspace(lo, hi, round(30 * math.log10(hi / lo)) + 1)
        el, er = edges[:-1], edges[1:]
        cell_mass = (el**-a - er**-a) / a
        centroid = (el ** (1.0 - a) - er ** (1.0 - a)) / ((a - 1.0) * cell_mass)
        atoms = list(lm.atoms.atoms())
        for w1, w2, m in rp.directions():
            atoms += [((r * w1, r * w2), m * cm) for r, cm in zip(centroid, cell_mass)]
        want = AtomicMeasure2D(atoms)
        assert disc.atoms.points.tobytes() == want.points.tobytes()
        assert disc.atoms.masses.tobytes() == want.masses.tobytes()


def radial_triplet(alpha, rays, r_min=0.0, r_max=math.inf):
    rp = RadialPart(alpha, tuple(rays), r_min, r_max)
    return CharTriplet((0.0, 0.0), Matrix2(0, 0, 0), LevyMeasure(AtomicMeasure2D(), rp))


def ray_cf(k, delta):
    """The classical ray integral with the constants at delta computed for the call."""
    return idlaw._ray_cf(k, delta, idlaw._ray_constants(delta))


def rel_err(got, want):
    return abs(got - want) / abs(want)


# indices across (0, 2), with alpha = 1 +- 10^-k and alpha = 1 itself
ALPHAS = st.one_of(
    st.floats(0.05, 1.95),
    st.builds(lambda k, sign: 1.0 + sign * 10.0**-k, st.integers(3, 12), st.sampled_from((-1.0, 1.0))),
    st.just(1.0),
)
ANGLES = st.floats(0.0, 2.0 * math.pi)


@st.composite
def off_axis(draw, r_lo=0.2, r_hi=20.0):
    """A point of C\\R at least 0.05 rad off the real axis, either half-plane."""
    r = draw(st.floats(r_lo, r_hi))
    theta = draw(st.floats(0.05, math.pi - 0.05)) * draw(st.sampled_from((-1.0, 1.0)))
    return cmath.rect(r, theta)


@st.composite
def ray_probes(draw):
    """(alpha, angle, z, w); half the draws put w near omega1 w = omega2 z."""
    alpha, angle, z = draw(ALPHAS), draw(ANGLES), draw(off_axis())
    om1, om2 = RadialPart(alpha, ((angle, 1.0),)).directions()[0][:2]
    if om1 != 0.0 and om2 != 0.0 and draw(st.booleans()):
        ratio = om2 / om1
        assume(0.05 < abs(ratio) < 20.0)
        gap = draw(st.sampled_from((0.0, 1e-15, 1e-12, 1e-8, 1e-4))) * cmath.exp(1j * draw(ANGLES))
        w = z * ratio * (1.0 + gap)
    else:
        w = draw(off_axis())
    return alpha, angle, z, w


class TestAxisDirections:
    @pytest.mark.parametrize("k", range(4))
    def test_axis_components_are_exact_zeros(self, k):
        (w1, w2, _), = RadialPart(0.5, ((0.5 * math.pi * k, 1.0),)).directions()
        assert (w1, w2) == [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][k]

    @pytest.mark.parametrize("r_max", [math.inf, 10.0])
    def test_ray_on_t_axis_leaves_s_marginal_alone(self, r_max):
        # cos(pi/2) = 6e-17 is no exact zero: the closed form would add
        # |omega|^alpha ~ 1e-5, and the truncated ray a term of its own
        t = radial_triplet(0.3, [(0.5 * math.pi, 1.0)], r_max=r_max)
        assert t.marginal_phi(1, 0.5 + 0.1j) == 0.0
        assert t.marginal_dphi(1, 0.5 + 0.1j) == 0.0
        assert t.marginal_phi(2, 0.5 + 0.1j) != 0.0


class TestFullRayClosedForms:
    """Closed forms on (0, inf) against 30-digit mpmath integrals."""

    @settings(max_examples=30)
    @given(ray_probes())
    @example((1.0 - 1e-11, 0.7, 1.0 + 2.0j, (1.0 + 2.0j) * math.tan(0.7)))
    @example((1.0 + 1e-12, 2.5, -0.3 - 4.0j, (-0.3 - 4.0j) * math.tan(2.5) * (1.0 + 1e-15j)))
    @example((1.0, 0.25 * math.pi, 2.0j, 2.0j))
    @example((0.3, 4.0, 0.5 + 0.5j, (0.5 + 0.5j) * math.tan(4.0) * (1.0 + 1e-8)))
    def test_bi_free_phi(self, probe):
        alpha, angle, z, w = probe
        om = RadialPart(alpha, ((angle, 1.0),)).directions()[0][:2]
        got = radial_triplet(alpha, [(angle, 1.0)]).bi_free_phi(z, w)
        assert rel_err(got, mp_ray_phi(alpha, om, z, w)) <= 1e-12

    @settings(max_examples=20)
    @given(ALPHAS, ANGLES, off_axis())
    def test_marginal_phi_and_derivative(self, alpha, angle, z):
        om = RadialPart(alpha, ((angle, 1.0),)).directions()[0][0]
        assume(om != 0.0)
        t = radial_triplet(alpha, [(angle, 1.0)])
        assert rel_err(t.marginal_phi(1, z), mp_ray_marginal_phi(alpha, om, z)) <= 1e-12
        assert rel_err(t.marginal_dphi(1, z), mp_ray_marginal_dphi(alpha, om, z)) <= 1e-12

    @pytest.mark.parametrize(
        "alpha, k",
        [(0.05, 0.3), (0.5, -5.0), (1.0 - 1e-3, 2.0), (1.0 - 1e-12, -0.7), (1.0, 0.02),
         (1.0 + 1e-7, -20.0), (1.5, 1.3), (1.95, -0.4)],
    )
    def test_classical_ray_integral(self, alpha, k):
        # the mpmath oscillatory tail takes about a second, so a fixed set
        assert rel_err(complex(ray_cf(k, alpha - 1.0)), mp_ray_cf(alpha, k)) <= 1e-12

    @settings(max_examples=60)
    @given(ALPHAS, st.floats(0.02, 20.0), st.sampled_from((-1.0, 1.0)))
    def test_classical_gamma_form(self, alpha, k, sign):
        # Gamma(-alpha)(-ik)^alpha - ik (pi/2)/cos(pi alpha/2), with its limit at alpha = 1
        k *= sign
        with mp.workdps(50):  # at 30 digits the Gamma pole at alpha = 1 +- 1e-10 costs 20
            a, kk = mp.mpf(alpha), mp.mpf(k)
            if alpha == 1.0:
                want = -mp.pi / 2 * abs(kk) - 1j * kk * mp.log(abs(kk)) + 1j * kk * (1 - mp.euler)
            else:
                want = mp.gamma(-a) * (-1j * kk) ** a - 1j * kk * mp.pi / 2 / mp.cos(mp.pi * a / 2)
            want = complex(want)
        assert rel_err(complex(ray_cf(k, alpha - 1.0)), want) <= 1e-12

    def test_classical_cf_sums_rays(self):
        rays = [(0.3, 0.5), (0.5 * math.pi, 0.25), (4.0, 0.25)]
        t = radial_triplet(0.7, rays)
        u = (0.8, -1.1)
        rp = t.tau.radial
        expo = sum(m * complex(idlaw._ray_cf(u[0] * w1 + u[1] * w2, -0.3, rp.consts)) for w1, w2, m in rp.directions())
        assert t.classical_cf(u) == pytest.approx(cmath.exp(expo), rel=1e-14)
        assert ray_cf(0.0, 0.3) == 0.0

    def test_confluent_axis_diagonal(self):
        # cos(pi/4) and sin(pi/4) differ by one ulp: c1 and c2 are 1 ulp apart
        t = radial_triplet(1.0, [(2.0 * math.pi * k / 8.0, 0.125) for k in range(8)])
        for z in (2j, -4j):
            want = sum(0.125 * mp_ray_phi(1.0, (math.cos(a), math.sin(a)), z, z)
                       for a in (2.0 * math.pi * k / 8.0 for k in range(8)))
            assert rel_err(t.bi_free_phi(z, z), want) <= 1e-12

    def test_broadcast_matches_points(self):
        t = radial_triplet(0.8, [(0.3, 0.5), (2.0, 0.25), (4.0, 0.25)])
        z = np.array([1.0 + 2j, -0.5 - 1j, 3j])[:, None]
        w = np.array([2j, 0.4 - 3j])[None, :]
        grid = t.bi_free_phi(z, w)
        assert grid.shape == (3, 2)
        pts = [[t.bi_free_phi(zi, wj) for wj in w[0]] for zi in z[:, 0]]
        assert np.allclose(grid, pts, rtol=1e-14, atol=0)
        assert np.allclose(t.marginal_phi(1, z[:, 0]), [t.marginal_phi(1, zi) for zi in z[:, 0]], rtol=1e-14, atol=0)


class TestFullRaysAgainstQuadrature:
    """The truncated-ray Gauss-Legendre kernel, run on full rays, agrees to 1e-9.

    Relative to max(1, |value|): the kernel's error check is absolute below
    1, which a ray nearly on an axis falls under.
    """

    @staticmethod
    def close(got, want):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @settings(max_examples=10)
    @given(st.floats(0.2, 1.8), st.lists(st.tuples(ANGLES, st.floats(0.1, 1.0)), min_size=1, max_size=2),
           off_axis(0.5, 10.0), off_axis(0.5, 10.0))
    def test_phi_marginals_and_cf(self, alpha, rays, z, w):
        t = radial_triplet(alpha, rays)
        rp = t.tau.radial
        assert self.close(t.bi_free_phi(z, w), complex(idlaw._truncated_phi(rp, z, w)))
        for axis, x in ((1, z), (2, w)):
            phi, dphi = idlaw._truncated_marginal(rp, axis, x)  # both from one kernel call
            assert self.close(t.marginal_phi(axis, x), complex(phi))
            assert self.close(t.marginal_dphi(axis, x), complex(dphi))
        u = (z.real, w.real)
        quad_expo = complex(idlaw._truncated_cf(rp, u))
        # the exponent's size, not the CF's, sets the scale of the error
        assert abs(t.classical_cf(u) / cmath.exp(quad_expo) - 1.0) <= 1e-9 * max(1.0, abs(quad_expo))


AXIS_ANGLES = st.sampled_from((0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi))


@st.composite
def mixed_rays(draw):
    """(alpha, rays, z, w, u): rays on the axes and off them; w may put an off-axis ray at omega1 w = omega2 z."""
    alpha = draw(ALPHAS)
    mass = st.floats(0.1, 1.0)
    on = draw(st.lists(st.tuples(AXIS_ANGLES, mass), min_size=1, max_size=3))
    off = draw(st.lists(st.tuples(ANGLES, mass), min_size=1, max_size=3))
    rays = draw(st.permutations(on + off))
    z = draw(off_axis())
    om1, om2 = RadialPart(alpha, (off[0],)).omega[0]
    if om1 != 0.0 and om2 != 0.0 and 0.05 < abs(om2 / om1) < 20.0 and draw(st.booleans()):
        w = z * (om2 / om1)
    else:
        w = draw(off_axis())
    u = draw(st.sampled_from(((0.7, -1.3), (0.9, 0.0), (0.0, -1.1), (0.0, 0.0))))
    return alpha, rays, z, w, u


class TestRayTables:
    """Full rays read per-axis tables built with the radial part."""

    RAYS = ((0.0, 0.5), (0.3, 0.25), (0.5 * math.pi, 0.75), (2.0, 0.125), (math.pi, 0.5))

    @staticmethod
    def tables(rp):
        return [a for pair in rp.axis_rays for a in pair]

    def test_axis_tables_put_rays_with_both_components_first(self):
        rp = RadialPart(0.7, self.RAYS)
        (o1, m1), (o2, m2) = rp.axis_rays
        assert rp.n_both == 2
        assert o1.tolist() == [math.cos(0.3), math.cos(2.0), 1.0, -1.0] and m1.tolist() == [0.25, 0.125, 0.5, 0.5]
        assert o2.tolist() == [math.sin(0.3), math.sin(2.0), 1.0] and m2.tolist() == [0.25, 0.125, 0.75]

    def test_built_once_and_read_only(self):
        t = radial_triplet(0.7, self.RAYS)
        rp = t.tau.radial
        before = [a.copy() for a in self.tables(rp)]
        ids = [id(a) for a in self.tables(rp)]
        consts = rp.consts
        for _ in range(2):
            t.bi_free_phi(1.0 + 2j, -0.5 - 1j)
            t.marginal_phi_dphi(1, np.array([2j, 1.0 - 1j]))
            t.classical_cf((0.3, -0.8))
        assert [id(a) for a in self.tables(rp)] == ids and rp.consts is consts
        for a, b in zip(self.tables(rp), before):
            np.testing.assert_array_equal(a, b)
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_scaled_tables_match_a_fresh_part(self):
        rp = RadialPart(1.3, self.RAYS)
        got, want = rp.scaled(2.5), RadialPart(1.3, tuple((a, 2.5 * m) for a, m in self.RAYS))
        assert got.n_both == want.n_both and got.consts == want.consts
        for a, b in zip(self.tables(got), self.tables(want)):
            np.testing.assert_array_equal(a, b)

    def test_one_log_per_axis(self, monkeypatch):
        t = radial_triplet(0.7, [(2.0 * math.pi * k / 8.0, 0.125) for k in range(8)])
        calls = []
        log = np.log
        monkeypatch.setattr(np, "log", lambda *a, **k: calls.append(1) or log(*a, **k))
        for z, w in ((2j, -4j + 0.3), (2j, 2j), (1.0 + 1j, 3.0 + 0.5j)):  # (2j, 2j): omega1 w = omega2 z at pi/4
            calls.clear()
            t.bi_free_phi(z, w)
            assert len(calls) <= 2

    @settings(max_examples=60)
    @given(mixed_rays())
    @example((1.0, ((0.0, 0.5), (0.25 * math.pi, 0.3), (0.5 * math.pi, 0.2)), 2j, 2j, (0.0, 1.0)))
    @example((1.0 - 1e-9, ((math.pi, 0.4), (2.5, 0.6)), -1.0 + 1j, (-1.0 + 1j) * math.tan(2.5), (0.9, 0.0)))
    def test_mixed_rays_sum_single_rays(self, probe):
        # a ray may sit in one axis table and not the other; each value is the
        # sum of the single-ray triplets' values, and the CF their product
        alpha, rays, z, w, u = probe
        t = radial_triplet(alpha, rays)
        singles = [radial_triplet(alpha, [ray]) for ray in rays]

        def close(got, parts):
            return abs(got - sum(parts)) <= 1e-13 * sum(abs(p) for p in parts)

        assert close(t.bi_free_phi(z, w), [s.bi_free_phi(z, w) for s in singles])
        for axis, x in ((1, z), (2, w)):
            assert close(t.marginal_phi(axis, x), [s.marginal_phi(axis, x) for s in singles])
            assert close(t.marginal_dphi(axis, x), [s.marginal_dphi(axis, x) for s in singles])
        expos = [cmath.log(s.classical_cf(u)) for s in singles]
        assert abs(t.classical_cf(u) / cmath.exp(sum(expos)) - 1.0) <= 1e-13 * max(1.0, sum(abs(e) for e in expos))


class TestTruncatedRays:
    """Rays with a finite end go through one fixed-node Gauss-Legendre kernel."""

    RAYS = [(0.4, 0.25), (2.0, 0.5)]

    def test_phi_against_mpmath(self):
        t = radial_triplet(1.2, self.RAYS, r_min=0.2, r_max=5.0)
        z = np.array([2j, 1.0 - 4j])
        w = np.array([-0.5 + 3j, 8j])
        got = t.bi_free_phi(z, w)
        for zi, wi, g in zip(z, w, got):
            assert rel_err(g, mp_truncated_ray_phi(1.2, self.RAYS, 0.2, 5.0, zi, wi)) <= 1e-9

    def test_cf_against_mpmath(self):
        t = radial_triplet(1.2, self.RAYS, r_min=0.2, r_max=5.0)
        for u in [(0.5, -1.0), (2.0, 0.3)]:
            assert rel_err(t.classical_cf(u), mp_truncated_ray_cf(1.2, self.RAYS, 0.2, 5.0, u)) <= 1e-9

    @pytest.mark.parametrize("degree", [0, 1, 7, 2 * idlaw._GL_N - 1])
    def test_quad_exact_on_polynomials(self, degree):
        # both rules, n and 2n nodes, are exact up to degree 2n - 1: the estimate is rounding
        a, b = np.array([[0.0, 0.5], [-1.0, 2.0]]), np.array([[0.5, 1.0], [2.0, 3.0]])
        val, err = idlaw.quad(lambda x: (degree + 1) * x**degree, a, b)
        np.testing.assert_allclose(val, [1.0, 3.0 ** (degree + 1) - (-1.0) ** (degree + 1)], rtol=1e-13)
        assert np.all(err <= 1e-13 * np.abs(val))

    def test_library_imports_no_scipy(self):
        src = Path(idlaw.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path.name

    def test_error_names_integral_estimate_and_point(self, monkeypatch):
        t = radial_triplet(1.2, self.RAYS, r_min=0.2, r_max=5.0)
        z, w = np.array([2j, 1.0 - 4j]), np.array([-0.5 + 3j, 8j])
        monkeypatch.setattr(idlaw, "QUAD_ERR_TOL", -1.0)  # every estimate fails
        with pytest.raises(idlaw.QuadratureError) as info:
            t.bi_free_phi(z, w)
        e = info.value
        assert e.integral == "phi" and e.worst_estimate >= 0.0
        assert e.worst_point in list(zip(z.tolist(), w.tolist()))
        with pytest.raises(idlaw.QuadratureError) as info:
            t.drift()
        assert info.value.integral == "drift" and info.value.worst_point == (0.2, 5.0)

    def test_grid_matches_points(self):
        # 20 x 20 probes on 2 rays is more than one block of the kernel
        t = radial_triplet(0.7, self.RAYS, r_min=0.0, r_max=5.0)
        z = (np.linspace(-3.0, 3.0, 20) + 0.5j)[:, None]
        w = (np.linspace(-2.0, 4.0, 20) - 1.5j)[None, :]
        grid = t.bi_free_phi(z, w)
        pts = [[t.bi_free_phi(zi, wj) for wj in w[0]] for zi in z[:, 0]]
        np.testing.assert_allclose(grid, pts, rtol=1e-14, atol=0)


@st.composite
def truncated_ray(draw):
    """(alpha, angle, r_min, r_max) with r_min = 0 or > 0, r_max finite or inf, not both full."""
    alpha, angle = draw(ALPHAS), draw(ANGLES)
    r_min = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    r_max = draw(st.one_of(st.just(math.inf), st.floats(2.0, 50.0))) if r_min > 0.0 else draw(st.floats(2.0, 50.0))
    return alpha, angle, r_min, r_max


@st.composite
def support_probe(draw, om, r_min, r_max):
    """Half the draws: Re z/omega inside the support and Im z = +-1e-3; else off the axis."""
    if om != 0.0 and draw(st.booleans()):
        r0 = draw(st.floats(max(r_min, 0.05), min(r_max, 60.0)))
        return r0 * om + 1e-3j * draw(st.sampled_from((-1.0, 1.0)))
    return draw(off_axis())


class TestTruncatedRayOracles:
    """Each truncated-ray integral against 30-digit mpmath, one kind per draw."""

    @settings(max_examples=14)
    @given(truncated_ray(), st.sampled_from(["phi", "marginal", "cf", "drift"]), st.data())
    def test_against_mpmath(self, ray, kind, data):
        alpha, angle, r_min, r_max = ray
        t = radial_triplet(alpha, [(angle, 1.0)], r_min, r_max)
        om = t.tau.radial.directions()[0][:2]
        if kind == "phi":
            z, w = data.draw(support_probe(om[0], r_min, r_max)), data.draw(support_probe(om[1], r_min, r_max))
            got = t.bi_free_phi(z, w)
            assert rel_err(got, mp_ray_phi(alpha, om, z, w, r_min, r_max)) <= 1e-10
            assert abs(t.bi_free_phi(z.conjugate(), w.conjugate()) - got.conjugate()) <= 1e-14 * abs(got)
        elif kind == "marginal":
            assume(om[0] != 0.0)
            z = data.draw(support_probe(om[0], r_min, r_max))
            assert rel_err(t.marginal_phi(1, z), mp_ray_marginal_phi(alpha, om[0], z, r_min, r_max)) <= 1e-10
            assert rel_err(t.marginal_dphi(1, z), mp_ray_marginal_dphi(alpha, om[0], z, r_min, r_max)) <= 1e-10
        elif kind == "cf":
            k = data.draw(st.floats(0.02, 50.0)) * data.draw(st.sampled_from((-1.0, 1.0)))
            u = (k * om[0], k * om[1])
            got = complex(idlaw._truncated_cf(t.tau.radial, u))
            assert rel_err(got, mp_ray_cf_on(alpha, om[0] * u[0] + om[1] * u[1], r_min, r_max)) <= 1e-10
        else:
            d = t.drift()
            if r_min == 0.0 and alpha >= 1.0:
                assert d is None
            else:
                assert rel_err(-(om[0] * d[0] + om[1] * d[1]), mp_ray_drift(alpha, r_min, r_max)) <= 1e-10


class TestCFOnArrays:
    """classical_cf takes u of shape (..., 2) and matches its one-u values."""

    US = np.array([[0.5, -1.0], [2.0, 0.3], [0.0, 0.0], [-1.5, 0.7], [0.0, 1.2], [0.9, 0.9]])

    @pytest.mark.parametrize("trip", [
        CharTriplet((0.1, 0.2), ONES, LevyMeasure(AtomicMeasure2D([((1.0, -0.5), 0.7), ((-0.3, 2.0), 0.4)]))),
        radial_triplet(0.7, [(0.3, 0.5), (0.5 * math.pi, 0.25), (4.0, 0.25)]),
        radial_triplet(1.2, TestTruncatedRays.RAYS, r_min=0.2, r_max=5.0),
    ], ids=["atoms-and-gaussian", "full-rays", "truncated-rays"])
    def test_matches_one_u_at_a_time(self, trip):
        one_by_one = np.array([trip.classical_cf(tuple(u)) for u in self.US])
        assert all(isinstance(trip.classical_cf(tuple(u)), complex) for u in self.US[:2])
        flat = trip.classical_cf(self.US)
        assert flat.shape == (6,)
        np.testing.assert_allclose(flat, one_by_one, rtol=1e-14, atol=0)
        grid = trip.classical_cf(self.US.reshape(2, 3, 2))
        assert grid.shape == (2, 3)
        np.testing.assert_allclose(grid, one_by_one.reshape(2, 3), rtol=1e-14, atol=0)
