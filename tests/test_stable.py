import math

import numpy as np
import pytest

import bifree.stable as stable
from bifree.idlaw import RadialPart
from bifree.measure import Matrix2, PlanarMeasure, dirac
from bifree.stable import (
    StableSpec,
    check_stability,
    default_probes,
    domain_of_attraction_run,
    fit_point_mass_shift,
    stable_triplet,
)
from bifree.transforms import bi_free_phi

I2 = Matrix2(1.0, 0.0, 1.0)
ONES = Matrix2(1.0, 1.0, 1.0)


def uniform_theta(n=8, total=1.0):
    return tuple((2 * math.pi * k / n, total / n) for k in range(n))


class TestSpecAndTriplet:
    def test_gaussian_branch(self):
        spec = StableSpec(alpha=2.0, gaussian_a=I2)
        t = stable_triplet(spec)
        assert len(t.tau.atoms) == 0 and t.tau.radial is None
        assert t.A.as_array().tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_single_ray(self):
        spec = StableSpec(alpha=1.0, theta=((0.0, 1.0),))
        t = stable_triplet(spec)
        assert t.tau.radial is not None
        assert t.tau.radial.alpha == 1.0
        assert t.tau.radial.directions()[0][:2] == pytest.approx((1.0, 0.0))

    def test_four_rays(self):
        spec = StableSpec(alpha=0.5, theta=uniform_theta(4))
        t = stable_triplet(spec)
        assert len(t.tau.radial.rays) == 4

    def test_triplet_built_once_per_spec(self, monkeypatch):
        built = []
        real = RadialPart.__post_init__
        monkeypatch.setattr(RadialPart, "__post_init__", lambda self: built.append(1) or real(self))
        spec = StableSpec(alpha=1.5, theta=uniform_theta(8))
        for a, b in ((1.0, 2.0), (0.5, 0.5), (2.0, 1.0)):
            check_stability(spec, a, b)
        domain_of_attraction_run(dirac((1.0, 1.0)), spec, [4, 8, 16])
        assert len(built) == 1
        assert stable_triplet(spec) is spec.triplet

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            StableSpec(alpha=2.5, gaussian_a=I2)
        with pytest.raises(ValueError):
            StableSpec(alpha=2.0, theta=((0.0, 1.0),), gaussian_a=I2)
        with pytest.raises(ValueError):
            StableSpec(alpha=1.0)


class TestDilationCovariance:
    def test_atomic_phi(self):
        mu = PlanarMeasure([((0.8, -0.6), 0.5), ((-0.4, 0.2), 0.5)])
        lam = 2.5
        dil = mu.dilated(lam)
        rng = np.random.default_rng(9)
        count = 0
        for _ in range(50):
            y = rng.uniform(8.0, 30.0) * rng.choice([-1, 1])
            v = rng.uniform(8.0, 30.0) * rng.choice([-1, 1])
            z = rng.uniform(-0.5, 0.5) * abs(y) + 1j * y
            w = rng.uniform(-0.5, 0.5) * abs(v) + 1j * v
            assert bi_free_phi(dil, z, w) == pytest.approx(
                bi_free_phi(mu, z / lam, w / lam), abs=1e-11
            )
            count += 1
        assert count == 50


class TestStability:
    def test_gaussian(self):
        spec = StableSpec(alpha=2.0, gaussian_a=ONES, v=(0.1, -0.2))
        rep = check_stability(spec, 1.0, 1.0)
        assert rep.c == pytest.approx(math.sqrt(2.0))
        assert rep.max_residual <= 1e-12
        assert rep.is_stable

    def test_cauchy_like_symmetric(self):
        spec = StableSpec(alpha=1.0, theta=((0.0, 0.5), (math.pi, 0.5)))
        rep = check_stability(spec, 1.5, 2.5)
        assert rep.c == pytest.approx(4.0)
        assert rep.max_residual <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize(
        "ab", [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]
    )
    def test_residual_grid(self, alpha, ab):
        if alpha == 2.0:
            spec = StableSpec(alpha=2.0, gaussian_a=ONES)
        else:
            spec = StableSpec(alpha=alpha, theta=uniform_theta(8))
        rep = check_stability(spec, *ab)
        assert rep.max_residual <= 1e-8
        assert rep.c == pytest.approx((ab[0] ** alpha + ab[1] ** alpha) ** (1 / alpha))

    @pytest.mark.parametrize("ab", [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, -math.inf), (0.0, 1.0)])
    def test_dilation_factors_must_be_finite_and_positive(self, ab):
        spec = StableSpec(alpha=1.5, theta=uniform_theta(8))
        with pytest.raises(ValueError, match="dilation factors must be finite and positive"):
            check_stability(spec, *ab)

    def test_wrong_index_flagged(self):
        spec = StableSpec(alpha=1.0, theta=uniform_theta(8))
        wrong = StableSpec(alpha=1.5, theta=uniform_theta(8))
        # evaluate the alpha=1 law but scale c as if alpha were 1.5
        trip = stable_triplet(spec)
        a, b = 1.0, 2.0
        c_wrong = (a**wrong.alpha + b**wrong.alpha) ** (1 / wrong.alpha)
        probes = default_probes()
        resid = [
            trip.bi_free_phi(z / a, w / a)
            + trip.bi_free_phi(z / b, w / b)
            - trip.bi_free_phi(z / c_wrong, w / c_wrong)
            for z, w in probes
        ]
        _, leftover = fit_point_mass_shift(probes, resid)
        assert leftover > 1e-2

    def test_index_scan_matches(self):
        # the drift-fitted residual of phi(./a) + phi(./b) - phi(./c), scanned
        # over c, is smallest at c = (a^alpha + b^alpha)^(1/alpha)
        spec = StableSpec(alpha=1.5, theta=uniform_theta(8))
        a, b = 1.0, 2.0
        expect = (a**1.5 + b**1.5) ** (1 / 1.5)
        trip = stable_triplet(spec)
        probes = default_probes()
        zs, ws = np.array(probes).T
        base = trip.bi_free_phi(zs / a, ws / a) + trip.bi_free_phi(zs / b, ws / b)
        cs = np.linspace(0.7 * expect, 1.3 * expect, 61)
        leftovers = [fit_point_mass_shift(probes, base - trip.bi_free_phi(zs / c, ws / c))[1] for c in cs]
        best = cs[np.argmin(leftovers)]
        assert abs(best - expect) / expect < 0.01


class TestMarginalStability:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_marginal_phi_power_law(self, alpha):
        # phi' of the first marginal behaves like beta z^{-alpha} at scale.
        # At alpha = 1 a symmetric circle measure makes beta vanish (the
        # per-ray contributions are exactly (cos w)/z and cancel in pairs),
        # so the index is probed with an asymmetric measure there.
        if alpha == 1.0:
            theta = ((0.0, 0.6), (math.pi, 0.2), (math.pi / 2, 0.1), (-math.pi / 2, 0.1))
        else:
            theta = uniform_theta(8)
        spec = StableSpec(alpha=alpha, theta=theta)
        trip = stable_triplet(spec)
        ys = np.geomspace(10.0, 100.0, 7)
        dphi = np.array([trip.marginal_dphi(1, 1j * y) for y in ys])
        slope = np.polyfit(np.log(ys), np.log(np.abs(dphi)), 1)[0]
        assert abs(-slope - alpha) <= 0.02 * alpha


class TestDomainOfAttraction:
    def test_dirac_exact(self):
        spec = StableSpec(alpha=1.0, theta=((0.0, 1.0),))
        nu = dirac((1.0, 1.0))
        rep = domain_of_attraction_run(nu, spec, [4, 8, 16])
        # the dilated n-fold Dirac is itself a point mass: the drift fit
        # removes it entirely and the residual is the constant target phi gap
        assert all(r >= 0 for r in rep.bifree_residuals)

    @pytest.mark.parametrize("ns", [[-8, 32], [0, 8], [-2, -1]])
    def test_sizes_below_one_are_rejected(self, ns):
        # n^(1/alpha) of a negative n is complex, and n = 0 divides by zero
        nu = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        with pytest.raises(ValueError, match="sample sizes must be at least 1"):
            domain_of_attraction_run(nu, StableSpec(alpha=2.0, gaussian_a=ONES), ns)

    def test_bernoulli_to_gaussian(self):
        nu = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        spec = StableSpec(alpha=2.0, gaussian_a=ONES)
        rep = domain_of_attraction_run(nu, spec, [8, 16, 32, 64])
        ratios = [b / a for a, b in zip(rep.bifree_residuals[:-1], rep.bifree_residuals[1:])]
        assert all(0.3 < r < 0.75 for r in ratios)  # O(1/n) per doubling
        assert rep.bifree_converged and rep.classical_converged

    def test_wrong_target_rejected(self):
        nu = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        spec = StableSpec(alpha=1.0, theta=uniform_theta(8))
        rep = domain_of_attraction_run(nu, spec, [8, 16, 32, 64])
        assert not rep.bifree_converged
        assert not rep.classical_converged
        assert rep.agree

    def test_catalog_agreement(self):
        four_atom = PlanarMeasure(
            [((1.0, 0.0), 0.25), ((-1.0, 0.0), 0.25), ((0.0, 1.0), 0.25), ((0.0, -1.0), 0.25)]
        )
        diag = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        cases = [
            (diag, StableSpec(alpha=2.0, gaussian_a=ONES)),
            (four_atom, StableSpec(alpha=2.0, gaussian_a=Matrix2(0.5, 0.0, 0.5))),
            (diag, StableSpec(alpha=1.0, theta=uniform_theta(8))),
            (four_atom, StableSpec(alpha=2.0, gaussian_a=ONES)),  # wrong matrix
        ]
        for nu, spec in cases:
            rep = domain_of_attraction_run(nu, spec, [8, 16, 32, 64])
            assert rep.agree


class TestProbeCount:
    """A shift fit over one probe is vacuous: the two-parameter shift fits any
    single generic residual exactly, so both experiments need two probes."""

    SPEC = StableSpec(alpha=1.0, theta=uniform_theta(8))
    FOUR_ATOM = PlanarMeasure([((0.3, -0.8), 0.25), ((-0.6, 0.2), 0.25), ((0.9, 0.5), 0.25), ((-0.4, -0.7), 0.25)])
    ONE_PROBE = [(1 + 2j, -1 + 3j)]

    def test_one_probe_is_rejected(self):
        with pytest.raises(ValueError, match="need at least two probes"):
            check_stability(self.SPEC, 1.0, 2.0, probes=self.ONE_PROBE)
        with pytest.raises(ValueError, match="need at least two probes"):
            domain_of_attraction_run(self.FOUR_ATOM, self.SPEC, [8, 32, 128, 512], probes=self.ONE_PROBE)

    def test_one_probe_shift_fit_is_rejected(self):
        # any residual at one probe would fit with no leftover
        with pytest.raises(ValueError, match="need at least two probes"):
            fit_point_mass_shift(self.ONE_PROBE, [0.37 - 1.2j])

    def test_empty_u_probe_set_is_rejected(self, monkeypatch):
        # a residual over no u-probes checks nothing; no transform is evaluated
        def evaluated(*args, **kwargs):
            raise AssertionError("a transform was evaluated")

        monkeypatch.setattr(stable, "stable_triplet", evaluated)
        monkeypatch.setattr(stable, "bi_free_phi", evaluated)
        with pytest.raises(ValueError, match="u_probes is empty"):
            domain_of_attraction_run(self.FOUR_ATOM, self.SPEC, [8, 32, 128, 512], u_probes=[])

    def test_two_probes_are_enough(self):
        probes = [(2j, 2j), (4j, -2j)]
        assert check_stability(self.SPEC, 1.0, 2.0, probes=probes).is_stable
        rep = domain_of_attraction_run(self.FOUR_ATOM, self.SPEC, [8, 32, 128, 512], probes=probes)
        assert len(rep.bifree_residuals) == 4
