from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bifree.freeconv as fc
import bifree.fullness as fullness
import bifree.limits as lm
import bifree.stable as stable
import bifree.transforms as tf
from bifree.freeconv import free_convolve_many
from bifree.idlaw import make_gaussian
from bifree.measure import Matrix2, Measure1D, PlanarMeasure, dirac, row_stack
from bifree.transforms import (
    GridDensity,
    NoConvergence,
    _damped_newton,
    bi_free_phi,
    cauchy1d,
    cauchy2d,
    cone_for,
    f_transform,
    free_phi,
    invert_f,
    stieltjes2d,
)

from oracles import damped_newton_loop, dirac1d, smoothed_atoms_2d

B = Measure1D([(1.0, 0.5), (-1.0, 0.5)])
TWO_ATOM = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])


def bicone_probes(n=100, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.uniform(2.0, 12.0, n) * rng.choice([-1.0, 1.0], n)
    x = rng.uniform(-0.9, 0.9, n) * np.abs(y)
    v = rng.uniform(2.0, 12.0, n) * rng.choice([-1.0, 1.0], n)
    u = rng.uniform(-0.9, 0.9, n) * np.abs(v)
    return x + 1j * y, u + 1j * v


class TestCauchy2D:
    def test_dirac_origin(self):
        assert cauchy2d(dirac((0, 0)), 1j, 1j) == pytest.approx(-1.0)

    def test_single_atom_formula(self):
        val = cauchy2d(dirac((1, -1)), 2j, 3j)
        assert val == pytest.approx(1.0 / ((2j - 1) * (3j + 1)))

    def test_two_atom_brute_force(self):
        val = cauchy2d(TWO_ATOM, 2j, 2j)
        expect = 0.5 / (2j - 1) ** 2 + 0.5 / (2j + 1) ** 2
        assert val == pytest.approx(expect, abs=1e-15)

    def test_real_argument_rejected(self):
        with pytest.raises(ValueError):
            cauchy2d(TWO_ATOM, 1.0, 2j)

    def test_conjugation(self):
        zs, ws = bicone_probes()
        a = cauchy2d(TWO_ATOM, np.conj(zs), np.conj(ws))
        b = np.conj(cauchy2d(TWO_ATOM, zs, ws))
        assert np.max(np.abs(a - b)) < 1e-12


class TestCauchy1D:
    def test_dirac(self):
        assert cauchy1d(dirac1d(0.0), 1j) == pytest.approx(-1j)
        assert f_transform(dirac1d(0.0), 1j) == pytest.approx(1j)

    def test_two_atom_f(self):
        # F(z) = z - 1/z for the symmetric Bernoulli law
        assert f_transform(B, 2j) == pytest.approx(2.5j, abs=1e-15)

    def test_conjugation(self):
        zs, _ = bicone_probes()
        assert np.max(np.abs(f_transform(B, np.conj(zs)) - np.conj(f_transform(B, zs)))) < 1e-11


class TestInvertF:
    def test_identity(self):
        assert invert_f(dirac1d(0.0), 5j) == pytest.approx(5j)

    def test_shifted_point(self):
        assert invert_f(dirac1d(1.0), 5j) == pytest.approx(1 + 5j)

    def test_two_atom_quadratic_root(self):
        z = 5j
        zeta = invert_f(B, z)
        expect = (z + np.sqrt(z * z + 4)) / 2
        assert zeta == pytest.approx(expect, abs=1e-12)
        assert abs(f_transform(B, zeta) - z) <= 1e-12 * (1 + abs(z))

    def test_no_convergence_off_domain(self):
        # the pure-imaginary target below the two-atom branch point has no
        # nearby root reachable from the identity guess
        with pytest.raises(NoConvergence):
            invert_f(B, 0.05j)


class TestDampedNewtonUnknowns:
    """Unknowns on a leading axis: an entry settles when all of them do and fails when one does."""

    TARGET = np.array([1j, 2j, 3j])

    def h_eval(self, x):
        # x_0 = t is solved by the first Newton step, x_1^2 = t takes several
        h = np.stack([x[0] - self.TARGET, x[1] * x[1] - self.TARGET])
        with np.errstate(invalid="ignore"):  # a nan start
            return h, -h / np.stack([np.ones_like(x[0]), 2.0 * x[1]]), ()

    def test_every_unknown_settles(self):
        x, _, ok = _damped_newton(self.h_eval, np.stack([self.TARGET + 1.0] * 2), self.TARGET)
        assert ok.all()
        assert np.max(np.abs(x[1] * x[1] - self.TARGET)) <= 1e-12 * 4.0

    def test_one_failed_unknown_fails_its_entry(self):
        start = np.stack([self.TARGET + 1.0] * 2)
        start[1, 0] = np.nan
        _, _, ok = _damped_newton(self.h_eval, start, self.TARGET)
        assert ok.tolist() == [False, True, True]


@st.composite
def newton_problems(draw):
    """A residual for ``_damped_newton``, its start and target, and its mode.

    Plain mode inverts F of an atomic law (one unknown per entry) or solves
    (x_0 = t, x_1^2 = t) (two); fixed-point mode solves a subordination
    system of 2-4 laws (one or more unknowns per entry).  The Newton step
    may be scaled, so that proposals overshoot (fall-backs) or leave the
    half-plane (halvings); h may be made non-finite beyond a radius
    (halvings, given-up entries); a start may be nan.
    """
    kind = draw(st.sampled_from(["inverse", "pair", "subordination", "subordination"]))
    size = draw(st.integers(1, 6))
    x = draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size))
    y = draw(st.lists(st.floats(-2.0, 0.7), min_size=size, max_size=size))
    sign = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
    target = np.array(x) + 1j * np.array(sign) * 10.0 ** np.array(y)
    scale = draw(st.sampled_from([1.0, 1.0, 2.5, -1.0, 40.0]))
    radius = draw(st.sampled_from([np.inf, np.inf, 4.0]))
    if kind == "inverse":
        law = draw(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.1, 1.0)), min_size=2, max_size=3,
                            unique_by=lambda a: a[0]))
        points, weights = np.array([p for p, _ in law]), np.array([w for _, w in law])
        weights /= weights.sum()

        def raw(x):
            f, fp = tf._f_and_deriv(points, weights, x)
            return f - target, -(f - target) / tf._nonzero(fp), ()

        start, fixed = target.copy(), False
    elif kind == "pair":

        def raw(x):
            h = np.stack([x[0] - target, x[1] * x[1] - target])
            return h, -h / np.stack([np.ones_like(x[0]), 2.0 * x[1]]), ()

        start, fixed = np.stack([target + 1.0, target + 0.5]), False
    else:
        laws = [Measure1D(list(zip(pts, [1.0 / len(pts)] * len(pts))))
                for pts in draw(st.lists(st.lists(st.integers(-15, 15).map(lambda k: k / 10.0), min_size=2,
                                                  max_size=3, unique=True),
                                         min_size=1, max_size=3))]
        rep = free_convolve_many(laws + [B])  # two or more terms: a system with unknowns
        target = np.where(target.imag < 0, np.conj(target), target)
        residual, lead = fc._residual(target, rep.system, None)
        start = np.broadcast_to(target + 2j, (lead, size) if lead else (size,))
        raw, fixed = residual, True
    if draw(st.booleans()):
        start = np.array(start)
        start[..., draw(st.integers(0, size - 1))] = np.nan

    def h_eval(x):
        with np.errstate(all="ignore"):
            h, step, aux = raw(x)
            h = np.where(np.abs(x) > radius, np.nan, h)
        return h, scale * step, aux

    return h_eval, start, target, fixed


class TestDampedNewtonReference:
    """The loop's iterates are the reference loop's (``oracles.damped_newton_loop``), bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(newton_problems(), st.sampled_from([(1e-12, 100), (1e-13, 200), (1e-12, 3)]))
    def test_same_roots_aux_and_mask(self, problem, limits):
        h_eval, start, target, fixed = problem
        tol, maxiter = limits
        evals = {}
        results = {}
        for name, loop in (("new", _damped_newton), ("reference", damped_newton_loop)):
            calls = []

            def counted(x):
                calls.append(1)
                return h_eval(x)

            results[name] = loop(counted, start, target, tol=tol, maxiter=maxiter, fixed_point=fixed)
            evals[name] = len(calls)
        (x, aux, ok), (want_x, want_aux, want_ok) = results["new"], results["reference"]
        assert evals["new"] == evals["reference"]
        assert x.tobytes() == want_x.tobytes() and x.shape == want_x.shape
        assert ok.tolist() == want_ok.tolist()
        assert len(aux) == len(want_aux)
        for a, b in zip(aux, want_aux):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestFreePhi:
    def test_point_mass_constant(self):
        assert free_phi(dirac1d(1.5), 5j) == pytest.approx(1.5)

    def test_two_atom_closed_form(self):
        z = 5j
        expect = (np.sqrt(z * z + 4) - z) / 2
        assert free_phi(B, z) == pytest.approx(expect, abs=1e-12)
        assert free_phi(B, z) == pytest.approx(-0.2087121525j, abs=1e-9)

    def test_translation_covariance(self):
        shifted = Measure1D([(3.0, 0.5), (1.0, 0.5)])  # B shifted by +2
        for z in (5j, -4j, 2 + 6j):
            assert free_phi(shifted, z) == pytest.approx(free_phi(B, z) + 2.0, abs=1e-10)

    def test_defining_relation_on_cone(self):
        cone = cone_for(B)
        rng = np.random.default_rng(1)
        y = rng.uniform(cone.M, 4 * cone.M, 50) * rng.choice([-1, 1], 50)
        x = rng.uniform(-1, 1, 50) * np.abs(y) * cone.theta
        z = x + 1j * y
        phi = free_phi(B, z)
        assert np.max(np.abs(f_transform(B, phi + z) - z)) < 1e-10 * (1 + np.abs(z)).max()


class TestBiFreePhi:
    def test_dirac_formula(self):
        val = bi_free_phi(dirac((1.0, -2.0)), 2j, 2j)
        assert val == pytest.approx(0.5j, abs=1e-12)

    def test_origin_zero(self):
        zs, ws = bicone_probes(30)
        vals = bi_free_phi(dirac((0.0, 0.0)), zs, ws)
        assert np.max(np.abs(vals)) < 1e-12

    def test_product_measure_splits(self):
        prod = PlanarMeasure(
            [((1, 1), 0.25), ((1, -1), 0.25), ((-1, 1), 0.25), ((-1, -1), 0.25)]
        )
        for z, w in [(3j, 4j), (-5j, 2j), (1 + 4j, -2 - 5j)]:
            val = bi_free_phi(prod, z, w)
            expect = free_phi(B, z) / z + free_phi(B, w) / w
            assert val == pytest.approx(expect, abs=1e-11)

    def test_dirac_everywhere(self):
        zs, ws = bicone_probes()
        vals = bi_free_phi(dirac((1.0, -2.0)), zs, ws)
        assert np.max(np.abs(vals - (1.0 / zs - 2.0 / ws))) < 1e-10

    def test_conjugation(self):
        zs, ws = bicone_probes()
        a = bi_free_phi(TWO_ATOM, np.conj(zs), np.conj(ws))
        b = np.conj(bi_free_phi(TWO_ATOM, zs, ws))
        assert np.max(np.abs(a - b)) < 1e-12


class TestStieltjes1D:
    """-Im G(s + i eps) / pi of one law, read from ``FreeConvRep.density``."""

    def test_smoothed_atom_center(self):
        val = free_convolve_many([dirac1d(0.0)]).density([0.0], 0.1)
        assert val[0] == pytest.approx(10 / np.pi)

    def test_smoothed_atom_offset(self):
        val = free_convolve_many([dirac1d(0.0)]).density([0.1], 0.1)
        assert val[0] == pytest.approx(5 / np.pi)

    def test_symmetry(self):
        axis = np.array([-1.3, -0.4, 0.4, 1.3])
        vals = free_convolve_many([B]).density(axis, 0.05)
        assert vals[0] == pytest.approx(vals[3])
        assert vals[1] == pytest.approx(vals[2])


class TestStieltjes2D:
    def test_smoothed_origin_atom(self):
        g = lambda z, w: cauchy2d(dirac((0, 0)), z, w)
        grid = stieltjes2d(g, [0.0], [0.0], 0.1)
        assert grid.values[0, 0] == pytest.approx(100 / np.pi**2)

    def test_translation(self):
        g = lambda z, w: cauchy2d(dirac((0.7, -0.3)), z, w)
        grid = stieltjes2d(g, [0.7], [-0.3], 0.1)
        assert grid.values[0, 0] == pytest.approx(100 / np.pi**2)

    def test_mixture_value(self):
        eps = 0.1
        g = lambda z, w: cauchy2d(TWO_ATOM, z, w)
        grid = stieltjes2d(g, [1.0], [1.0], eps)
        expect = 0.5 * 100 / np.pi**2 + 0.5 * eps**2 / (np.pi**2 * (4 + eps**2) ** 2)
        assert grid.values[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_matches_closed_form_everywhere(self):
        atoms = [((0.5, -0.2), 0.3), ((-1.0, 1.5), 0.25), ((2.0, 0.0), 0.45)]
        m = PlanarMeasure(atoms)
        s_axis = np.linspace(-4, 4, 33)
        t_axis = np.linspace(-4, 4, 29)
        grid = stieltjes2d(lambda z, w: cauchy2d(m, z, w), s_axis, t_axis, 0.1)
        oracle = smoothed_atoms_2d(atoms, s_axis, t_axis, 0.1)
        assert np.max(np.abs(grid.values - oracle)) < 1e-10

    def test_non_finite_transform_is_rejected(self):
        g = lambda z, w: np.where(np.real(z) > 0.5, np.nan, cauchy2d(TWO_ATOM, z, w))
        with pytest.raises(ArithmeticError, match="transform evaluation failed at a grid node"):
            stieltjes2d(g, [0.0, 1.0], [0.0], 0.1)

    def test_mass_recovery(self):
        s_axis = np.linspace(-5, 5, 201)
        grid = stieltjes2d(
            lambda z, w: cauchy2d(TWO_ATOM, z, w), s_axis, s_axis, 0.1
        )
        assert grid.riemann_mass() >= 0.95
        assert grid.riemann_mass() <= 1.05
        assert grid.values.min() >= -1e-10


class TestGridDensity:
    # values[i, j] sits at (s_axis[i], t_axis[j]); steps ds = 1 and dt = 0.5
    GRID = GridDensity(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5]), np.arange(6.0).reshape(3, 2), 0.1)

    def test_marginals_sum_the_other_axis(self):
        s, m1 = self.GRID.marginal(1)
        t, m2 = self.GRID.marginal(2)
        assert (s.tolist(), m1.tolist()) == ([0.0, 1.0, 2.0], [0.5, 2.5, 4.5])
        assert (t.tolist(), m2.tolist()) == ([0.0, 0.5], [6.0, 9.0])

    @pytest.mark.parametrize("axis", [0, 3])
    def test_bad_axis(self, axis):
        with pytest.raises(ValueError, match="axis must be 1 or 2"):
            self.GRID.marginal(axis)


class TestConeFor:
    def test_origin_default(self):
        cone = cone_for(dirac((0, 0)))
        assert (cone.theta, cone.M) == (1.0, 1.0)

    def test_unit_support(self):
        m = PlanarMeasure([((0.6, 0.8), 0.5), ((-0.3, 0.1), 0.5)])
        assert cone_for(m).M <= 8.0
        # inversion converges on the returned cone for both marginals
        cone = cone_for(m)
        rng = np.random.default_rng(2)
        y = rng.uniform(cone.M, 3 * cone.M, 25) * rng.choice([-1, 1], 25)
        z = rng.uniform(-1, 1, 25) * np.abs(y) + 1j * y
        for axis in (1, 2):
            nu = m.marginal(axis)
            roots = invert_f(nu, z)
            assert np.max(np.abs(f_transform(nu, roots) - z)) < 1e-10 * np.max(1 + np.abs(z))

    def test_dilation_covariance(self):
        m = PlanarMeasure([((0.6, 0.8), 0.5), ((-0.3, 0.1), 0.5)])
        assert cone_for(m.dilated(10.0)).M == pytest.approx(10.0 * cone_for(m).M)


class TestTightnessProbe:
    """|z^2 G(z, z) - 1| at z = i r, which decays to 0 for a probability law."""

    @staticmethod
    def probe(mu, radii):
        z = 1j * np.asarray(radii, dtype=float)
        return np.abs(z * z * cauchy2d(mu, z, z) - 1.0).tolist()

    def test_origin_exact(self):
        assert self.probe(dirac((0, 0)), [1, 10, 100]) == [0.0, 0.0, 0.0]

    def test_shifted_atom_direct(self):
        r = 10.0
        val = self.probe(dirac((1, 1)), [r])[0]
        expect = abs((1j * r) ** 2 / (1j * r - 1) ** 2 - 1)
        assert val == pytest.approx(expect)

    def test_decay(self):
        m = PlanarMeasure([((1, -2), 0.3), ((0.5, 0.5), 0.7)])
        probes = self.probe(m, [10.0, 100.0])
        assert probes[1] < probes[0]


grid_coords = st.sampled_from([-1.0, -0.4, 0.0, 0.3, 1.5])


@st.composite
def counted_stacks(draw):
    """1-3 distinct laws of 1-4 atoms with counts 1-3, as one stack."""
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.lists(st.tuples(grid_coords, grid_coords), min_size=1, max_size=4, unique=True))
        wts = draw(st.lists(st.floats(0.1, 1.0), min_size=len(pts), max_size=len(pts)))
        laws.append(PlanarMeasure([(p, w / sum(wts)) for p, w in zip(pts, wts)]))
    laws = list({(m.points.tobytes(), m.weights.tobytes()): m for m in laws}.values())
    return row_stack(tuple((m, draw(st.integers(1, 3))) for m in laws)), max(cone_for(m).M for m in laws)


def cone_points(draw, n):
    """n points x + iy with |y| in [2, 12] and |x| <= 0.9 |y|, either half-plane."""
    ys = [draw(st.floats(2.0, 12.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)]
    return np.array([draw(st.floats(-0.9, 0.9)) * abs(y) + 1j * y for y in ys])


class TestBlockedGridPhi:
    """An outer grid's phi goes in blocks of rows; every block size gives the pointwise values."""

    @given(counted_stacks(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 20), st.booleans(), st.data())
    def test_grid_matches_points(self, stack_and_height, rows, cols, block, flip, data):
        stack, height = stack_and_height
        z, w = (height * cone_points(data.draw, k) for k in (rows, cols))
        zg, wg = (z[None, :], w[:, None]) if flip else (z[:, None], w[None, :])
        with mock.patch.object(tf, "BLOCK_NODES", block):
            grid = bi_free_phi(stack, zg, wg)
        want = np.array([[bi_free_phi(stack, a, b) for b in np.ravel(wg)] for a in np.ravel(zg)])
        np.testing.assert_allclose(grid, want.T if flip else want, rtol=1e-12, atol=1e-14)

    def test_law_phis_sum_to_phi(self):
        stack = row_stack(((TWO_ATOM, 2), (dirac((0.5, -1.0)), 1)))
        z, w = np.array([10j, -9j + 2.0]), np.array([12j, 11j])
        per_law = tf.law_phis(stack, z, w)
        assert per_law.shape == (2, 2)
        np.testing.assert_array_equal(2 * per_law[0] + per_law[1], bi_free_phi(stack, z, w))


class TestProbeSets:
    """A probe set is an array of pairs, shape (P, 2); nothing regroups other shapes."""

    ARRAY = lm.make_array([[PlanarMeasure([((0.0, 0.0), 1 - 1 / n), ((1.0, 1.0), 1 / n)])] * n for n in (8, 32, 128)])
    TRIPLET = make_gaussian((0.0, 0.0), Matrix2(1.0, 0.0, 1.0))
    SPEC = stable.StableSpec(alpha=2.0, gaussian_a=Matrix2(1.0, 0.0, 1.0))
    LAW = PlanarMeasure([((0.5, 0.5), 0.5), ((-0.5, -0.5), 0.5)])
    # three complex numbers per entry would regroup into three pairs; a flat list into one
    # six triples, twelve numbers, or a z list and a w list would pass a fit's six-probe minimum
    PROBES = ([(2j, 4j, 6j), (8j, 3j, 5j)], [2j, 4j], [[(2j, 4j), (4j, 2j)]],
              [(2j, 3j, 4j)] * 6, [2j, 3j] * 6, [[2j] * 6, [3j] * 6])
    U_PROBES = ([(0.4, 0.0, 0.2), (0.0, 0.4, 0.1)], [0.4, 0.0], [[(0.4, 0.0), (0.0, 0.4)]])

    @pytest.mark.parametrize("probes", PROBES)
    @pytest.mark.parametrize("entry", ["parser", "runner", "stability", "shift_fit", "doa", "fullness_g",
                                       "fullness_phi"])
    def test_malformed_probes_raise(self, entry, probes):
        calls = {
            "parser": lambda: tf._probe_pairs(probes, complex, "probes"),
            "runner": lambda: lm.run_bi_free_limit(self.ARRAY, probes, reference=self.TRIPLET),
            "stability": lambda: stable.check_stability(self.SPEC, 1.0, 2.0, probes=probes),
            "shift_fit": lambda: stable.fit_point_mass_shift(probes, [0.1j] * 3),
            "doa": lambda: stable.domain_of_attraction_run(self.LAW, self.SPEC, [8, 32, 128], probes=probes),
            "fullness_g": lambda: fullness.fullness_by_g(self.LAW, probes=probes),
            "fullness_phi": lambda: fullness.fullness_by_phi(self.LAW, probes=probes),
        }
        with pytest.raises(ValueError, match=r"probes must be pairs, shape \(P, 2\)"):
            calls[entry]()

    @pytest.mark.parametrize("u_probes", U_PROBES)
    @pytest.mark.parametrize("entry", ["parser", "runner", "cf_shift_fit", "doa"])
    def test_malformed_u_probes_raise(self, entry, u_probes):
        calls = {
            "parser": lambda: tf._probe_pairs(u_probes, float, "u_probes"),
            "runner": lambda: lm.run_classical_limit(self.ARRAY, u_probes, reference=self.TRIPLET),
            "cf_shift_fit": lambda: stable.fit_cf_shift(u_probes, [1.0 + 0.0j] * 3),
            "doa": lambda: stable.domain_of_attraction_run(self.LAW, self.SPEC, [8, 32, 128], u_probes=u_probes),
        }
        with pytest.raises(ValueError, match=r"u_probes must be pairs, shape \(P, 2\)"):
            calls[entry]()

    def test_ragged_probes_raise(self):
        with pytest.raises(ValueError):
            tf._probe_pairs([(2j, 4j), (8j,)], complex, "probes")

    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))])
    def test_empty_set_keeps_its_error(self, empty):
        with pytest.raises(ValueError, match="probes is empty"):
            tf._probe_pairs(empty, complex, "probes")

    def test_pairs_pass_through(self):
        pairs = tf._probe_pairs([(2j, 4j), (-3j, 1 + 5j)], complex, "probes")
        assert pairs.shape == (2, 2) and pairs.dtype == complex
        assert pairs.tolist() == [[2j, 4j], [-3j, 1 + 5j]]
