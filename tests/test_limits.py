import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import bifree.limits as lm
import bifree.measure as ms
import bifree.transforms as tf
from bifree.idlaw import make_compound_poisson, make_gaussian
from bifree.limits import (
    NotInfinitesimal,
    center_row,
    check_condition_I_II,
    check_condition_III_IV,
    ensure_infinitesimal,
    extrapolate_in_inverse_size,
    iid_array,
    limit_triplet,
    limit_vector,
    make_array,
    row_accumulators,
    row_groups,
    row_stack,
    run_bi_free_limit,
    run_classical_limit,
)
from bifree.measure import AtomicMeasure2D, Matrix2, Measure1D, PlanarMeasure, dirac
from bifree.serialize import array_from_dict, array_to_dict
from bifree.transforms import cauchy2d, invert_f

import oracles
from oracles import integrate, richardson_limit


def poisson_array(lam=1.0, ns=(8, 32, 128, 512)):
    rows = []
    for n in ns:
        m = PlanarMeasure([((0.0, 0.0), 1 - lam / n), ((1.0, 1.0), lam / n)])
        rows.append([m] * n)
    return make_array(rows)


def clt_array(ns=(64, 256, 1024, 4096)):
    rows = []
    for n in ns:
        x = 1.0 / math.sqrt(n)
        m = PlanarMeasure([((x, x), 0.5), ((-x, -x), 0.5)])
        rows.append([m] * n)
    return make_array(rows)


def dirac_array(ns=(8, 32, 128, 512)):
    return make_array([[dirac((1.0 / n, 0.0))] * n for n in ns])


def escape_array(ns=(8, 32, 128, 512)):
    rows = []
    for n in ns:
        m = PlanarMeasure([((0.0, 0.0), 1 - 1.0 / n), ((float(n), 0.0), 1.0 / n)])
        rows.append([m] * n)
    return make_array(rows)


PROBES = [(x * 1j, y * 1j) for x in (2.0, 4.0, 8.0, -2.0) for y in (2.0, 4.0, 8.0, -4.0)]
U_PROBES = [(0.4, 0.0), (0.0, 0.4), (0.4, 0.4), (-0.3, 0.5), (0.8, 0.8)]


def stack_of(row):
    return row_stack(row_groups(row))


def law(stack, g):
    """Law g of a stack, padding dropped."""
    real = stack.weights[g] > 0.0
    return PlanarMeasure(zip(map(tuple, stack.points[g][real]), stack.weights[g][real]))


def accumulator(acc, masses):
    return AtomicMeasure2D.from_arrays(acc.points, masses)


class TestCenterRow:
    def test_small_point(self):
        centered, centers = center_row(stack_of([dirac((0.1, 0.0))]), 1.0)
        assert centers.tolist() == [[0.1, 0.0]]
        assert law(centered, 0).close_to(dirac((0.0, 0.0)))

    def test_far_atom_ignored(self):
        m = PlanarMeasure([((0.0, 0.0), 0.99), ((2.0, 2.0), 0.01)])
        centered, centers = center_row(stack_of([m]), 1.0)
        assert centers.tolist() == [[0.0, 0.0]]
        assert law(centered, 0).close_to(m)

    def test_symmetric(self):
        m = PlanarMeasure([((0.5, 0.5), 0.5), ((-0.5, -0.5), 0.5)])
        _, centers = center_row(stack_of([m]), 1.0)
        assert centers.tolist() == [[0.0, 0.0]]


class TestArrayChecks:
    @pytest.mark.parametrize("L,shift", [(math.nan, (0.0, 0.0)), (-math.inf, (0.0, 0.0)),
                                         (1.0, (math.nan, 0.0)), (1.0, (0.0, math.inf))])
    def test_non_finite_rejected(self, L, shift):
        with pytest.raises(ValueError):
            make_array([[dirac((0.0, 0.0))]], [shift], L=L)

    def test_untruncated_mean_allowed(self):
        assert make_array([[dirac((0.0, 0.0))]], L=math.inf).L == math.inf


class TestRowAccumulators:
    def test_poisson_row(self):
        n = 100
        m = PlanarMeasure([((0.0, 0.0), 1 - 1 / n), ((1.0, 1.0), 1 / n)])
        centered, _ = center_row(stack_of([m] * n), 1.0)
        acc = row_accumulators(centered)
        tau, s1 = accumulator(acc, acc.tau), accumulator(acc, acc.sigma1)
        assert tau.mass_at((0.0, 0.0)) == pytest.approx(n - 1.0)
        assert tau.mass_at((1.0, 1.0)) == pytest.approx(1.0)
        assert s1.mass_at((1.0, 1.0)) == pytest.approx(0.5)
        assert s1.mass_at((0.0, 0.0)) == 0.0

    def test_all_dirac_zero(self):
        centered, _ = center_row(stack_of([dirac((0.0, 0.0))] * 5), 1.0)
        acc = row_accumulators(centered)
        assert len(accumulator(acc, acc.sigma1)) == 0 and len(accumulator(acc, acc.sigma2)) == 0

    def test_clt_row_mass(self):
        n = 10_000
        x = 1.0 / math.sqrt(n)
        m = PlanarMeasure([((x, x), 0.5), ((-x, -x), 0.5)])
        centered, _ = center_row(stack_of([m] * n), 1.0)
        acc = row_accumulators(centered)
        assert accumulator(acc, acc.sigma1).total_mass() == pytest.approx(1.0, abs=1e-3)


class TestConditionI_II:
    def test_poisson(self):
        rep = check_condition_I_II(poisson_array())
        assert rep.passed
        assert rep.sigma1.mass_at((1.0, 1.0)) == pytest.approx(0.5)
        assert rep.gamma == pytest.approx(0.25, abs=1e-9)

    def test_clt(self):
        rep = check_condition_I_II(clt_array())
        assert rep.passed
        assert rep.gamma == pytest.approx(1.0, abs=1e-6)
        # sigma concentrates at the origin with unit mass
        assert rep.sigma1.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_dirac(self):
        rep = check_condition_I_II(dirac_array())
        assert rep.passed
        assert rep.gamma == pytest.approx(0.0, abs=1e-12)
        assert len(rep.sigma1) == 0

    def test_escape_fails(self):
        rep = check_condition_I_II(escape_array())
        assert not rep.passed


settle_values = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e-9, 2e-9, 1.0, 1.5]))


@given(st.integers(3, 6).flatmap(
    lambda n: st.lists(st.lists(settle_values, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_one_settling_rule_matches_the_per_sequence_loop(seqs):
    # a sequence settles when its last gap is at most max(gap before / 2, 1e-9)
    def settles(x):
        return abs(x[-1] - x[-2]) <= max(0.5 * abs(x[-2] - x[-3]), 1e-9)

    assert lm._settles(lm._gaps(np.array(seqs))) == all(settles(x) for x in seqs)
    assert lm._settles(lm._gaps(np.array(seqs)[None])) == all(settles(x) for x in seqs)


class TestConditionIII_IV:
    def test_poisson(self):
        rep = check_condition_III_IV(poisson_array())
        assert rep.passed
        assert rep.tau_limit.atoms.mass_at((1.0, 1.0)) == pytest.approx(1.0)
        assert rep.Q["1,0"] == pytest.approx(0.0, abs=1e-12)
        assert rep.A.as_array() == pytest.approx(np.zeros((2, 2)), abs=1e-9)

    def test_clt(self):
        rep = check_condition_III_IV(clt_array())
        assert rep.passed
        assert rep.Q["1,0"] == pytest.approx(1.0, abs=1e-6)
        assert rep.Q["0,1"] == pytest.approx(1.0, abs=1e-6)
        assert rep.Q["1,1"] == pytest.approx(4.0, abs=1e-6)
        assert rep.A.as_array() == pytest.approx(np.array([[1, 1], [1, 1]]), abs=1e-6)
        assert rep.c == pytest.approx(1.0, abs=1e-6)

    def test_dirac(self):
        rep = check_condition_III_IV(dirac_array())
        assert rep.passed
        assert len(rep.tau_limit.atoms) == 0
        assert rep.A.as_array() == pytest.approx(np.zeros((2, 2)), abs=1e-12)

    def test_escape_fails(self):
        rep = check_condition_III_IV(escape_array())
        assert not rep.passed

    def test_zero_limits_are_positive_zeros(self):
        # the small-ball limits of a Poisson array are all-zero runs; the report has no -0.0
        rep = check_condition_III_IV(poisson_array())
        zeros = [x for x in (*rep.Q.values(), rep.A.a, rep.A.b, rep.A.c) if x == 0.0]
        assert len(zeros) == 6
        assert all(math.copysign(1.0, x) == 1.0 for x in zeros)

    def test_rung_nudged_off_an_atom_radius(self):
        # the atom sits at norm exactly 0.5, the first rung, so the rung moves out by 1e-6
        # and the atom falls inside the ball: the first annulus holds no mass in any row
        rows = [[PlanarMeasure([((0.0, 0.0), 1 - 1 / n), ((0.3, 0.4), 1 / n)])] * n for n in (8, 32, 128, 512)]
        rep = check_condition_III_IV(make_array(rows, L=0.1))
        assert rep.per_n["eps_ladder"][0] == 0.5 + 1e-6
        assert rep.per_n["eps_ladder"][1:] == list(lm.EPS_LADDER[1:])
        assert rep.per_n["annulus_masses"][0] == [0.0] * 4
        assert rep.per_n["annulus_masses"][1] == pytest.approx([1.0] * 4)


class TestLimitVector:
    def test_poisson(self):
        per_row, v = limit_vector(poisson_array())
        assert v == pytest.approx((1 / 3, 1 / 3), abs=1e-9)
        assert per_row[0] == pytest.approx((1 / 3, 1 / 3), abs=1e-12)

    def test_clt_symmetric(self):
        _, v = limit_vector(clt_array())
        assert v == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_dirac(self):
        _, v = limit_vector(dirac_array())
        assert v == pytest.approx((1.0, 0.0), abs=1e-12)


class TestLimitTriplet:
    def test_poisson_is_compound(self):
        trip = limit_triplet(poisson_array())
        ref = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        assert trip.v == pytest.approx(ref.v, abs=1e-6)
        assert trip.A.as_array() == pytest.approx(ref.A.as_array(), abs=1e-9)
        assert trip.tau.atoms.close_to(ref.tau.atoms, tol=1e-9)

    def test_clt_gaussian(self):
        trip = limit_triplet(clt_array())
        assert trip.v == pytest.approx((0.0, 0.0), abs=1e-9)
        assert trip.A.as_array() == pytest.approx(np.array([[1, 1], [1, 1]]), abs=1e-6)
        assert len(trip.tau.atoms) == 0

    def test_dirac(self):
        trip = limit_triplet(dirac_array())
        assert trip.v == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_escape_raises(self):
        from bifree.limits import ConditionsNotMet

        with pytest.raises(ConditionsNotMet):
            limit_triplet(escape_array())


class TestRunners:
    def test_poisson_rate(self):
        arr = poisson_array()
        trip = limit_triplet(arr)
        table = run_bi_free_limit(arr, PROBES, reference=trip)
        resid = [r for _, r in table]
        ratios = [b / a for a, b in zip(resid[:-1], resid[1:])]
        assert all(0.15 < r < 0.4 for r in ratios)  # O(1/n) per 4x n

    def test_dirac_exact(self):
        arr = dirac_array()
        trip = limit_triplet(arr)
        for _, r in run_bi_free_limit(arr, PROBES, reference=trip):
            assert r < 1e-9
        for _, r in run_classical_limit(arr, U_PROBES, reference=trip):
            assert r < 1e-12

    def test_clt_both_sides(self):
        arr = clt_array()
        trip = limit_triplet(arr)
        bif = [r for _, r in run_bi_free_limit(arr, PROBES, reference=trip)]
        cls = [r for _, r in run_classical_limit(arr, U_PROBES, reference=trip)]
        assert all(b < a for a, b in zip(bif[:-1], bif[1:]))
        assert all(b < a for a, b in zip(cls[:-1], cls[1:]))
        # the limit phi is the quadratic form of the ones matrix
        for z, w in PROBES[:4]:
            assert trip.bi_free_phi(z, w) == pytest.approx(
                1 / z**2 + 1 / (z * w) + 1 / w**2, abs=1e-9
            )

    def test_poisson_classical_limit(self):
        arr = poisson_array()
        trip = limit_triplet(arr)
        cls = [r for _, r in run_classical_limit(arr, U_PROBES, reference=trip)]
        ratios = [b / a for a, b in zip(cls[:-1], cls[1:])]
        assert all(0.15 < r < 0.4 for r in ratios)


class TestEmptyProbeSets:
    """A residual table over no probes reads as converged but checks nothing."""

    ARRAY_NS = (8, 32, 128)

    def array(self):
        return make_array([[PlanarMeasure([((0.0, 0.0), 1 - 1 / n), ((1.0, 1.0), 1 / n)])] * n
                           for n in self.ARRAY_NS])

    @pytest.fixture
    def no_transforms(self, monkeypatch):
        """phi and the CF fail the test if evaluated."""
        def evaluated(*args, **kwargs):
            raise AssertionError("a transform was evaluated")

        monkeypatch.setattr(lm, "_phi_rows", evaluated)
        monkeypatch.setattr(lm, "_cf_rows", evaluated)
        monkeypatch.setattr(lm, "limit_triplet", evaluated)
        for name in ("bi_free_phi", "classical_cf"):
            monkeypatch.setattr(lm.CharTriplet, name, evaluated)

    def test_bi_free_runner(self, no_transforms):
        trip = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        with pytest.raises(ValueError, match="probes is empty"):
            run_bi_free_limit(self.array(), [], reference=trip)
        with pytest.raises(ValueError, match="probes is empty"):
            run_bi_free_limit(self.array(), [])

    def test_classical_runner(self, no_transforms):
        trip = make_compound_poisson(1.0, dirac((1.0, 1.0)))
        with pytest.raises(ValueError, match="u_probes is empty"):
            run_classical_limit(self.array(), [], reference=trip)
        with pytest.raises(ValueError, match="u_probes is empty"):
            run_classical_limit(self.array(), np.empty((0, 2)))


class TestInfinitesimality:
    def test_fixed_atom_rejected(self):
        m = PlanarMeasure([((1.0, 1.0), 0.5), ((0.0, 0.0), 0.5)])
        arr = make_array([[m] * n for n in (8, 32, 128)])
        with pytest.raises(NotInfinitesimal):
            ensure_infinitesimal(arr)
        with pytest.raises(NotInfinitesimal):
            check_condition_I_II(arr)

    def test_legit_arrays_pass(self):
        for arr in (poisson_array(), clt_array(), dirac_array()):
            diag = ensure_infinitesimal(arr)
            assert diag[-1] <= 0.05


class TestConditionReports:
    """Both reports of one array from one pass: row data and infinitesimality once."""

    def test_reports_match_the_separate_checks(self):
        for arr in (poisson_array(), clt_array(), dirac_array(), escape_array()):
            rep12, rep34 = lm.condition_reports(arr)
            assert rep12.to_jsonable() == check_condition_I_II(arr).to_jsonable()
            assert rep34.to_jsonable() == check_condition_III_IV(arr).to_jsonable()

    def test_limit_triplet_checks_infinitesimality_once(self, monkeypatch):
        calls = []
        real = lm.infinitesimality_diagnostic
        monkeypatch.setattr(lm, "infinitesimality_diagnostic", lambda a: calls.append(1) or real(a))
        limit_triplet(poisson_array())
        assert len(calls) == 1


class TestIidArray:
    def test_dirac_rows(self):
        arr = iid_array(dirac((1.0, 1.0)), lambda kn: 1.0 / kn, [2, 4, 8])
        assert arr.rows[0][0].close_to(dirac((0.5, 0.5)))
        assert len(arr.rows[2]) == 8

    def test_bernoulli_clt(self):
        mu = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        arr = iid_array(mu, lambda kn: 1.0 / math.sqrt(kn), [64, 256, 1024, 4096])
        rep = check_condition_III_IV(arr)
        assert rep.passed
        assert rep.A.as_array() == pytest.approx(np.array([[1, 1], [1, 1]]), abs=1e-6)

    def test_rows_share_object(self):
        arr = iid_array(dirac((1.0, 1.0)), lambda kn: 1.0, [3, 6])
        assert arr.rows[0][0] is arr.rows[0][1]


def json_copy(arr):
    return array_from_dict(json.loads(json.dumps(array_to_dict(arr))))


class TestContentGrouping:
    """JSON-loaded rows hold distinct objects; they group by content."""

    def test_json_rows_give_identical_results(self):
        arr = poisson_array()
        back = json_copy(arr)
        assert run_bi_free_limit(back, PROBES) == run_bi_free_limit(arr, PROBES)
        assert run_classical_limit(back, U_PROBES) == run_classical_limit(arr, U_PROBES)
        for check in (check_condition_I_II, check_condition_III_IV):
            assert check(back).to_jsonable() == check(arr).to_jsonable()

    def test_phi_once_per_row(self, monkeypatch):
        # every row has one width, so all rows' laws take one Newton solve over all probes
        arr = json_copy(poisson_array())
        assert len(arr.widths) == 1
        trip = limit_triplet(arr)
        calls = []
        real = tf.newton_f_inverse

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tf, "newton_f_inverse", counting)
        run_bi_free_limit(arr, PROBES, reference=trip)
        assert len(calls) == 1
        laws = sum(map(len, arr.groups))
        assert np.shape(calls[0][2]) == (2 * laws * len(PROBES),)


grid_coords = st.sampled_from([-1.0, 0.0, 0.5, 2.0])


@st.composite
def grouped_rows(draw):
    """Rows of a few distinct laws, each repeated as shared and as rebuilt objects."""
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.lists(st.tuples(grid_coords, grid_coords), min_size=1, max_size=3, unique=True))
        wts = draw(st.lists(st.floats(0.1, 1.0), min_size=len(pts), max_size=len(pts)))
        laws.append(PlanarMeasure([(p, w / sum(wts)) for p, w in zip(pts, wts)]))
    rows, size = [], 0
    for _ in range(draw(st.integers(1, 3))):
        row = []
        for m in laws[: draw(st.integers(1, len(laws)))]:
            row += [m] * draw(st.integers(1, 3)) + [PlanarMeasure(m.atoms())]
        row += [laws[0]] * max(0, size + 1 - len(row))
        rows.append(draw(st.permutations(row)))
        size = len(row)
    return make_array(rows)


@given(grouped_rows())
def test_groups_survive_json_round_trip(arr):
    back = json_copy(arr)
    assert [[c for _, c in g] for g in back.groups] == [[c for _, c in g] for g in arr.groups]
    for g_back, g in zip(back.groups, arr.groups):
        assert all(mb.close_to(m) for (mb, _), (m, _) in zip(g_back, g))
    assert sum(map(len, arr.groups)) < sum(map(len, arr.rows))


stack_coords = st.sampled_from([-1.0, -0.3, 0.0, 0.25, 0.5, 2.0])


@st.composite
def stacked_arrays(draw):
    """Three rows of 1-4-atom laws with random counts and shifts, shared or JSON-loaded.

    Laws of different atom counts share rows, so the stacks are padded.
    """
    rows, size = [], 0
    for _ in range(3):
        row = []
        for _ in range(draw(st.integers(1, 3))):
            pts = draw(st.lists(st.tuples(stack_coords, stack_coords), min_size=1, max_size=4, unique=True))
            wts = draw(st.lists(st.floats(0.1, 1.0), min_size=len(pts), max_size=len(pts)))
            m = PlanarMeasure([(p, w / sum(wts)) for p, w in zip(pts, wts)])
            row += [m] * draw(st.integers(1, 4))
        row += [row[0]] * max(0, size + 1 - len(row))
        rows.append(row)
        size = len(row)
    shifts = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=3))
    arr = make_array(rows, shifts, L=draw(st.sampled_from([0.4, 1.0, 3.0])))
    return json_copy(arr) if draw(st.booleans()) else arr


def phi_reference(m, z, w):
    """phi of one law through its merged Measure1D marginals and cauchy2d.

    Also returns the sum of the moduli of the four parts it adds, the scale
    of the rounding left where they cancel.
    """
    i1, i2 = invert_f(m.marginal(1), z), invert_f(m.marginal(2), w)
    parts = [(i1 - z) / z, (i2 - w) / w, 1.0, -1.0 / (z * w * cauchy2d(m, i1, i2))]
    return sum(parts), sum(map(abs, parts))


STACK_PROBES = [(12j, 10j), (-9j, 14j), (3.0 + 12j, -2.0 - 11j)]


# each row's phi cancels to 0 at (12i, 10i): p1/z = -p2/w for the atom (-0.3, 0.25)
@example(make_array([[dirac((-0.3, 0.25))] * n for n in (3, 4, 5)], [(0.0, 0.0)] * 3, L=1.0))
@given(stacked_arrays())
def test_stacked_phi_and_cf_match_expanded_rows(arr):
    us = np.array(U_PROBES)
    z, w = np.array(STACK_PROBES).T
    phis, cfs = lm._phi_rows(arr, z, w), lm._cf_rows(arr, us)
    for row, stack, shift, phi, cf in zip(arr.rows, arr.stacks, arr.shifts, phis, cfs):
        assert stack.weights.shape[1] == max(len(m) for m in row)
        for (zp, wp), got in zip(STACK_PROBES, phi):
            refs = [phi_reference(m, zp, wp) for m in row]
            want = shift[0] / zp + shift[1] / wp + sum(v for v, _ in refs)
            scale = abs(shift[0] / zp) + abs(shift[1] / wp) + sum(s for _, s in refs)
            assert abs(got - want) <= 1e-13 * scale
        want = np.exp(1j * (us @ np.array(shift))) * np.prod([[m.char_fun(u) for u in us] for m in row], axis=0)
        np.testing.assert_allclose(cf, want, rtol=1e-13, atol=0)


RUNNER_REFERENCE = make_gaussian((0.25, -0.5), Matrix2(1.0, 0.3, 0.5))


def assert_matches_the_row_references(arr):
    """Runner tables, the diagnostic and both reports equal the row-by-row references of ``oracles``."""
    trip = RUNNER_REFERENCE
    assert run_bi_free_limit(arr, STACK_PROBES, reference=trip) == oracles.bi_free_runner_rows(arr, STACK_PROBES, trip)
    assert run_classical_limit(arr, U_PROBES, reference=trip) == oracles.classical_runner_rows(arr, U_PROBES, trip)
    assert lm.infinitesimality_diagnostic(arr) == oracles.infinitesimality_rows(arr)
    if len(arr.rows) >= 3:  # the settling rule reads two gaps
        assert lm._conditions_I_II(arr).to_jsonable() == oracles.conditions_I_II_rows(arr).to_jsonable()
        assert lm._conditions_III_IV(arr).to_jsonable() == oracles.conditions_III_IV_rows(arr).to_jsonable()


def assert_rows_are_slices_of_their_width(arr):
    """Each row's stack is a read-only view into its width's stack, equal to the row stacked alone."""
    assert sorted(r for cls in arr.widths for r in cls.rows) == list(range(len(arr.rows)))
    for cls in arr.widths:
        for r, lo, hi in cls.slices():
            stack, alone = arr.stacks[r], row_stack(arr.groups[r])
            for got, whole, want in zip(stack, cls.stack, alone):
                assert np.shares_memory(got, whole) and not got.flags.writeable
                assert got.dtype == want.dtype and np.array_equal(got, want)


def mixed_width_array():
    """One row of 2-atom laws and one of a 40-atom law: two width classes."""
    pair = PlanarMeasure([((0.1, 0.0), 0.5), ((-0.1, 0.2), 0.5)])
    wide = PlanarMeasure([((0.01 * k, -0.005 * k), 1.0 / 40) for k in range(40)])
    return make_array([[pair], [wide, wide]], [(0.0, 0.0), (0.5, -0.25)])


# one-atom laws at generic sites: a flat phase product would round otherwise than the per-law one
@example(make_array([[dirac((0.3 * math.sin(k), 0.3 * math.cos(3 * k))) for k in range(n)] for n in (3, 6, 9)]))
@example(mixed_width_array())
@given(stacked_arrays())
def test_one_pass_per_width_matches_the_rows_one_by_one(arr):
    assert_rows_are_slices_of_their_width(arr)
    assert all(not rd.acc.lex.flags.writeable for rd in arr.row_data)
    assert_matches_the_row_references(arr)


def test_mixed_widths_store_no_more_than_the_rows():
    arr = mixed_width_array()
    assert [cls.stack.weights.shape for cls in arr.widths] == [(1, 2), (1, 40)]
    per_row = [row_stack(row_groups(row)) for row in arr.rows]
    assert sum(cls.stack.weights.size for cls in arr.widths) <= sum(stack.weights.size for stack in per_row)
    assert_rows_are_slices_of_their_width(arr)
    assert_matches_the_row_references(arr)


def expanded_atoms(row, L):
    """Centered atoms of every entry of a row, one by one, unmerged."""
    pts = np.concatenate([m.points - center_row(row_stack(((m, 1),)), L)[1][0] for m in row])
    return pts, np.concatenate([m.weights for m in row])


@given(stacked_arrays(), st.data())
def test_prefix_sums_match_brute_force(arr, data):
    for row, acc in zip(arr.rows, (rd.acc for rd in arr.row_data)):
        pts, m = expanded_atoms(row, arr.L)
        s, t = pts[:, 0], pts[:, 1]
        norms = np.hypot(s, t)
        gamma = m * s * t / ((1.0 + s * s) * (1.0 + t * t))
        assert acc.beyond[0, acc.GAMMA] == pytest.approx(gamma.sum(), rel=1e-13, abs=1e-13 * np.abs(gamma).sum())
        # radii on atom norms and one ulp either side
        on = data.draw(st.sampled_from(sorted(set(norms.tolist()))))
        radii = [on, np.nextafter(on, 0.0), np.nextafter(on, np.inf)]
        hi = data.draw(st.sampled_from(sorted(set(norms[norms >= on].tolist())) + [math.inf]))
        scale = (m * (1.0 + norms**2)).sum()
        sigma1 = m * s * s / (1.0 + s * s)
        for r in radii:
            for u in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
                want = (m * (u[0] * s + u[1] * t) ** 2)[norms < r].sum()
                assert acc.ball_quadratic(u, r) == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)
            for lo_r, hi_r in ((r, hi), (r, math.inf), (radii[1], r)):
                want = m[(norms >= lo_r) & (norms <= hi_r)].sum()
                assert acc.between(lo_r, hi_r) == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)
            assert acc.above(r, acc.SIGMA1) == pytest.approx(sigma1[norms > r].sum(), rel=1e-13, abs=1e-13 * scale)
        # arrays of radii and directions give the scalar calls' values, bit for bit
        rs = np.array(radii + [hi, 0.0])
        us = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-0.5, 2.0)])
        assert acc.ball_quadratic(us, rs).tolist() == [[acc.ball_quadratic(tuple(u), r) for r in rs] for u in us]
        assert acc.ball_quadratic(us[3], rs).tolist() == [acc.ball_quadratic(tuple(us[3]), r) for r in rs]
        assert acc.ball_quadratic(us, rs[0]).tolist() == [acc.ball_quadratic(tuple(u), rs[0]) for u in us]
        assert acc.between(rs, rs[::-1]).tolist() == [acc.between(a, b) for a, b in zip(rs, rs[::-1])]
        for col in range(4):
            assert acc.above(rs, col).tolist() == [acc.above(r, col) for r in rs]


def bl_reference(points):
    """The bounded-Lipschitz family one function at a time, each bump as one exp: (29, atoms)."""
    s, t = points[:, 0], points[:, 1]
    centres = (-3.0, -1.5, 0.0, 1.5, 3.0)
    bumps = [np.exp(-((s - a) ** 2 + (t - b) ** 2)) for a in centres for b in centres]
    return np.array(bumps + [1.0 / (1.0 + s**2 + t**2), s / (1.0 + s**2), t / (1.0 + t**2),
                             s * t / ((1.0 + s**2) * (1.0 + t**2))])


@given(stacked_arrays())
def test_separable_bl_family_matches_reference(arr):
    accs = [rd.acc for rd in arr.row_data]
    values = lm._bl_values(accs)
    assert values.shape == (len(accs), 2, 29)
    for acc, got in zip(accs, values):
        family = bl_reference(acc.points)
        # every test function has |f| <= 1, so each integral is within rounding of the sigma mass
        for row, sigma in zip(got, (acc.sigma1, acc.sigma2)):
            assert np.abs(row - family @ sigma).max() <= 1e-14 * sigma.sum()


ACC_FIELDS = ("points", "norms", "tau", "sigma1", "sigma2", "ball", "beyond")


def recentring_reference(centered, centers, shift):
    """The recentring sum v_n of one row, law by law from its centered stack."""
    pts = centered.points
    nrm = 1.0 + pts[..., 0] ** 2 + pts[..., 1] ** 2
    terms = centers + (centered.weights[..., None] * pts / nrm[..., None]).sum(axis=1)
    v1, v2 = np.asarray(shift, dtype=float) + centered.counts @ terms
    return float(v1), float(v2)


def near_pair_rows():
    """Two laws of one row whose centered atoms lie 4e-13 apart, so the row goes through ``_merge``."""
    a = PlanarMeasure([((0.5, 0.0), 0.5), ((-0.5, 0.0), 0.5)])
    b = PlanarMeasure([((0.5 + 4e-13, 0.0), 0.5), ((-0.5 - 4e-13, 0.0), 0.5)])
    return [[a], [a, a], [a, b, b]], [(0.0, 0.0), (0.25, -0.5), (0.0, 0.0)]


def near_pair_array():
    return make_array(*near_pair_rows())


def tau_reference(row, L):
    """tau_n of one row from its distinct laws, atoms x - m_k with masses count_k w, in norm order.

    m_k is law k's mean over the open ball ||x|| < L, taken from the law's
    own atoms, not from the row's stack.
    """
    atoms = []
    for m, count in row_groups(row):
        inside = np.hypot(m.points[:, 0], m.points[:, 1]) < L
        center = (m.weights[inside, None] * m.points[inside]).sum(axis=0)
        atoms += [(p - center, count * w) for p, w in zip(m.points, m.weights)]
    tau = AtomicMeasure2D(atoms)
    order = np.argsort(np.hypot(tau.points[:, 0], tau.points[:, 1]), kind="stable")
    return tau.points[order], tau.masses[order]


class TestRowData:
    """Row data is built once with the array, one row at a time."""

    @example(near_pair_array())
    @given(stacked_arrays())
    def test_equals_the_per_row_reference(self, arr):
        assert len(arr.row_data) == len(arr.stacks)
        for rd, row, stack, shift in zip(arr.row_data, arr.rows, arr.stacks, arr.shifts):
            acc = rd.acc
            pts, tau = tau_reference(row, arr.L)
            assert acc.points.shape == pts.shape and acc.tau.shape == tau.shape
            np.testing.assert_allclose(acc.points, pts, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(acc.tau, tau, rtol=1e-13, atol=0)
            s, t = pts[:, 0], pts[:, 1]
            np.testing.assert_allclose(acc.norms, np.hypot(s, t), rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(acc.sigma1, tau * s * s / (1.0 + s * s), rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(acc.sigma2, tau * t * t / (1.0 + t * t), rtol=1e-12, atol=1e-15)
            centered, centers = center_row(stack, arr.L)
            assert rd.v == recentring_reference(centered, centers, shift)

    def test_near_atoms_are_merged(self, monkeypatch):
        rows, shifts = near_pair_rows()
        calls = []
        real = ms._needs_merge
        monkeypatch.setattr(ms, "_needs_merge", lambda pts, *a: calls.append(len(pts)) or real(pts, *a))
        arr = make_array(rows, shifts)
        assert calls == [4]  # the last row only: its four atoms hold the near pairs
        last = arr.row_data[-1].acc
        assert len(last.points) == 2 and last.tau.tolist() == [1.5, 1.5]

    def test_arrays_are_read_only(self):
        for arr in (poisson_array(), near_pair_array()):
            for rd in arr.row_data:
                assert not any(getattr(rd.acc, name).flags.writeable for name in ACC_FIELDS)

    def test_checks_build_no_row_data(self, monkeypatch):
        arr = poisson_array()
        calls = []
        for name in ("center_row", "row_accumulators", "build_row_data"):
            real = getattr(lm, name)
            monkeypatch.setattr(lm, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        ensure_infinitesimal(arr)
        check_condition_I_II(arr)
        check_condition_III_IV(arr)
        lm.condition_reports(arr)
        limit_triplet(arr)
        limit_vector(arr)
        assert calls == []


def noniid_rows(ns=(64, 256, 1024, 4096)):
    """Row n: the n laws +-(x(1 + k/n), x), x = n^{-1/2}; the limit is Gaussian with Q(1,0) = 7/3."""
    rows = []
    for n in ns:
        x = 1.0 / math.sqrt(n)
        rows.append([PlanarMeasure([((x * (1.0 + k / n), x), 0.5), ((-x * (1.0 + k / n), -x), 0.5)])
                     for k in range(n)])
    return rows


@pytest.fixture(scope="module")
def noniid_json():
    return json_copy(make_array(noniid_rows()))


NONIID_LIMIT = make_gaussian((0.0, 0.0), Matrix2(7.0 / 3.0, 1.5, 1.0))


class TestNonIdenticalClt:
    """Distinct laws in every row: 5440 laws over four rows."""

    @pytest.mark.xfail(strict=True, reason="III/IV false negative: the fixed eps ladder straddles "
                                           "the atom norms of the 1024-row")
    def test_conditions_III_IV_pass(self, noniid_json):
        rep = check_condition_III_IV(noniid_json)
        assert rep.passed
        assert abs(rep.Q["1,0"] - 7.0 / 3.0) <= 1e-3

    def test_conditions_I_II_pass(self, noniid_json):
        assert check_condition_I_II(noniid_json).passed

    def test_work_counts(self, noniid_json, monkeypatch):
        arr = noniid_json
        calls = {"newton": 0, "planar": 0, "line": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tf, "newton_f_inverse", counting("newton", tf.newton_f_inverse))
        monkeypatch.setattr(PlanarMeasure, "__init__", counting("planar", PlanarMeasure.__init__))
        monkeypatch.setattr(Measure1D, "__init__", counting("line", Measure1D.__init__))
        run_bi_free_limit(arr, PROBES, reference=NONIID_LIMIT)
        assert calls["newton"] <= len(arr.rows) * len(PROBES)
        run_classical_limit(arr, U_PROBES, reference=NONIID_LIMIT)
        ensure_infinitesimal(arr)
        check_condition_I_II(arr)
        check_condition_III_IV(arr)
        assert calls["planar"] == calls["line"] == 0


class TestMarginalConsistency:
    def test_poisson_free_pair(self):
        # the w -> oo slice of the limit phi matches the free Levy-Hincin
        # form built from (gamma_1, first marginal of sigma_1)
        arr = poisson_array()
        rep12 = check_condition_I_II(arr)
        trip = limit_triplet(arr)
        # gamma_1 from its defining per-row sum, taken on the last row
        centered, centers = center_row(arr.stacks[-1], arr.L)
        g1 = sum(
            count * (c[0] + integrate(law(centered, g), lambda s, t: s / (1.0 + s * s)).real)
            for g, (count, c) in enumerate(zip(centered.counts, centers))
        )
        assert g1 == pytest.approx(0.5, abs=1e-12)
        sigma1 = rep12.sigma1
        vs = (50.0, 100.0, 200.0, 400.0)
        for z in (3j, 5j, -4j):
            vals = [trip.bi_free_phi(z, 1j * v) for v in vs]
            slice_limit = richardson_limit(vals, [1.0 / v for v in vs])
            phi1 = z * slice_limit
            free_lh = g1 + integrate(sigma1, lambda s, t: (1.0 + z * s) / (z - s))
            assert phi1 == pytest.approx(free_lh, abs=1e-6)


def test_extrapolation_helper():
    sizes = [64, 256, 1024, 4096]
    vals = [(1 + 1 / n) ** -2 for n in sizes]
    assert extrapolate_in_inverse_size(vals, sizes) == pytest.approx(1.0, abs=1e-9)
    assert extrapolate_in_inverse_size([2.0, 2.0, 2.0, 2.0], sizes) == 2.0


def test_extrapolated_zero_is_positive():
    # Neville's divisors 1/k_{n+j} - 1/k_n are negative: an all-zero run must still give +0.0
    assert math.copysign(1.0, extrapolate_in_inverse_size([0.0] * 4, [64, 256, 1024, 4096])) == 1.0
