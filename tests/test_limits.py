import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bifree.limits as lm
from bifree.idlaw import make_compound_poisson
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
    run_bi_free_limit,
    run_classical_limit,
)
from bifree.measure import PlanarMeasure, dirac
from bifree.serialize import array_from_dict, array_to_dict

from oracles import richardson_limit


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


class TestCenterRow:
    def test_small_point(self):
        groups, centers = center_row(row_groups([dirac((0.1, 0.0))]), 1.0)
        centered = [c for c, _ in groups]
        assert centers == [(0.1, 0.0)]
        assert centered[0].close_to(dirac((0.0, 0.0)))

    def test_far_atom_ignored(self):
        m = PlanarMeasure([((0.0, 0.0), 0.99), ((2.0, 2.0), 0.01)])
        groups, centers = center_row(row_groups([m]), 1.0)
        centered = [c for c, _ in groups]
        assert centers == [(0.0, 0.0)]
        assert centered[0].close_to(m)

    def test_symmetric(self):
        m = PlanarMeasure([((0.5, 0.5), 0.5), ((-0.5, -0.5), 0.5)])
        _, centers = center_row(row_groups([m]), 1.0)
        assert centers == [(0.0, 0.0)]


class TestRowAccumulators:
    def test_poisson_row(self):
        n = 100
        m = PlanarMeasure([((0.0, 0.0), 1 - 1 / n), ((1.0, 1.0), 1 / n)])
        centered, _ = center_row(row_groups([m] * n), 1.0)
        tau, s1, s2 = row_accumulators(centered)
        assert tau.mass_at((0.0, 0.0)) == pytest.approx(n - 1.0)
        assert tau.mass_at((1.0, 1.0)) == pytest.approx(1.0)
        assert s1.mass_at((1.0, 1.0)) == pytest.approx(0.5)
        assert s1.mass_at((0.0, 0.0)) == 0.0

    def test_all_dirac_zero(self):
        centered, _ = center_row(row_groups([dirac((0.0, 0.0))] * 5), 1.0)
        tau, s1, s2 = row_accumulators(centered)
        assert len(s1) == 0 and len(s2) == 0

    def test_clt_row_mass(self):
        n = 10_000
        x = 1.0 / math.sqrt(n)
        m = PlanarMeasure([((x, x), 0.5), ((-x, -x), 0.5)])
        centered, _ = center_row(row_groups([m] * n), 1.0)
        _, s1, _ = row_accumulators(centered)
        assert s1.total_mass() == pytest.approx(1.0, abs=1e-3)


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

    def test_phi_once_per_row_and_probe(self, monkeypatch):
        arr = json_copy(poisson_array())
        trip = limit_triplet(arr)
        calls = []
        real = lm.bi_free_phi

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lm, "bi_free_phi", counting)
        run_bi_free_limit(arr, PROBES, reference=trip)
        assert len(calls) == len(arr.rows) * len(PROBES)


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


class TestMarginalConsistency:
    def test_poisson_free_pair(self):
        # the w -> oo slice of the limit phi matches the free Levy-Hincin
        # form built from (gamma_1, first marginal of sigma_1)
        arr = poisson_array()
        rep12 = check_condition_I_II(arr)
        trip = limit_triplet(arr)
        # gamma_1 from its defining per-row sum, taken on the last row
        centered, centers = center_row(arr.groups[-1], arr.L)
        g1 = sum(
            count * (c[0] + m.integrate(lambda s, t: s / (1.0 + s * s)).real)
            for (m, count), c in zip(centered, centers)
        )
        assert g1 == pytest.approx(0.5, abs=1e-12)
        sigma1 = rep12.sigma1
        vs = (50.0, 100.0, 200.0, 400.0)
        for z in (3j, 5j, -4j):
            vals = [trip.bi_free_phi(z, 1j * v) for v in vs]
            slice_limit = richardson_limit(vals, [1.0 / v for v in vs])
            phi1 = z * slice_limit
            free_lh = g1 + sigma1.integrate(lambda s, t: (1.0 + z * s) / (z - s))
            assert phi1 == pytest.approx(free_lh, abs=1e-6)


def test_extrapolation_helper():
    sizes = [64, 256, 1024, 4096]
    vals = [(1 + 1 / n) ** -2 for n in sizes]
    assert extrapolate_in_inverse_size(vals, sizes) == pytest.approx(1.0, abs=1e-9)
    assert extrapolate_in_inverse_size([2.0, 2.0, 2.0, 2.0], sizes) == 2.0
