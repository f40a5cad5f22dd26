import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bifree.measure as ms
from bifree.limits import center_row, infinitesimality_diagnostic, make_array, row_groups, row_stack
from bifree.measure import (
    MERGE_TOL,
    AtomicMeasure2D,
    LawError,
    Matrix2,
    Measure1D,
    PlanarMeasure,
    dirac,
)

from oracles import integrate


def two_atom():
    return PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])


def truncated_mean(m, L):
    """The mean of m over the open ball ||x|| < L, as ``center_row`` centers a law."""
    _, centers = center_row(row_stack(((m, 1),)), L)
    return tuple(centers[0].tolist())


class TestDirac:
    def test_origin(self):
        m = dirac((0.0, 0.0))
        assert len(m) == 1
        assert m.atoms() == [((0.0, 0.0), 1.0)]

    def test_generic_point(self):
        m = dirac((1.0, -2.0))
        assert m.atoms() == [((1.0, -2.0), 1.0)]

    def test_marginal_of_point(self):
        m = dirac((1.0, -2.0))
        assert m.marginal(1).points[0] == 1.0
        assert m.marginal(2).points[0] == -2.0


class TestMarginal:
    def test_two_atom(self):
        got = two_atom().marginal(1)
        assert got.close_to(Measure1D([(1.0, 0.5), (-1.0, 0.5)]))

    def test_point(self):
        assert dirac((3.0, 7.0)).marginal(2).close_to(Measure1D([(7.0, 1.0)]))

    def test_merging_on_projection(self):
        m = PlanarMeasure([((1, 1), 0.25), ((1, -1), 0.25), ((-1, 1), 0.25), ((-1, -1), 0.25)])
        got = m.marginal(1)
        assert got.close_to(Measure1D([(1.0, 0.5), (-1.0, 0.5)]))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            two_atom().marginal(3)


# coordinates that a huge factor takes out of the float range, or a tiny one onto one point
dilation_coords = st.one_of(st.sampled_from([0.0, 1.0, 1.2, -1.0, 1e-300]), st.floats(-3.0, 3.0))


class TestDilate:
    def test_point(self):
        assert dirac((1.0, 1.0)).dilated(2.0).close_to(dirac((2.0, 2.0)))

    def test_identity(self):
        m = two_atom()
        assert m.dilated(1.0).close_to(m)

    def test_composition(self):
        m = PlanarMeasure([((1, 0), 0.2), ((0, 1), 0.3), ((2, -1), 0.5)])
        assert m.dilated(2.0).dilated(3.0).close_to(m.dilated(6.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            two_atom().dilated(0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_and_negative(self, lam):
        # NaN passes lam <= 0, and would give NaN atoms
        for m in (two_atom(), two_atom().marginal(1)):
            with pytest.raises(ValueError, match="positive and finite"):
                m.dilated(lam)

    def test_preserves_weights_bit_exact(self):
        m = PlanarMeasure([((0.1, 0.2), 1 / 3), ((0.3, 0.4), 2 / 3)])
        d = m.dilated(7.0)
        assert d.weights is m.weights

    @pytest.mark.parametrize("law", [PlanarMeasure([((1, 2), 0.5), ((-1, 0), 0.5)]),
                                     Measure1D([(2.0, 0.5), (-1.0, 0.5)])], ids=["planar", "line"])
    def test_overflow_raises_without_a_warning(self, law):
        # 1e308 * 2 leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                law.dilated(1e308)

    def test_atoms_brought_together_merge(self):
        # a subnormal factor rounds both atoms to one point
        d = PlanarMeasure([((1, 0), 0.5), ((1.2, 0), 0.5)]).dilated(5e-324)
        assert d.atoms() == [((5e-324, 0.0), 1.0)]
        d1 = Measure1D([(1.0, 0.5), (1.2, 0.5)]).dilated(5e-324)
        assert (d1.points.tolist(), d1.weights.tolist()) == ([5e-324], [1.0])
        assert not (d1.points.flags.writeable or d1.weights.flags.writeable)

    @given(st.lists(st.tuples(st.tuples(dilation_coords, dilation_coords), st.floats(0.01, 1.0)),
                    min_size=1, max_size=8),
           st.sampled_from([5e-324, 1e-320, 1e-13, 0.3, 1.0, 7.0, 1e12, 1e307, 1e308]))
    def test_equals_the_constructor_of_the_scaled_atoms(self, atoms, lam):
        total = sum(w for _, w in atoms)
        m = PlanarMeasure([(p, w / total) for p, w in atoms])
        for law, points in ((m, m.points), (m.marginal(1), m.marginal(1).points[:, None])):
            with np.errstate(over="ignore"):
                scaled = lam * points
            if not np.isfinite(scaled).all():
                with pytest.raises(ValueError, match="finite"):
                    law.dilated(lam)
                continue
            want = type(law)(zip(scaled.tolist() if law is m else scaled[:, 0].tolist(), law.weights))
            got = law.dilated(lam)
            assert got.points.tobytes() == want.points.tobytes() and got.points.shape == want.points.shape
            assert got.weights.tobytes() == want.weights.tobytes()


class TestShiftBy:
    def test_point_to_origin(self):
        assert dirac((1.0, 1.0)).shifted_by((1.0, 1.0)).close_to(dirac((0.0, 0.0)))

    def test_zero_shift(self):
        m = two_atom()
        assert m.shifted_by((0.0, 0.0)).close_to(m)

    def test_inverse(self):
        m = two_atom()
        assert m.shifted_by((0.3, -0.7)).shifted_by((-0.3, 0.7)).close_to(m)

    def test_shifts_mean(self):
        m = two_atom()
        shifted = m.shifted_by((0.25, -0.5))
        L = 100.0  # larger than any atom norm: plain mean
        assert truncated_mean(shifted, L) == pytest.approx((-0.25, 0.5), abs=1e-15)


class TestTruncatedMean:
    def test_inside(self):
        assert truncated_mean(dirac((0.1, 0.2)), 1.0) == pytest.approx((0.1, 0.2))

    def test_outside(self):
        assert truncated_mean(dirac((5.0, 5.0)), 1.0) == (0.0, 0.0)

    def test_symmetric(self):
        m = PlanarMeasure([((0.5, 0.0), 0.5), ((-0.5, 0.0), 0.5)])
        assert truncated_mean(m, 1.0) == pytest.approx((0.0, 0.0), abs=0)

    def test_boundary_is_open(self):
        # the atom exactly on the sphere does not count
        assert truncated_mean(dirac((1.0, 0.0)), 1.0) == (0.0, 0.0)


class TestIntegrate:
    def test_product(self):
        assert integrate(dirac((1.0, 2.0)), lambda s, t: s * t) == pytest.approx(2.0)

    def test_normalization(self):
        m = PlanarMeasure([((1, 1), 0.25), ((2, 2), 0.75)])
        assert integrate(m, lambda s, t: 1.0) == pytest.approx(1.0)

    def test_rational_kernel(self):
        got = integrate(two_atom(), lambda s, t: s * t / ((1 + s * s) * (1 + t * t)))
        assert got == pytest.approx(0.25, abs=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            integrate(dirac((1.0, 0.0)), lambda s, t: float("inf"))


class TestCharFun:
    US = np.array([[0.5, -1.0], [2.0, 0.3], [0.0, 0.0], [-1.5, 0.7], [0.0, 1.2], [0.9, 0.9]])

    def test_u_arrays_match_one_u_at_a_time(self):
        m = PlanarMeasure([((1.0, -0.5), 0.2), ((-0.3, 2.0), 0.5), ((0.7, 0.7), 0.3)])
        one_by_one = [m.char_fun(tuple(u)) for u in self.US]
        assert isinstance(one_by_one[0], complex)
        want = [sum(w * np.exp(1j * (u @ p)) for p, w in zip(m.points, m.weights)) for u in self.US]
        np.testing.assert_allclose(one_by_one, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(m.char_fun(self.US), one_by_one, rtol=1e-14, atol=0)
        np.testing.assert_allclose(m.char_fun(self.US.reshape(2, 3, 2)),
                                   np.reshape(one_by_one, (2, 3)), rtol=1e-14, atol=0)


class TestInfinitesimalRow:
    """The row tail mass max_k mu_k({||x|| >= 0.5}) of a one-row array."""

    def test_point_at_origin(self):
        assert infinitesimality_diagnostic(make_array([[dirac((0.0, 0.0))]])) == [0.0]

    def test_point_outside(self):
        assert infinitesimality_diagnostic(make_array([[dirac((1.0, 0.0))]])) == [1.0]

    def test_mixture(self):
        n = 100
        m = PlanarMeasure([((0.0, 0.0), 1 - 1 / n), ((1.0, 1.0), 1 / n)])
        assert infinitesimality_diagnostic(make_array([[m]])) == [pytest.approx(0.01)]

    def test_empty_row(self):
        with pytest.raises(ValueError, match="rows must not be empty"):
            make_array([[]])


class TestInvariants:
    def test_weight_normalization_enforced(self):
        with pytest.raises(ValueError):
            PlanarMeasure([((0, 0), 0.5), ((1, 1), 0.4)])
        with pytest.raises(ValueError):
            PlanarMeasure([((0, 0), 1.0), ((1, 1), -0.1)])

    def test_dedup_on_construction(self):
        m = PlanarMeasure([((1.0, 1.0), 0.5), ((1.0, 1.0 + 1e-14), 0.5)])
        assert len(m) == 1
        assert m.weights[0] == 1.0

    def test_marginal_commutes_with_dilate(self):
        m = PlanarMeasure([((1, 2), 0.2), ((-0.5, 0.1), 0.5), ((3, -3), 0.3)])
        lam = 2.5
        a = m.dilated(lam).marginal(1)
        b = m.marginal(1).dilated(lam)
        assert a.close_to(b)

    def test_shift_then_mean(self):
        m = PlanarMeasure([((1, 2), 0.25), ((-2, 0.5), 0.75)])
        v = (0.4, -1.1)
        L = 50.0
        base = np.array(truncated_mean(m, L))
        moved = np.array(truncated_mean(m.shifted_by(v), L))
        assert np.allclose(moved, base - np.array(v), atol=1e-15)


# sites on a coarse grid plus offsets within and just beyond MERGE_TOL, so that
# draws hold exact duplicates, merge chains and near misses
merge_coords = st.builds(
    lambda base, off: base + off,
    st.sampled_from([-1.0, 0.0, 2.5]),
    st.sampled_from([0.0, 0.4 * MERGE_TOL, 0.8 * MERGE_TOL, 1.5 * MERGE_TOL]),
)
merge_weights = st.floats(0.01, 1.0)


def single_linkage(atoms, tol):
    """Reference merge: join every pair within tol, pairwise; sum in sorted order."""
    atoms = sorted(atoms)
    root = list(range(len(atoms)))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for a, ((xa, ya), _) in enumerate(atoms):
        for b in range(a + 1, len(atoms)):
            (xb, yb), _ = atoms[b]
            if math.hypot(xa - xb, ya - yb) <= tol:
                ra, rb = find(a), find(b)
                root[max(ra, rb)] = min(ra, rb)
    sums: dict[int, float] = {}
    for k, (_, w) in enumerate(atoms):
        sums[find(k)] = sums.get(find(k), 0.0) + w
    return [(atoms[r][0], w) for r, w in sorted(sums.items())]


class TestMerge:
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_chain_through_a_neighbour(self, order):
        # (0,1) sits between (0,0) and (5e-13,0) in lexicographic order
        atoms = [((0.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((5e-13, 0.0), 1.0)]
        m = AtomicMeasure2D([atoms[k] for k in order])
        assert m.atoms() == [((0.0, 0.0), 2.0), ((0.0, 1.0), 1.0)]

    def test_single_linkage_chain(self):
        m = Measure1D([(k * 0.6 * MERGE_TOL, 0.25) for k in range(4)])
        assert m.points.tolist() == [0.0]
        assert m.weights.tolist() == [1.0]

    @given(st.lists(st.tuples(st.tuples(merge_coords, merge_coords), merge_weights),
                    min_size=1, max_size=12), st.randoms(use_true_random=False))
    def test_planar_shuffle_invariant(self, atoms, rnd):
        total = sum(w for _, w in atoms)
        atoms = [(p, w / total) for p, w in atoms]
        want = single_linkage(atoms, MERGE_TOL)
        for order in (atoms, rnd.sample(atoms, len(atoms))):
            assert PlanarMeasure(order).atoms() == want
            assert AtomicMeasure2D(order).atoms() == want
            assert AtomicMeasure2D.from_arrays([p for p, _ in order], [w for _, w in order]).atoms() == want

    @given(st.lists(st.tuples(merge_coords, merge_coords), min_size=2, max_size=12),
           st.lists(merge_weights, min_size=12, max_size=12))
    def test_unmerged_atoms_match_the_linkage_path(self, pts, wts):
        # atoms with no pair within tol skip the linkage pass; forcing it gives the same bits
        points, weights = np.array(pts), np.array(wts[: len(pts)])
        fast = ms._merge(points, weights, MERGE_TOL)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ms, "_needs_merge", lambda p, law, count, tol: np.ones(count, dtype=bool))
            slow = ms._merge(points, weights, MERGE_TOL)
        for a, b in zip(fast, slow):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @given(st.lists(st.tuples(merge_coords, merge_weights), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_line_shuffle_invariant(self, atoms, rnd):
        total = sum(w for _, w in atoms)
        atoms = [(p, w / total) for p, w in atoms]
        a, b = Measure1D(atoms), Measure1D(rnd.sample(atoms, len(atoms)))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


atomic_lists = st.lists(st.tuples(st.tuples(merge_coords, merge_coords), merge_weights), max_size=12)


@given(atomic_lists, atomic_lists)
def test_array_methods_match_tuple_rebuilds(atoms, other):
    """restricted, weighted, scaled and + equal a rebuild from ((s, t), mass) tuples."""
    m, o = AtomicMeasure2D(atoms), AtomicMeasure2D(other)
    keep = (lambda p: p[:, 0] > 0.0)(m.points)
    assert m.restricted(lambda p: p[:, 0] > 0.0).atoms() == AtomicMeasure2D(
        [a for a, k in zip(m.atoms(), keep) if k]).atoms()
    # zero on the axes, so atoms there drop out
    assert m.weighted(lambda s, t: s * t).atoms() == AtomicMeasure2D(
        [((s, t), w * (s * t)) for (s, t), w in m.atoms()]).atoms()
    assert m.scaled(-2.0).atoms() == AtomicMeasure2D([(p, -2.0 * w) for p, w in m.atoms()]).atoms()
    assert m.scaled(0.0).atoms() == []
    assert (m + o).atoms() == AtomicMeasure2D(m.atoms() + o.atoms()).atoms()


def flat(laws):
    """(points, weights, sizes) of a row of atom lists, as ``from_flat`` takes them."""
    pts = [p for atoms in laws for p, _ in atoms]
    return np.array(pts, dtype=float).reshape(-1, 2), [w for atoms in laws for _, w in atoms], [len(a) for a in laws]


def assert_same_laws(got, want):
    """Byte-equal, read-only laws, and byte-equal row stacks."""
    assert len(got) == len(want)
    for g, m in zip(got, want):
        assert g.points.tobytes() == m.points.tobytes() and g.points.shape == m.points.shape
        assert g.weights.tobytes() == m.weights.tobytes()
        assert not (g.points.flags.writeable or g.weights.flags.writeable)
    for a, b in zip(row_stack(row_groups(got)), row_stack(row_groups(want))):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFromFlat:
    def test_only_laws_with_close_atoms_are_merged(self, monkeypatch):
        # axis-aligned atoms share x coordinates but lie far apart
        merge, calls = ms._merge, []

        def counting(*args):
            calls.append(args)
            return merge(*args)

        monkeypatch.setattr(ms, "_merge", counting)
        laws = [[((0.0, 0.0), 0.5), ((a, 0.0), 0.25), ((0.0, a), 0.25)] for a in (1.0, 1.5, 2.0)]
        laws.append([((0.0, 0.0), 0.5), ((0.0, 0.5 * MERGE_TOL), 0.5)])
        got = PlanarMeasure.from_flat(*flat(laws))
        assert len(calls) == 1 and [len(m) for m in got] == [3, 3, 3, 1]

    @pytest.mark.parametrize("atoms,message", [
        ([((0.0, math.nan), 0.5), ((1.0, 1.0), 0.5)], "atom coordinates must be finite"),
        ([((0.0, 0.0), 0.0), ((1.0, 1.0), 1.0)], "atom weights must be positive"),
        ([((0.0, 0.0), math.nan), ((1.0, 1.0), 1.0)], "atom weights must be positive"),
        ([((0.0, 0.0), 0.4), ((1.0, 1.0), 0.5)], "weights sum to 0.9, not 1"),
    ])
    def test_first_invalid_law_named(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            PlanarMeasure(atoms)
        laws = [[((0.0, 0.0), 1.0)], atoms, [((1.0, 1.0), 0.7)]]
        with pytest.raises(LawError) as err:
            PlanarMeasure.from_flat(*flat(laws))
        assert err.value.law == 1 and str(err.value).startswith(message)

    # masses within an ulp of 1 + MASS_TOL: the sum in input order and the
    # constructor's sum in sorted order fall on opposite sides of the bound
    @pytest.mark.parametrize("xs,ws", [
        ([0.024298239241800745, -0.610781304535531, 0.5598895419771632, 0.7368623088344592,
          -0.36799002847951834, 0.016128393512579997, 0.18874920502551773, 0.4447563478622474,
          -0.7050550910692872],
         [0.07578639310016555, 0.1442314400193185, 0.10370947806479398, 0.19337820775159634,
          0.15446799247684204, 0.16397482735870209, 0.06453877674268471, 0.04586387797124018,
          0.054049006515656556]),
        ([-0.41760720470825397, 0.05577008932768046, 0.7066197106707892, -0.6410889455590854,
          -0.049550751415952776, 0.1650045034703822, 0.5396406230016382, 0.8819539250027493,
          0.10121576247015351],
         [0.15528446063093926, 0.11211168497424068, 0.10213295315856012, 0.10227376316613655,
          0.16286626500800258, 0.07782049743698367, 0.15520170048077891, 0.10031652319826587,
          0.03199215194709225]),
    ])
    def test_mass_at_the_bound_follows_the_constructor(self, xs, ws):
        atoms = [((x, 0.0), w) for x, w in zip(xs, ws)]
        try:
            want = PlanarMeasure(atoms)
        except ValueError as e:
            with pytest.raises(LawError, match=re.escape(str(e))):
                PlanarMeasure.from_flat(*flat([atoms]))
        else:
            assert_same_laws(PlanarMeasure.from_flat(*flat([atoms])), [want])

    def test_sizes_must_cover_the_atoms(self):
        with pytest.raises(ValueError):
            PlanarMeasure.from_flat([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [1])
        with pytest.raises(LawError, match="at least one atom"):
            PlanarMeasure.from_flat([[0.0, 0.0]], [1.0], [1, 0])
        assert PlanarMeasure.from_flat(np.empty((0, 2)), [], []) == []


class TestMatrix2:
    def test_psd(self):
        assert Matrix2(1.0, 1.0, 1.0).is_psd()
        assert not Matrix2(1.0, 1.5, 1.0).is_psd()

    def test_quad_form(self):
        A = Matrix2(1.0, 1.0, 1.0)
        assert A.quad_form((1.0, 1.0)) == pytest.approx(4.0)
