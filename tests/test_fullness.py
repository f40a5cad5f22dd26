import math

import numpy as np
import pytest

from bifree.biconv import bi_free_convolve
from bifree.fullness import (
    fullness_by_g,
    fullness_by_phi,
    fullness_of_triplet,
)
from bifree.idlaw import (
    CharTriplet,
    LevyMeasure,
    make_compound_poisson,
    make_gaussian,
)
from bifree.measure import AtomicMeasure2D, Matrix2, PlanarMeasure, dirac

I2 = Matrix2(1.0, 0.0, 1.0)
ONES = Matrix2(1.0, 1.0, 1.0)


def line_close(a, b, tol=1e-6):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


class TestByG:
    def test_dirac_degenerate(self):
        rep = fullness_by_g(dirac((1.0, 2.0)))
        assert rep.is_full is False
        assert rep.degenerate
        assert rep.residual <= 1e-12

    def test_diagonal_two_atom(self):
        m = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        rep = fullness_by_g(m)
        assert rep.is_full is False and not rep.degenerate
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, 0.0))

    def test_three_noncollinear(self):
        m = PlanarMeasure([((0.0, 0.0), 1 / 3), ((1.0, 0.0), 1 / 3), ((0.0, 1.0), 1 / 3)])
        rep = fullness_by_g(m)
        assert rep.is_full is True
        assert rep.residual > 1e-3

    def test_shifted_line(self):
        m = PlanarMeasure([((0.0, 1.0), 0.5), ((1.0, 2.0), 0.5)])  # t = s + 1
        rep = fullness_by_g(m)
        assert rep.is_full is False
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, s))

    def test_too_few_probes(self):
        with pytest.raises(ValueError):
            fullness_by_g(dirac((0.0, 0.0)), probes=[(2j, 2j)])

    def test_nearly_collinear_atoms_are_indeterminate(self):
        # the middle atom sits 1e-3 off the diagonal: too close to call either way
        m = PlanarMeasure([((-1.0, -1.0), 1 / 3), ((0.0, 1e-3), 1 / 3), ((1.0, 1.0), 1 / 3)])
        rep = fullness_by_g(m)
        assert rep.is_full is None
        assert rep.residual == pytest.approx(1.07e-4, rel=0.01)
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, 0.0), tol=1e-3)


class TestByPhi:
    def test_dirac(self):
        rep = fullness_by_phi(bi_free_convolve([dirac((1.0, 2.0))]))
        assert rep.is_full is False
        assert rep.degenerate

    def test_singular_gaussian_line(self):
        t = make_gaussian((0.5, -0.5), ONES)
        rep = fullness_by_phi(t)
        assert rep.is_full is False and not rep.degenerate
        s = 1 / math.sqrt(2.0)
        # s - t = v1 - v2 = 1, i.e. (1, -1, -1)/sqrt(2)
        assert line_close(rep.line, (s, -s, -s))
        assert rep.residual <= 1e-11

    def test_identity_gaussian_full(self):
        rep = fullness_by_phi(make_gaussian((0.0, 0.0), I2))
        assert rep.is_full is True
        assert rep.residual > 1e-3

    def test_atomic_agreement_with_g(self):
        m = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
        a = fullness_by_g(m)
        b = fullness_by_phi(bi_free_convolve([m]))
        assert a.is_full == b.is_full is False
        assert line_close(a.line, b.line)


class TestOfTriplet:
    def test_singular_gaussian(self):
        rep = fullness_of_triplet(make_gaussian((0.5, -0.5), ONES))
        assert rep.is_full is False
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, -s))

    def test_poisson_nonfull(self):
        rep = fullness_of_triplet(make_compound_poisson(1.0, dirac((1.0, 1.0))))
        assert rep.is_full is False
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, 0.0))

    def test_identity_gaussian_full(self):
        assert fullness_of_triplet(make_gaussian((0.0, 0.0), I2)).is_full is True

    def test_singular_matrix_with_an_atom_off_its_kernel_line(self):
        # the kernel of ONES is u = (1, -1)/sqrt 2, and |u . (1, 0)| = 1/sqrt 2
        t = CharTriplet((0.3, 0.3), ONES, LevyMeasure(AtomicMeasure2D([((1.0, 0.0), 1.0)])))
        rep = fullness_of_triplet(t)
        assert rep.is_full is True and rep.line is None
        assert rep.residual == pytest.approx(1 / math.sqrt(2.0), rel=1e-12)
        assert fullness_by_g(t).is_full is True

    def test_singular_matrix_with_an_atom_on_its_kernel_line(self):
        t = CharTriplet((0.3, 0.3), ONES, LevyMeasure(AtomicMeasure2D([((1.0, 1.0), 1.0)])))
        rep = fullness_of_triplet(t)
        assert rep.is_full is False and not rep.degenerate
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, 0.0))
        by_g = fullness_by_g(t)
        assert by_g.is_full is False and line_close(by_g.line, rep.line)

    def test_compound_poisson_full_jump(self):
        jump = PlanarMeasure([((1.0, 0.0), 1 / 3), ((0.0, 1.0), 1 / 3), ((1.0, 1.0), 1 / 3)])
        rep = fullness_of_triplet(make_compound_poisson(1.0, jump))
        assert rep.is_full is True

    def test_gaussian_plus_poisson_full(self):
        t = CharTriplet((0.0, 0.0), I2, LevyMeasure(AtomicMeasure2D([((1.0, 1.0), 1.0)])))
        assert fullness_of_triplet(t).is_full is True

    def test_radial_ray_alignment(self):
        from bifree.idlaw import RadialPart

        t = CharTriplet(
            (0.0, 0.0),
            Matrix2(0.0, 0.0, 0.0),
            LevyMeasure(AtomicMeasure2D(), RadialPart(1.0, ((math.pi / 4, 0.5), (5 * math.pi / 4, 0.5)))),
        )
        rep = fullness_of_triplet(t)
        assert rep.is_full is False
        s = 1 / math.sqrt(2.0)
        assert line_close(rep.line, (s, -s, 0.0))


CATALOG = None


def build_catalog():
    """Ten laws with, per law, the objects each method can consume."""
    diag2 = PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)])
    off_line = PlanarMeasure([((0.0, 1.0), 0.5), ((1.0, 2.0), 0.5)])
    tri = PlanarMeasure([((0.0, 0.0), 1 / 3), ((1.0, 0.0), 1 / 3), ((0.0, 1.0), 1 / 3)])
    full_jump = PlanarMeasure([((1.0, 0.0), 1 / 3), ((0.0, 1.0), 1 / 3), ((1.0, 1.0), 1 / 3)])
    line_jump = PlanarMeasure([((1.0, 1.0), 0.5), ((-2.0, -2.0), 0.5)])
    return [
        # (name, measure-or-None, triplet-or-None, expect_full, line-or-None)
        ("dirac", dirac((1.0, 2.0)), make_gaussian((1.0, 2.0), Matrix2(0, 0, 0)), False, None),
        ("diagonal-two-atom", diag2, None, False, (1, -1, 0)),
        ("offset-line", off_line, None, False, (1, -1, 1)),
        ("triangle", tri, None, True, None),
        ("identity-gaussian", None, make_gaussian((0.0, 0.0), I2), True, None),
        ("singular-gaussian", None, make_gaussian((0.5, -0.5), ONES), False, (1, -1, -1)),
        ("poisson", None, make_compound_poisson(1.0, dirac((1.0, 1.0))), False, (1, -1, 0)),
        ("cp-full-jump", None, make_compound_poisson(1.0, full_jump), True, None),
        ("cp-line-jump", None, make_compound_poisson(2.0, line_jump), False, (1, -1, 0)),
        ("gauss-plus-poisson", None,
         CharTriplet((0.0, 0.0), I2, LevyMeasure(AtomicMeasure2D([((1.0, 1.0), 1.0)]))), True, None),
    ]


class TestCatalogAgreement:
    @pytest.mark.parametrize("entry", build_catalog(), ids=lambda e: e[0])
    def test_three_way(self, entry):
        name, measure, triplet, expect_full, line = entry
        reports = []
        if measure is not None:
            reports.append(fullness_by_g(measure))
            reports.append(fullness_by_phi(bi_free_convolve([measure])))
        if triplet is not None:
            reports.append(fullness_of_triplet(triplet))
            reports.append(fullness_by_phi(triplet))
            reports.append(fullness_by_g(triplet))
        assert reports
        for rep in reports:
            assert rep.is_full is expect_full, f"{name}: {rep}"
        if line is not None:
            norm = math.hypot(line[0], line[1])
            target = tuple(x / norm for x in line)
            for rep in reports:
                if not rep.degenerate:
                    assert line_close(rep.line, target), f"{name}: {rep.line}"


class TestBijectionPreservesFullness:
    def test_triplet_test_is_representation_independent(self):
        from bifree.idlaw import lambda_bijection

        for entry in build_catalog():
            _, _, triplet, expect_full, _ = entry
            if triplet is None:
                continue
            # the structure test depends on the triplet alone, so the
            # world-tagging map cannot change the verdict
            as_classical = lambda_bijection("bifree-to-classical", triplet)
            as_bifree = lambda_bijection("classical-to-bifree", triplet)
            assert (
                fullness_of_triplet(as_classical).is_full
                == fullness_of_triplet(as_bifree).is_full
                == expect_full
            )


class TestCovariance:
    @pytest.mark.parametrize(
        "m",
        [
            PlanarMeasure([((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)]),
            PlanarMeasure([((0.0, 1.0), 0.5), ((1.0, 2.0), 0.5)]),
            PlanarMeasure([((2.0, 0.5), 0.3), ((-1.0, -0.25), 0.7)]),
        ],
    )
    def test_dilation_and_shift(self, m):
        base = fullness_by_g(m)
        lam = 2.0
        v = (0.3, -0.4)
        dil = fullness_by_g(m.dilated(lam))
        shf = fullness_by_g(m.shifted_by(v))
        assert base.is_full == dil.is_full == shf.is_full is False
        a, b, c = base.line
        # x -> lam x maps the line to (a, b, lam c)
        expect_d = np.array([a, b, lam * c]) / math.hypot(a, b)
        assert line_close(dil.line, tuple(expect_d))
        # x -> x - v maps it to (a, b, c + <(a,b), v>)
        expect_s = (a, b, c + a * v[0] + b * v[1])
        assert line_close(shf.line, expect_s)
