"""planar-grid: bi-free convolutions of seeded atomic planar laws.

Nearly all the time goes to the Newton kernel, the 1-d continuation ladder
and planar recovery; no quadrature and no limit code runs here.
"""

from __future__ import annotations

import math

import numpy as np

import bifree.biconv as bc
import bifree.fullness as fl
import bifree.measure as ms
import bifree.stable as st
import references as ref
from common import Checks, Op, rng_for

NAME = "planar-grid"
B2_ATOMS = [((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)]
HALF_WIDTH = 6.0
# (grid points per axis, epsilon): the axis step stays at or below epsilon,
# so the row sums of the Cauchy-smoothed density are accurate.
GENERIC_GRIDS = ((64, 0.2), (128, 0.1))
B2_GRID = (256, 0.05)
B2_SUPPORT = 2.0  # the marginal of B2 ++ B2 is the arcsine law on [-2, 2]
FAR_Z = np.array([40j, -40j, 30 + 40j, -25 - 45j, 35j, -12 + 50j])


def _symmetric_law(rng, sign: float):
    """Equal atoms at +-p, p = (x, sign * y); the 1-d marginals are symmetric
    Bernoulli laws.  Opposite signs keep the two laws' lines 46 degrees or
    more apart, so their convolution is clearly full."""
    x, y = rng.uniform(0.6, 1.4, 2)
    return [((float(x), float(sign * y)), 0.5), ((float(-x), float(-sign * y)), 0.5)]


def _diagonal_law(rng):
    xs = np.sort(rng.uniform(-1.3, 1.3, 3))
    xs = xs + np.array([-0.3, 0.0, 0.3])  # keep the atoms apart
    w = rng.uniform(0.2, 0.5, 3)
    w = w / w.sum()
    return [((float(x), float(x)), float(p)) for x, p in zip(xs, w)]


def _tail_bound(eps: float, support: float) -> float:
    """Mass a Cauchy kernel of width eps puts beyond the grid edge, both sides."""
    return 2.0 * eps / (math.pi * (HALF_WIDTH - support))


def _riemann_bound(eps: float, step: float) -> float:
    """Relative error of a Riemann sum of a Cauchy kernel with this step."""
    return 2.0 * math.exp(-2.0 * math.pi * eps / step) / (1.0 - math.exp(-2.0 * math.pi * eps / step))


class Workload:
    name = NAME

    def __init__(self, seed: int):
        rng = rng_for(seed, NAME)
        self.atoms1 = _symmetric_law(rng, 1.0)
        self.atoms2 = _symmetric_law(rng, -1.0)
        self.diag_atoms = _diagonal_law(rng)
        self.m1 = ms.PlanarMeasure(self.atoms1)
        self.m2 = ms.PlanarMeasure(self.atoms2)
        self.b2 = ms.PlanarMeasure(B2_ATOMS)
        self.diag = ms.PlanarMeasure(self.diag_atoms)
        self.rep = bc.bi_free_convolve([self.m1, self.m2])
        self.rep_b2 = bc.bi_free_convolve([self.b2, self.b2])
        self.rep_diag = bc.bi_free_convolve([self.b2, self.diag])
        self.axes = {n: np.linspace(-HALF_WIDTH, HALF_WIDTH, n) for n, _ in GENERIC_GRIDS + (B2_GRID,)}
        self.phi_probes = st.default_probes(0.5 * self.rep.cone.M)

    def warm_up(self) -> None:
        """One small call into each layer the operations use."""
        small = np.linspace(-1.0, 1.0, 8)
        self.rep.density(small, small, 0.2)
        self.rep.marginal(1).density(small, 0.2)
        self.rep.phi(*self.phi_probes[0])
        fl.fullness_by_g(self.rep_diag)

    def ops(self) -> list[Op]:
        rep, rep_b2 = self.rep, self.rep_b2
        out = []
        for n, eps in GENERIC_GRIDS:
            ax = self.axes[n]
            out.append(Op(f"density_{n}", f"density_{n}", lambda ax=ax, eps=eps: rep.density(ax, ax, eps)))
        n_b2, eps_b2 = B2_GRID
        ax_b2 = self.axes[n_b2]
        out.append(Op(f"density_b2_{n_b2}", f"density_b2_{n_b2}", lambda: rep_b2.density(ax_b2, ax_b2, eps_b2)))
        n_m, eps_m = GENERIC_GRIDS[-1]
        ax_m = self.axes[n_m]
        out.append(Op("marginal_densities", "marginal_densities", lambda: (
            rep.marginal(1).density(ax_m, eps_m), rep.marginal(2).density(ax_m, eps_m))))
        out.append(Op("b2_marginal_density", "b2_marginal_density",
                      lambda: rep_b2.marginal(1).density(ax_b2, eps_b2)))
        out.append(Op("marginal_far_cauchy", "marginal_far_cauchy", lambda: (
            rep.marginal(1).cauchy(FAR_Z), rep.marginal(2).cauchy(FAR_Z))))
        probes = self.phi_probes
        out.append(Op("phi_table", "phi_table", lambda: [rep.phi(z, w) for z, w in probes]))
        out.append(Op("fullness_diagonal", "fullness_g", lambda: fl.fullness_by_g(self.rep_diag)))
        out.append(Op("fullness_generic", "fullness_g", lambda: fl.fullness_by_g(rep)))
        return out

    def check(self, res: dict) -> list[str]:
        c = Checks()
        support = self.m1.support_radius() + self.m2.support_radius()
        grids = [(f"density_{n}", n, eps, support) for n, eps in GENERIC_GRIDS]
        grids.append((f"density_b2_{B2_GRID[0]}", *B2_GRID, B2_SUPPORT))
        for key, n, eps, supp in grids:
            if key not in res:
                continue
            vals = res[key].values
            c.that(bool(np.all(np.isfinite(vals))), f"{key}: non-finite density")
            c.that(float(vals.min()) >= -1e-9 * float(vals.max()), f"{key}: negative density {vals.min():.3e}")
            riemann = 2.0 * _riemann_bound(eps, 2.0 * HALF_WIDTH / (n - 1))
            lost = 2.0 * _tail_bound(eps, supp) + riemann + 1e-3
            mass = res[key].riemann_mass()
            c.that(1.0 - lost <= mass <= 1.0 + riemann + 1e-3,
                   f"{key}: grid mass {mass:.6f} outside [1 - {lost:.4f}, 1]")

        # marginals of the planar grid against the free convolution of the marginals
        n_m, eps_m = GENERIC_GRIDS[-1]
        if f"density_{n_m}" in res and "marginal_densities" in res:
            grid = res[f"density_{n_m}"]
            step = 2.0 * HALF_WIDTH / (n_m - 1)
            tol = _tail_bound(eps_m, support) + _riemann_bound(eps_m, step) + 1e-3
            for axis, free in zip((1, 2), res["marginal_densities"]):
                _, row = grid.marginal(axis)
                l1 = float(np.abs(row - free).sum() * step)
                c.that(l1 <= tol, f"grid marginal {axis} vs free convolution: L1 {l1:.4f} > {tol:.4f}")

        # B2 ++ B2: marginal is the arcsine law; the reference is direct quadrature
        n_b2, eps_b2 = B2_GRID
        ax_b2 = self.axes[n_b2]
        arcsine = np.array([ref.smoothed_arcsine(s, eps_b2) for s in ax_b2])
        if "b2_marginal_density" in res:
            c.close(res["b2_marginal_density"], arcsine, 1e-7 * float(arcsine.max()),
                    "B2 ++ B2 marginal vs smoothed arcsine")
        if f"density_b2_{n_b2}" in res:
            _, row = res[f"density_b2_{n_b2}"].marginal(1)
            step = 2.0 * HALF_WIDTH / (n_b2 - 1)
            tol = _tail_bound(eps_b2, B2_SUPPORT) + _riemann_bound(eps_b2, step) + 1e-3
            l1 = float(np.abs(row - arcsine).sum() * step)
            c.that(l1 <= tol, f"B2 ++ B2 grid marginal vs smoothed arcsine: L1 {l1:.4f} > {tol:.4f}")

        if "marginal_far_cauchy" in res:
            for axis, got in zip((1, 2), res["marginal_far_cauchy"]):
                laws = [([p[axis - 1] for p, _ in atoms], [w for _, w in atoms])
                        for atoms in (self.atoms1, self.atoms2)]
                want = ref.free_convolution_cauchy(laws, FAR_Z)
                c.close(got, want, 1e-9 * float(np.abs(want).max()),
                        f"marginal {axis} G at large |z| vs free cumulant addition")

        if "phi_table" in res:
            want = [ref.atomic_bi_free_phi(self.atoms1, z, w) + ref.atomic_bi_free_phi(self.atoms2, z, w)
                    for z, w in self.phi_probes]
            c.close(res["phi_table"], want, 1e-10, "phi table vs sum of atomic phis")

        if "fullness_diagonal" in res:
            rep = res["fullness_diagonal"]
            c.that(rep.is_full is False, f"diagonal pair reported full: {rep}")
            if rep.line is not None:
                want = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)
                c.close(rep.line, want, 1e-6, "diagonal pair line vs s - t = 0")
        if "fullness_generic" in res:
            c.that(res["fullness_generic"].is_full is True,
                   f"generic pair not reported full: {res['fullness_generic']}")
        return c.errors
