"""stable-radial: stable triplets with radial Levy parts.

Per-point radial quadrature in ``bifree.idlaw`` dominates.  One triplet has
truncated rays (r_min > 0, finite r_max), which keeps the quadrature path
even once full rays have closed forms.
"""

from __future__ import annotations

import math

import numpy as np

import bifree.biconv as bc
import bifree.fullness as fl
import bifree.idlaw as il
import bifree.measure as ms
import bifree.stable as st
import references as ref
from common import Checks, Op, rng_for

NAME = "stable-radial"
ALPHAS = (0.5, 1.0, 1.5)
WRONG_ALPHA = 1.5  # index used for c in the negative control on the alpha = 1 law
B2_ATOMS = [((1.0, 1.0), 0.5), ((-1.0, -1.0), 0.5)]
# 9 probes from the default tensor grid, both half-planes
CHECK_PROBES = [(z, w) for z in (2j, 4j, -4j) for w in (2j, -2j, 8j)]
CF_US = [(x, y) for x in (-1.0, 0.5, 1.0) for y in (-0.5, 0.0, 1.0)]
DOA_NS = (8, 32, 128, 512)
DENSITY_AXIS = np.linspace(-3.0, 3.0, 4)
DENSITY_EPS = 0.1
TRUNC = dict(alpha=1.2, r_min=0.2, r_max=5.0)


def _symmetric_rays(rng, n: int = 8):
    """n equally spaced rays, seeded rotation; opposite rays share a mass."""
    phase = rng.uniform(0.0, 2.0 * math.pi / n)
    half = rng.uniform(0.5, 1.5, n // 2)
    masses = np.concatenate([half, half]) / (2.0 * half.sum())
    return tuple((float(phase + 2.0 * math.pi * k / n), float(m)) for k, m in enumerate(masses))


class Workload:
    name = NAME

    def __init__(self, seed: int):
        rng = rng_for(seed, NAME)
        self.rays = {a: _symmetric_rays(rng) for a in ALPHAS}
        self.specs = {a: st.StableSpec(alpha=a, theta=self.rays[a]) for a in ALPHAS}
        self.trips = {a: st.stable_triplet(self.specs[a]) for a in ALPHAS}
        self.a = float(rng.uniform(0.7, 1.3))
        self.b = float(rng.uniform(1.7, 2.3))
        self.nu_atoms = [((float(x), float(y)), 0.25) for x, y in rng.uniform(-1.0, 1.0, (4, 2))]
        self.nu = ms.PlanarMeasure(self.nu_atoms)
        self.b2 = ms.PlanarMeasure(B2_ATOMS)
        self.rep = bc.bi_free_convolve([self.b2, self.trips[1.0]])
        trunc_phase = rng.uniform(0.0, 0.5 * math.pi)
        self.trunc_rays = tuple((float(trunc_phase + 0.5 * math.pi * k), 0.25) for k in range(4))
        self.trunc = il.CharTriplet(
            (0.0, 0.0), ms.Matrix2(0.0, 0.0, 0.0),
            il.LevyMeasure(ms.AtomicMeasure2D(), il.RadialPart(
                TRUNC["alpha"], self.trunc_rays, TRUNC["r_min"], TRUNC["r_max"])),
        )
        self.phi_probes = st.default_probes()
        self.trunc_probes = self.phi_probes[::6]

    def warm_up(self) -> None:
        t = self.trips[1.0]
        t.bi_free_phi(4j, 4j)
        t.classical_cf((0.5, 0.5))
        st.check_stability(self.specs[1.0], 1.0, 2.0, probes=CHECK_PROBES[:2])
        st.domain_of_attraction_run(self.nu, self.specs[1.0], (8, 32), probes=CHECK_PROBES[:2], u_probes=CF_US[:2])
        fl.fullness_of_triplet(t)
        self.trunc.bi_free_phi(4j, 4j)
        self.rep.density(DENSITY_AXIS[:1], DENSITY_AXIS[:1], 1.0)

    def _wrong_index(self):
        trip = self.trips[1.0]
        c = (self.a**WRONG_ALPHA + self.b**WRONG_ALPHA) ** (1.0 / WRONG_ALPHA)
        resid = [
            trip.bi_free_phi(z / self.a, w / self.a) + trip.bi_free_phi(z / self.b, w / self.b)
            - trip.bi_free_phi(z / c, w / c)
            for z, w in CHECK_PROBES
        ]
        return st.fit_point_mass_shift(CHECK_PROBES, resid)[1]

    def ops(self) -> list[Op]:
        out = []
        for a in ALPHAS:
            out.append(Op(f"stability_{a:g}", "check_stability",
                          lambda a=a: st.check_stability(self.specs[a], self.a, self.b, probes=CHECK_PROBES)))
        out.append(Op("stability_wrong_index", "stability_wrong_index", self._wrong_index))
        trip15 = self.trips[1.5]
        out.append(Op("phi_table", "phi_table", lambda: [trip15.bi_free_phi(z, w) for z, w in self.phi_probes]))
        for a in ALPHAS:
            out.append(Op(f"cf_table_{a:g}", "cf_table",
                          lambda a=a: [self.trips[a].classical_cf(u) for u in CF_US]))
        out.append(Op("domain_of_attraction", "domain_of_attraction", lambda: st.domain_of_attraction_run(
            self.nu, self.specs[1.0], DOA_NS, probes=CHECK_PROBES, u_probes=CF_US)))
        out.append(Op("fullness_phi", "fullness_phi", lambda: fl.fullness_by_phi(trip15)))
        out.append(Op("density_b2_stable", "density_b2_stable",
                      lambda: self.rep.density(DENSITY_AXIS, DENSITY_AXIS, DENSITY_EPS)))
        out.append(Op("truncated_phi", "truncated", lambda: [self.trunc.bi_free_phi(z, w) for z, w in self.trunc_probes]))
        out.append(Op("truncated_cf", "truncated", lambda: [self.trunc.classical_cf(u) for u in CF_US[:3]]))
        return out

    def check(self, res: dict) -> list[str]:
        c = Checks()
        for a in ALPHAS:
            key = f"stability_{a:g}"
            if key in res:
                r = res[key]
                c.that(r.max_residual <= 1e-6, f"{key}: residual {r.max_residual:.3e} > 1e-6 at the right index")
                want_c = (self.a**a + self.b**a) ** (1.0 / a)
                c.close(r.c, want_c, 1e-12 * want_c, f"{key}: scale c")
        if "stability_wrong_index" in res:
            r = res["stability_wrong_index"]
            c.that(r > 1e-2, f"wrong-index residual {r:.3e} not > 1e-2")
        if "phi_table" in res:
            vals = np.array(res["phi_table"])
            conj = {(z, w): v for (z, w), v in zip(self.phi_probes, vals)}
            mirrored = np.array([conj[(z.conjugate(), w.conjugate())] for z, w in self.phi_probes])
            c.close(vals, np.conj(mirrored), 1e-10, "phi table conjugation symmetry")
        for a in ALPHAS:
            key = f"cf_table_{a:g}"
            if key in res:
                want = [ref.symmetric_stable_cf(a, self.rays[a], u) for u in CF_US]
                c.close(res[key], want, 1e-9, f"{key} vs symmetric stable CF")
        if "domain_of_attraction" in res:
            r = res["domain_of_attraction"]
            c.that(not r.bifree_converged and not r.classical_converged,
                   f"finite-variance law reported attracted to an alpha = 1 law: {r.to_jsonable()}")
        if "fullness_phi" in res:
            c.that(res["fullness_phi"].is_full is True, f"8-ray stable law not full: {res['fullness_phi']}")
        if "density_b2_stable" in res:
            vals = res["density_b2_stable"].values
            c.that(bool(np.all(np.isfinite(vals))), "B2 ++ stable: non-finite density")
            c.that(float(vals.min()) >= -1e-9 * float(vals.max()), f"B2 ++ stable: negative density {vals.min():.3e}")
            # both terms are symmetric under x -> -x, and the axis is too
            c.close(vals, vals[::-1, ::-1], 1e-8 * float(vals.max()), "B2 ++ stable: point symmetry")
        if "truncated_phi" in res:
            want = [ref.truncated_ray_phi(TRUNC["alpha"], self.trunc_rays, TRUNC["r_min"], TRUNC["r_max"], z, w)
                    for z, w in self.trunc_probes]
            c.close(res["truncated_phi"], want, 1e-8, "truncated-ray phi vs mpmath")
        if "truncated_cf" in res:
            want = [ref.truncated_ray_cf(TRUNC["alpha"], self.trunc_rays, TRUNC["r_min"], TRUNC["r_max"], u)
                    for u in CF_US[:3]]
            c.close(res["truncated_cf"], want, 1e-8, "truncated-ray CF vs mpmath")
        return c.errors
