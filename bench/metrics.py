"""The metric catalogue; ``BENCHMARK.json`` lists the same names and units.

Standard library only, so ``run.py`` can read it without importing the
program.
"""

# name, unit, bound (share of the parent's median a metric may worsen by)
END_TO_END = [
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
    ("cli_p50_s", "s", 0.25),
]

LAYERS = [
    ("measure.build_s", "s"),
    ("measure.atoms_in", "count"),
    ("transforms.newton_s", "s"),
    ("transforms.newton_points", "count"),
    ("transforms.bi_free_phi_s", "s"),
    ("transforms.bi_free_phi_calls", "count"),
    ("freeconv.f_value_s", "s"),
    ("freeconv.f_value_points", "count"),
    ("biconv.density_s", "s"),
    ("biconv.density_nodes", "count"),
    ("biconv.pointwise_s", "s"),
    ("biconv.pointwise_points", "count"),
    ("idlaw.quad_calls", "count"),
    ("idlaw.quad_s", "s"),
    ("idlaw.phi_s", "s"),
    ("idlaw.phi_points", "count"),
    ("idlaw.cf_s", "s"),
    ("idlaw.cf_calls", "count"),
    ("stable.check_s", "s"),
    ("stable.doa_s", "s"),
    ("limits.rows_s", "s"),
    ("limits.conditions_s", "s"),
    ("limits.runners_s", "s"),
    ("limits.phi_calls_per_distinct", "ratio"),
    ("fullness.s", "s"),
    ("serialize.load_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.bytes_written", "B"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_integrate_s", "s"),
    ("cli.cmd_s", "s"),
    ("calib.speed", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]

# operation kinds per workload; each gives an ops.<kind>.p50_ms figure
OP_KINDS = {
    "planar-grid": [
        "density_64", "density_128", "density_b2_256", "marginal_densities",
        "b2_marginal_density", "marginal_far_cauchy", "phi_table", "fullness_g",
    ],
    "stable-radial": [
        "check_stability", "stability_wrong_index", "phi_table", "cf_table",
        "domain_of_attraction", "fullness_phi", "density_b2_stable", "truncated",
    ],
    "limit-arrays": [
        f"{form}.{op}"
        for form in ("shared", "json")
        for op in ("ensure_infinitesimal", "conditions_I_II", "conditions_III_IV",
                   "limit_triplet", "run_bi_free_limit", "run_classical_limit")
    ],
}


def per_layer() -> list[tuple[str, str]]:
    kinds = sorted({k for ks in OP_KINDS.values() for k in ks})
    return LAYERS + [(f"ops.{k}.p50_ms", "ms") for k in kinds]
