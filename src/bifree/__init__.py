"""Numerical toolkit for bi-free probability on the plane."""

from .biconv import BiConvRep, bi_free_convolve
from .freeconv import FreeConvRep, free_convolve, free_convolve_many
from .fullness import LineReport, fullness_by_g, fullness_by_phi, fullness_of_triplet
from .idlaw import (
    CharTriplet,
    InconsistentSigmaForm,
    LevyMeasure,
    QuadratureError,
    RadialPart,
    SigmaForm,
    convolve_triplets,
    lambda_bijection,
    make_compound_poisson,
    make_gaussian,
    sigma_form_to_triplet,
    triplet_to_sigma_form,
)
from .limits import (
    ConditionReport,
    ConditionsNotMet,
    NotInfinitesimal,
    RowAccumulators,
    TriangularArray,
    center_row,
    check_condition_I_II,
    check_condition_III_IV,
    condition_reports,
    iid_array,
    limit_triplet,
    limit_vector,
    make_array,
    row_accumulators,
    run_bi_free_limit,
    run_classical_limit,
    triplet_from_reports,
)
from .measure import (
    AtomicMeasure2D,
    Matrix2,
    Measure1D,
    PlanarMeasure,
    RowStack,
    dirac,
    dirac1d,
    row_groups,
    row_stack,
    row_tail_mass,
)
from .stable import (
    ConvergenceReport,
    StabilityReport,
    StableSpec,
    check_stability,
    domain_of_attraction_run,
    stable_triplet,
)
from .transforms import (
    DegenerateDenominator,
    GridDensity,
    NoConvergence,
    TruncatedCone,
    bi_free_phi,
    cauchy1d,
    cauchy2d,
    cone_for,
    f_transform,
    free_phi,
    invert_f,
    stieltjes1d,
    stieltjes2d,
    tightness_probe,
)

__version__ = "0.1.0"
