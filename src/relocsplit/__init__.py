"""Variable-stepsize operator splitting with fixed-point relocators.

Monotone inclusions 0 in (A1 + ... + AN)x are solved by splitting iterations
whose fixed-point sets move with the stepsize; relocator maps carry iterates
between those sets so the stepsize can change every iteration. The package
ships the two-operator (Douglas-Rachford type) and multioperator families,
rate/error-bound diagnostics, synthetic problem generators, and the
``relocsplit`` experiment CLI.
"""

from .diagnostics import (
    compute_distances,
    fit_linear_rate,
    fixed_point_oracle,
    verify_error_bound,
    verify_one_step_contraction,
    verify_rate_theorem,
)
from .dr import (
    DRFamily,
    algorithm1_run,
    dr_contraction_factor,
    dr_regularity_constant,
    dr_summability_bound,
    fix_decomposition_check,
    primal_dual_extract,
)
from .family import (
    IterateTrace,
    OperatorFamily,
    ScalarShiftFamily,
    StepsizeSchedule,
    gamma_lipschitz_probe,
    relocated_iterate,
    relocator_only_sequence,
    summability_report,
)
from .mt import (
    MTFamily,
    algorithm2_run,
    mt_contraction_certificate,
    mt_fixed_point_to_zero,
    mt_relocator_lipschitz,
    mt_summability_bound,
)
from .operators import AffineOperator, BoxNormalCone
from .problems import generate_problem, skew_operator, symmetric_operator

from . import errors

__all__ = [
    "AffineOperator",
    "BoxNormalCone",
    "DRFamily",
    "IterateTrace",
    "MTFamily",
    "OperatorFamily",
    "ScalarShiftFamily",
    "StepsizeSchedule",
    "algorithm1_run",
    "algorithm2_run",
    "compute_distances",
    "dr_contraction_factor",
    "dr_regularity_constant",
    "dr_summability_bound",
    "errors",
    "fit_linear_rate",
    "fix_decomposition_check",
    "fixed_point_oracle",
    "gamma_lipschitz_probe",
    "generate_problem",
    "mt_contraction_certificate",
    "mt_fixed_point_to_zero",
    "mt_relocator_lipschitz",
    "mt_summability_bound",
    "primal_dual_extract",
    "relocated_iterate",
    "relocator_only_sequence",
    "skew_operator",
    "summability_report",
    "symmetric_operator",
    "verify_error_bound",
    "verify_one_step_contraction",
    "verify_rate_theorem",
]
