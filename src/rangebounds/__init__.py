"""Tight bounds on the expected range of dependent random variables.

Given means mu_i and standard deviations sigma_i (and nothing about the
dependence), the package computes the least upper bound on
E[max_i X_i - min_i X_i], constructs a finite-support joint law attaining
it, evaluates classical comparison bounds, and checks everything
numerically.
"""

from .errors import (
    ConvergenceError,
    InfeasibleCouplingError,
    RangeBoundsError,
    ValidationError,
)
from .extremal import (
    AttainingJoint,
    ExtremalComponents,
    JointDiscreteDistribution,
    PairSampler,
    ProbabilityMatrix,
    ag_tightness,
    bnt_extremal_max,
    build_extremal_joint,
    extremal_components,
    extremal_marginals,
    extremal_pair_given_correlation,
    perturb_coupling,
    zero_trace_coupling,
)
from .objective import (
    DualPoint,
    MomentSpec,
    RegionPartition,
    classify_regions,
    phi,
    phi_array,
    phi_gradient,
    u_gradient,
    u_value,
    u_value_array,
)
from .solver import (
    BoundReport,
    ag_bound,
    ag_general_bound,
    bnt_max_bound,
    bnt_range,
    equal_means_bound,
    gamma2_bound,
    minimize_phi,
    pair_cov_bounds,
    plackett_iid_bound,
    rho2_closed,
    rho_bound,
)
from .verify import (
    MomentCheckReport,
    check_moments,
    dual_grid_check,
    expected_range,
    feasible_probe,
    infimum_witness,
    mc_expected_range,
)

__version__ = "0.1.0"

__all__ = [
    "AttainingJoint",
    "BoundReport",
    "ConvergenceError",
    "DualPoint",
    "ExtremalComponents",
    "InfeasibleCouplingError",
    "JointDiscreteDistribution",
    "MomentCheckReport",
    "MomentSpec",
    "PairSampler",
    "ProbabilityMatrix",
    "RangeBoundsError",
    "RegionPartition",
    "ValidationError",
    "ag_bound",
    "ag_general_bound",
    "ag_tightness",
    "bnt_extremal_max",
    "bnt_max_bound",
    "bnt_range",
    "build_extremal_joint",
    "check_moments",
    "classify_regions",
    "dual_grid_check",
    "equal_means_bound",
    "expected_range",
    "extremal_components",
    "extremal_marginals",
    "extremal_pair_given_correlation",
    "feasible_probe",
    "gamma2_bound",
    "infimum_witness",
    "mc_expected_range",
    "minimize_phi",
    "pair_cov_bounds",
    "perturb_coupling",
    "phi",
    "phi_array",
    "phi_gradient",
    "plackett_iid_bound",
    "rho2_closed",
    "rho_bound",
    "u_gradient",
    "u_value",
    "u_value_array",
    "zero_trace_coupling",
    "__version__",
]
