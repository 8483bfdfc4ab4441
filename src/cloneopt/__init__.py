"""Optimal universal cloning of d-level pure states.

Construction of the optimal N -> M cloning channel in occupation-number
bases, its closed-form error constants, generic CP-map diagnostics, and
the exact representation-theoretic maximization that singles it out.
"""

from .errors import (
    BasisError,
    ChannelPropertyError,
    CloneOptError,
    DimensionGuardError,
)
from .tolerances import (
    DEFAULT_DENSE_GUARD,
    STATE_TOL,
    STRUCTURAL_TOL,
)
from .tensor_core import (
    FULL_BASIS,
    SYMMETRIC_BASIS,
    DensityOperator,
    PureState,
    haar_state,
    occupation_basis,
    one_body_operator,
    product_power,
    single_site_marginal,
    sym_dimension,
    sym_embed,
)
from .rep_theory import (
    adjoint_multiplicity,
    casimirs,
    fund_power_multiplicity,
    parse_weight,
    pieri_branch,
    weyl_dimension,
)
from .cloner import (
    Channel,
    ClonerSpec,
    all_clone_overlap,
    delta_all_numeric,
    delta_one_closed_form,
    optimal_cloner,
    shrinking_factor,
    single_clone_marginal,
)
from .channels import (
    choi,
    covariance_defect,
    delta_one_numeric,
    omega_measure,
    su2_component_cloner,
)
from .omega_opt import (
    CandidatePoint,
    OmegaReport,
    enumerate_W1,
    f2,
    gamma_from_omega,
    maximize_brute,
    maximize_greedy,
    omega_of_point,
    omega_su2,
)

__version__ = "0.1.0"

__all__ = [
    "BasisError",
    "ChannelPropertyError",
    "CloneOptError",
    "DimensionGuardError",
    "DEFAULT_DENSE_GUARD",
    "STATE_TOL",
    "STRUCTURAL_TOL",
    "FULL_BASIS",
    "SYMMETRIC_BASIS",
    "DensityOperator",
    "PureState",
    "haar_state",
    "occupation_basis",
    "one_body_operator",
    "product_power",
    "single_site_marginal",
    "sym_dimension",
    "sym_embed",
    "adjoint_multiplicity",
    "casimirs",
    "fund_power_multiplicity",
    "parse_weight",
    "pieri_branch",
    "weyl_dimension",
    "Channel",
    "ClonerSpec",
    "all_clone_overlap",
    "delta_all_numeric",
    "delta_one_closed_form",
    "optimal_cloner",
    "shrinking_factor",
    "single_clone_marginal",
    "choi",
    "covariance_defect",
    "delta_one_numeric",
    "omega_measure",
    "su2_component_cloner",
    "CandidatePoint",
    "OmegaReport",
    "enumerate_W1",
    "f2",
    "gamma_from_omega",
    "maximize_brute",
    "maximize_greedy",
    "omega_of_point",
    "omega_su2",
]
