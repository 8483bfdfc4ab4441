"""Optimal universal cloning of d-level pure states.

Construction of the optimal N -> M cloning channel in occupation-number
bases, its closed-form error constants, generic CP-map diagnostics, and
the exact representation-theoretic maximization that singles it out.

The exports resolve on first use (PEP 562), each from its module in
_EXPORTS, so importing the package imports no submodule and no numpy.
Nothing is cached here: every lookup reads the module's own binding.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it; __all__ is its keys, in order
_EXPORTS = {
    "ChannelPropertyError": "errors",
    "CloneOptError": "errors",
    "DimensionGuardError": "errors",
    "DEFAULT_DENSE_GUARD": "tolerances",
    "STATE_TOL": "tolerances",
    "STRUCTURAL_TOL": "tolerances",
    "SYMMETRIC_BASIS": "tensor_core",
    "PureState": "tensor_core",
    "haar_state": "tensor_core",
    "occupation_basis": "tensor_core",
    "one_body_operator": "tensor_core",
    "product_power": "tensor_core",
    "single_site_marginal": "tensor_core",
    "sym_embed": "tensor_core",
    "adjoint_multiplicity": "rep_theory",
    "casimirs": "rep_theory",
    "fund_power_multiplicity": "rep_theory",
    "parse_weight": "rep_theory",
    "pieri_branch": "rep_theory",
    "weyl_dimension": "rep_theory",
    "sym_dimension": "rep_theory",
    "Channel": "cloner",
    "ClonerSpec": "omega_opt",
    "all_clone_overlap": "cloner",
    "delta_all_numeric": "cloner",
    "delta_one_closed_form": "omega_opt",
    "optimal_cloner": "cloner",
    "shrinking_factor": "omega_opt",
    "single_clone_marginal": "cloner",
    "choi": "channels",
    "covariance_defect": "channels",
    "delta_one_numeric": "channels",
    "omega_measure": "channels",
    "su2_component_cloner": "channels",
    "CandidatePoint": "omega_opt",
    "OmegaReport": "omega_opt",
    "enumerate_W1": "omega_opt",
    "f2": "omega_opt",
    "gamma_from_omega": "omega_opt",
    "maximize_brute": "omega_opt",
    "maximize_greedy": "omega_opt",
    "omega_of_point": "omega_opt",
    "omega_su2": "omega_opt",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
