"""Coarse Ricci curvature of finite Markov chains and concentration bounds
for their equilibrium measures, with independently computed ground truth."""

from .bounds import (BoundParams, F_of, Phi_of, TailCurve, bound_princ,
                     bound_theorem1, epsilon_sweep, phi_of, search_params,
                     theorem1_params)
from .chain_model import (MetricChain, build_discrete_ou_chain, build_mmk_chain,
                          check_epsilon_geodesic, load_chain)
from .curvature import (CurvatureProfile, attraction_rho, curvature_envelope,
                        curvature_profile, curvature_profiles, local_curvature,
                        subgaussian_s2)
from .equilibrium import (StationaryResult, empirical_tail,
                          stationary_birth_death, stationary_power,
                          truncation_audit, tv_distance)
from .jump_process import (JumpProcessConfig, PathTally, poissonian_tail_bound,
                           simulate_paths, tail_comparison, transform_I)
from .stepfun import StepFunction
from .transport import w1_flow, w1_line, w1_to_point

__version__ = "0.1.0"

__all__ = [
    "BoundParams", "CurvatureProfile", "F_of", "JumpProcessConfig",
    "MetricChain", "PathTally", "Phi_of", "StationaryResult", "StepFunction", "TailCurve",
    "attraction_rho", "bound_princ", "bound_theorem1",
    "build_discrete_ou_chain", "build_mmk_chain", "check_epsilon_geodesic",
    "curvature_envelope", "curvature_profile", "curvature_profiles", "empirical_tail",
    "epsilon_sweep", "load_chain", "local_curvature", "phi_of",
    "poissonian_tail_bound", "search_params", "simulate_paths",
    "stationary_birth_death", "stationary_power", "subgaussian_s2",
    "tail_comparison", "theorem1_params", "transform_I", "truncation_audit",
    "tv_distance", "w1_flow", "w1_line", "w1_to_point",
]
