"""Coarse Ricci curvature of finite Markov chains and concentration bounds
for their equilibrium measures, with independently computed ground truth."""

from .bounds import (BoundParams, C0_of, C_alpha_d0, Cprime_alpha_d0, F_of,
                     Phi_of, TailCurve, bound_princ, bound_theorem1,
                     epsilon_sweep, phi_of, search_params, theorem1_params)
from .chain_model import (GeodesicReport, MetricChain, build_discrete_ou_chain,
                          build_mmk_chain, check_epsilon_geodesic, load_chain)
from .curvature import (CurvatureProfile, attraction_rho, curvature_envelope,
                        curvature_profile, kappa_pair, local_curvature,
                        subgaussian_s2)
from .equilibrium import (StationaryResult, empirical_tail,
                          stationary_birth_death, stationary_cesaro,
                          stationary_power, truncation_audit, tv_distance)
from .jump_process import (JumpProcessConfig, poissonian_tail_bound,
                           simulate_paths, stationary_laplace_G,
                           stationary_log_G, tail_comparison,
                           tail_shape_witness, transform_I)
from .stepfun import StepFunction
from .transport import (DiscreteMeasure, TransportCertificate,
                        stochastic_dominance_check, w1_flow, w1_flow_batch,
                        w1_flow_certified, w1_line, w1_to_point)

__version__ = "0.1.0"

__all__ = [
    "BoundParams", "C0_of", "C_alpha_d0", "Cprime_alpha_d0", "CurvatureProfile",
    "DiscreteMeasure", "F_of", "GeodesicReport", "JumpProcessConfig",
    "MetricChain", "Phi_of", "StationaryResult", "StepFunction", "TailCurve",
    "TransportCertificate", "attraction_rho", "bound_princ", "bound_theorem1",
    "build_discrete_ou_chain", "build_mmk_chain", "check_epsilon_geodesic",
    "curvature_envelope", "curvature_profile", "empirical_tail",
    "epsilon_sweep", "kappa_pair", "load_chain", "local_curvature",
    "phi_of", "poissonian_tail_bound", "search_params", "simulate_paths",
    "stationary_birth_death", "stationary_cesaro", "stationary_laplace_G",
    "stationary_log_G", "stationary_power", "stochastic_dominance_check",
    "subgaussian_s2", "tail_comparison", "tail_shape_witness",
    "theorem1_params", "transform_I", "truncation_audit", "tv_distance",
    "w1_flow", "w1_flow_batch", "w1_flow_certified", "w1_line", "w1_to_point",
]
