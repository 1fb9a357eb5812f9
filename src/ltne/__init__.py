"""Sine-Galerkin simulator for 2-D couple-stress porous convection with two
temperatures (fluid/solid), plus runtime certificates that check the model's
a priori energy estimates along every computed trajectory.
"""

from .params import (Domain, Params, PhysicalParams, nondimensionalize,
                     poincare_constant)
from .spectral import (GridField, SpectralField, derivative_x, derivative_z,
                       dx_projection_matrix, eigenvalue_grid, grid_points,
                       inner_l2, jacobian, laplacian_eigenvalue, norm_grad,
                       norm_gradlap, norm_hk, norm_l2, norm_lap,
                       quadrature_weight, read_snapshot, tail_fraction,
                       to_grid, to_spectral, velocity_from_stream,
                       write_snapshot)
from .dynamics import (LinearOperator, State, Tangent, assemble_linear,
                       energy_identity_rhs, energy_pairing, rhs,
                       spectral_abscissa, state_norms, weak_residual)
from .integrator import StepperConfig, Trajectory, run
from .certificates import (CertificateConfig, CertificateConstants,
                           CertificateSuite, TrajectoryRecord,
                           check_continuous_dependence, check_decay,
                           check_dissipation_integral, check_energy_balance,
                           check_h1_absorbing, check_psi_absorbing,
                           compute_constants, energy_half, energy_y,
                           measured_decay_rate, replay_certificates,
                           summarize_records)
from .config import (ConfigError, RunConfig, build_config,
                     build_initial_state, config_hash, load_config)

__version__ = "0.1.0"

__all__ = [
    "CertificateConfig", "CertificateConstants", "CertificateSuite",
    "ConfigError", "Domain", "GridField", "LinearOperator", "Params",
    "PhysicalParams", "RunConfig", "SpectralField", "State", "StepperConfig",
    "Tangent", "Trajectory", "TrajectoryRecord", "assemble_linear",
    "build_config", "build_initial_state", "check_continuous_dependence",
    "check_decay", "check_dissipation_integral", "check_energy_balance",
    "check_h1_absorbing", "check_psi_absorbing", "compute_constants",
    "config_hash", "derivative_x", "derivative_z", "dx_projection_matrix",
    "eigenvalue_grid", "energy_half", "energy_identity_rhs", "energy_pairing",
    "energy_y", "grid_points", "inner_l2", "jacobian", "laplacian_eigenvalue",
    "load_config", "measured_decay_rate", "norm_grad", "norm_gradlap",
    "norm_hk", "norm_l2", "norm_lap", "nondimensionalize", "poincare_constant",
    "quadrature_weight", "read_snapshot", "replay_certificates", "rhs", "run",
    "spectral_abscissa", "state_norms", "summarize_records", "tail_fraction",
    "to_grid", "to_spectral", "velocity_from_stream", "weak_residual",
    "write_snapshot",
]
