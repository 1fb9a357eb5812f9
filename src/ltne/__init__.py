"""Sine-Galerkin simulator for 2-D couple-stress porous convection with two
temperatures (fluid/solid), plus runtime certificates that check the model's
a priori energy estimates along every computed trajectory.
"""

from .params import (Params, PhysicalParams, nondimensionalize,
                     poincare_constant)
from .spectral import (Domain, GridField, SpectralField, jacobian,
                       read_snapshot, to_grid, to_spectral, write_snapshot)
from .dynamics import (LinearOperator, State, assemble_linear, rhs,
                       spectral_abscissa, state_norms)
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
    "Trajectory", "TrajectoryRecord", "assemble_linear", "build_config",
    "build_initial_state", "check_continuous_dependence", "check_decay",
    "check_dissipation_integral", "check_energy_balance",
    "check_h1_absorbing", "check_psi_absorbing", "compute_constants",
    "config_hash", "energy_half", "energy_y", "jacobian", "load_config",
    "measured_decay_rate", "nondimensionalize", "poincare_constant",
    "read_snapshot", "replay_certificates", "rhs", "run",
    "spectral_abscissa", "state_norms", "summarize_records", "to_grid",
    "to_spectral", "write_snapshot",
]
