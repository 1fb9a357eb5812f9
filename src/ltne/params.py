"""Physical and dimensionless parameters.

The dimensionless problem lives on (0, a) x (0, 1): depth normalized to 1,
aspect ratio a the single geometry parameter (`spectral.Domain` holds the
truncation on it).  Seven dimensionless groups (Ra, Pr, Da, C, lambda,
gamma, alpha) control the dynamics; they can be given directly or derived
from a physical parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Derived numbers above this are refused: they signal degenerate inputs
# (porosity near 1, vanishing conductivities) rather than a regime the
# solver should attempt.
_SANITY_CAP = 1e6


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional material and setup constants.

    rho0: reference density; eps: porosity; K: permeability; mu_f, mu_c:
    fluid and couple-stress viscosities; beta: thermal expansion; g: gravity;
    rhoc_f, rhoc_s: volumetric heat capacities of fluid and solid; kappa_f,
    kappa_s: conductivities; h: inter-phase heat transfer coefficient;
    T_l, T_u: lower/upper boundary temperatures.
    """

    rho0: float
    eps: float
    K: float
    mu_f: float
    mu_c: float
    beta: float
    g: float
    rhoc_f: float
    rhoc_s: float
    kappa_f: float
    kappa_s: float
    h: float
    T_l: float
    T_u: float

    def __post_init__(self):
        for name in ("rho0", "K", "mu_f", "mu_c", "beta", "g", "rhoc_f",
                     "rhoc_s", "kappa_f", "kappa_s", "h"):
            if not getattr(self, name) > 0:
                raise ValueError(f"physical parameter {name} must be > 0")
        if not 0 < self.eps < 1:
            raise ValueError("porosity eps must lie in (0, 1)")
        if not self.T_l > self.T_u:
            raise ValueError("T_l must exceed T_u (heated from below)")


@dataclass(frozen=True)
class Params:
    """The seven dimensionless numbers plus the aspect ratio.

    `lam` is the inter-phase transfer number (written lambda in configs).
    `conduction_coupling` switches on an extra +d(psi)/dx source in the
    temperature equation; it is off by default and is an extension beyond
    the homogeneous system the certificates are built for.
    """

    Ra: float
    Pr: float
    Da: float
    C: float
    lam: float
    gamma: float
    alpha: float
    a: float
    conduction_coupling: bool = False

    def __post_init__(self):
        for name in ("Ra", "Pr", "Da", "C", "lam", "gamma", "alpha", "a"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"parameter {name} must be finite and > 0")


def nondimensionalize(ph: PhysicalParams, a: float = 1.0) -> Params:
    """Map physical constants to the seven dimensionless numbers; a derived
    value above `_SANITY_CAP` is refused with a ValueError naming it."""
    Ra = (ph.rho0 * ph.g * ph.beta * (ph.T_l - ph.T_u) * ph.rhoc_f * ph.K
          / (ph.eps * ph.mu_f * ph.kappa_f))
    lam = ph.h / (ph.eps * ph.kappa_f)
    gamma = ph.eps * ph.kappa_f / ((1.0 - ph.eps) * ph.kappa_s)
    alpha = (ph.rhoc_s / ph.rhoc_f) * (ph.kappa_f / ph.kappa_s)
    Da = ph.K
    Pr = ph.mu_f * ph.eps * ph.rhoc_f / (ph.rho0 * ph.kappa_f)
    C = ph.mu_c / ph.mu_f
    for name, val in (("Ra", Ra), ("lambda", lam), ("gamma", gamma),
                      ("alpha", alpha), ("Da", Da), ("Pr", Pr), ("C", C)):
        if val > _SANITY_CAP:
            raise ValueError(
                f"derived number {name} = {val:.3g} exceeds the sanity cap "
                f"{_SANITY_CAP:.3g}; check the physical inputs")
    return Params(Ra=Ra, Pr=Pr, Da=Da, C=C, lam=lam, gamma=gamma,
                  alpha=alpha, a=a)


def poincare_constant(dom) -> float:
    """Sharp Poincare constant M_P = 1/lambda_1 on (0, a) x (0, 1).

    lambda_1 = pi^2 (1/a^2 + 1) is the lowest Dirichlet Laplacian eigenvalue
    magnitude, attained by the (1,1) sine mode, so ||u||^2 <= M_P ||grad u||^2
    holds with equality there.
    """
    return 1.0 / (math.pi ** 2 * (1.0 / dom.a ** 2 + 1.0))
