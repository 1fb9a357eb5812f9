"""Right-hand side of the spectral ODE system, its linear part, its energy
identity.

Per mode (m, n) with mu the Laplacian eigenvalue, the evolved system is

    d psi_mn /dt = (Pr/Da) [ (C mu - 1) psi_mn + Ra (D theta)_mn / mu ]
    d theta_mn/dt = mu theta_mn + lam (phi_mn - theta_mn) - P(J(psi, theta))_mn
    d phi_mn  /dt = ( mu phi_mn + gamma lam (theta_mn - phi_mn) ) / alpha

where D is the exact sine projection of d/dx and the 1/mu factor applies the
inverse Laplacian after the curl.  The linear part is block-triangular: the
theta-phi pair feeds psi through the Ra coupling, nothing feeds back, so its
spectrum is the union of the per-mode spectra (2x2 blocks and psi multipliers).
With `conduction_coupling` on, a +D psi source enters the theta equation and
that triangular structure is lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Params
from .spectral import Domain, SpectralField, _jacobian_coeffs


@dataclass(frozen=True)
class State:
    psi: SpectralField
    theta: SpectralField
    phi: SpectralField
    t: float = 0.0

    def __post_init__(self):
        if not (self.psi.dom == self.theta.dom == self.phi.dom):
            raise ValueError("state fields live on different domains")

    @property
    def dom(self) -> Domain:
        return self.psi.dom


# The squared norms every certificate consumes, in `_sq_norms` order: psi
# weighted by |mu|^k for k = 1, 2, 3, then theta and phi for k = 0, 1.
NORMS = ("grad_psi_sq", "lap_psi_sq", "gradlap_psi_sq", "theta_sq",
         "grad_theta_sq", "phi_sq", "grad_phi_sq")


def _stack(s: State) -> np.ndarray:
    return np.stack((s.psi.coeffs, s.theta.coeffs, s.phi.coeffs))


def _sq_norms(C: np.ndarray, dom: Domain, work=None) -> dict:
    """The NORMS of the stacked coefficients C = [psi, theta, phi] of shape
    (3, Nx, Nz): one np.square, then each field's |mu|^k rows times its
    squares, summed by row: each value is (a/4) sum |mu|^k c^2 of one
    field, in the element order w * c**2 and with numpy's pairwise sum
    over its K = Nx Nz modes.  `work` is a pair of buffers of shapes
    (3, K) and (7, K) for callers that must not allocate them per call."""
    sq, prod = work or (None, np.empty((len(NORMS), C[0].size)))
    sq = np.square(C.reshape(3, -1), out=sq)
    w = dom.plan.hk_rows
    np.multiply(w[1:], sq[0], out=prod[:3])
    np.multiply(w[:2], sq[1:, None], out=prod[3:].reshape(2, 2, -1))
    return dict(zip(NORMS, (dom.a / 4.0 * prod.sum(axis=1)).tolist()))


def state_norms(s: State) -> dict:
    """The squared norms every certificate consumes, in one pass."""
    return _sq_norms(_stack(s), s.dom)


def _check(p: Params, dom: Domain):
    if p.a != dom.a:
        raise ValueError(f"aspect mismatch: Params a={p.a}, Domain a={dom.a}")


def _explicit(c: np.ndarray, p: Params, dom: Domain,
              include_jacobian: bool = True) -> np.ndarray:
    """The terms the linear-implicit schemes treat explicitly, of the
    stacked coefficients c = [psi, theta, phi]: the Ra coupling of the psi
    equation, then -J(psi, theta) and the conduction source D psi of the
    theta equation; shape (2, Nx, Nz).  The only definition of all three."""
    mu, D = dom.plan.mu, dom.plan.D
    n = np.zeros((2,) + c.shape[1:])
    n[0] = p.Pr / p.Da * p.Ra * (D @ c[1]) / mu
    if include_jacobian:
        np.negative(_jacobian_coeffs(c[:2], dom, out=n[1]), out=n[1])
    if p.conduction_coupling:
        n[1] += D @ c[0]
    return n


def _rhs_arrays(c: np.ndarray, p: Params, dom: Domain,
                include_jacobian: bool = True) -> np.ndarray:
    """Time derivative of the stacked coefficients c = [psi, theta, phi]
    (leading axis 3; further leading axes batch): the per-mode linear
    terms plus `_explicit`."""
    mu = dom.plan.mu
    cpsi, cth, cph = c
    out = np.empty(c.shape)
    np.multiply((p.Pr / p.Da) * (p.C * mu - 1.0), cpsi, out=out[0])
    out[1] = mu * cth + p.lam * (cph - cth)
    out[2] = (mu * cph + p.gamma * p.lam * (cth - cph)) / p.alpha
    out[:2] += _explicit(c, p, dom, include_jacobian)
    return out


def rhs(s: State, p: Params, include_jacobian: bool = True) -> np.ndarray:
    """Time derivative of a state, as one (3, Nx, Nz) array of the
    coefficients [dpsi, dtheta, dphi].  `include_jacobian=False` drops the
    nonlinearity, leaving the linear part, whose coefficients
    `assemble_linear` reads off this function bit for bit."""
    _check(p, s.dom)
    return _rhs_arrays(_stack(s), p, s.dom, include_jacobian)


@dataclass(frozen=True)
class LinearOperator:
    """Linear part of the system for one (Params, Domain) pair: the
    right-hand side with the Jacobian dropped,
    `rhs(..., include_jacobian=False)`, whose coefficients it holds bit
    for bit.  CN/AB2 and ETD1 apply them in another float grouping, so
    their action agrees with `rhs` to rounding.  `dense()` is its matrix.

    lpsi: per-mode psi multipliers (Pr/Da)(C mu - 1), all negative.
    b11..b22: entries of the per-mode theta-phi blocks
    [[mu - lam, lam], [gamma lam / alpha, (mu - gamma lam)/alpha]]
    (b12, b21 are mode-independent scalars).  Without conduction coupling
    these closed-form blocks and lpsi carry the whole spectrum.
    """

    dom: Domain
    p: Params
    lpsi: np.ndarray
    b11: np.ndarray
    b12: float
    b21: float
    b22: np.ndarray

    def block_eigenvalues(self) -> np.ndarray:
        """(Nx, Nz, 2) complex eigenvalues of the theta-phi blocks."""
        tr = self.b11 + self.b22
        det = self.b11 * self.b22 - self.b12 * self.b21
        disc = (tr / 2.0) ** 2 - det
        root = np.sqrt(disc.astype(complex))
        return np.stack([tr / 2.0 + root, tr / 2.0 - root], axis=-1)

    def dense(self) -> np.ndarray:
        """Matrix of the integrated linear right-hand side: (3K, 3K),
        K = Nx*Nz, ordering [psi; theta; phi], each block flattened
        row-major.  Column j is `_rhs_arrays` without the Jacobian applied
        to the j-th unit state.  For small-N spectrum checks."""
        dom, K = self.dom, self.dom.Nx * self.dom.Nz
        E = np.eye(3 * K).reshape(3 * K, 3, dom.Nx, dom.Nz)
        cols = _rhs_arrays(np.moveaxis(E, 1, 0), self.p, dom, False)
        return np.moveaxis(cols, 0, 1).reshape(3 * K, 3 * K).T


def assemble_linear(p: Params, dom: Domain) -> LinearOperator:
    """The linear operator's coefficients, read off `_rhs_arrays` without
    the Jacobian at the three unit states (one field 1 in every mode, the
    others 0): column j of the result is the derivative at unit state j."""
    _check(p, dom)
    units = np.broadcast_to(np.eye(3)[:, :, None, None],
                            (3, 3, dom.Nx, dom.Nz))
    (lpsi, _, _), (_, b11, b12), (_, b21, b22) = _rhs_arrays(units, p, dom,
                                                             False)
    return LinearOperator(dom, p, lpsi, b11, b12.item(0), b21.item(0), b22)


_DENSE_ABSCISSA_CAP = 256


def spectral_abscissa(L: LinearOperator) -> float:
    """Largest real part over the operator's spectrum.

    Without conduction coupling the operator is block-triangular, so this is
    max over modes of max(Re eig(2x2 block), lpsi).  With conduction on the
    triangular structure is gone and a dense eigensolve is used, which is only
    allowed at small truncations.
    """
    if L.p.conduction_coupling:
        K = L.dom.Nx * L.dom.Nz
        if K > _DENSE_ABSCISSA_CAP:
            raise ValueError(
                "spectral_abscissa with conduction_coupling needs a dense "
                f"eigensolve; refusing at Nx*Nz = {K} > {_DENSE_ABSCISSA_CAP}")
        return float(np.max(np.linalg.eigvals(L.dense()).real))
    eigs = L.block_eigenvalues()
    return float(max(np.max(eigs.real), np.max(L.lpsi)))


def _energy_identity_rhs(C, p: Params, dom: Domain, n: dict) -> float:
    """Closed-form value of (1/2) dE_Y/dt along `rhs` at the stacked
    coefficients C = [psi, theta, phi], given their squared norms `n`.  It
    pairs the derivative with the state as (Da/Pr)<lap dpsi, lap psi> +
    <dtheta, theta> + alpha <dphi, phi>: -C||grad lap psi||^2
    - ||lap psi||^2 - ||grad theta||^2 - ||grad phi||^2 - lam||theta||^2
    - gamma lam||phi||^2 - Ra <theta, d(lap psi)/dx>
    + (lam + gamma lam)<phi, theta> (plus the conduction source term when
    that switch is on).  The Jacobian contributes nothing by skew-symmetry."""
    _check(p, dom)
    mu, D = dom.plan.mu, dom.plan.D
    a4 = dom.a / 4.0
    cpsi, cth, cph = C
    cross = a4 * np.sum(cth * (D @ (mu * cpsi)))   # <theta, d(lap psi)/dx>
    thph = a4 * np.sum(cth * cph)
    out = (-p.C * n["gradlap_psi_sq"] - n["lap_psi_sq"] - n["grad_theta_sq"]
           - n["grad_phi_sq"] - p.lam * n["theta_sq"]
           - p.gamma * p.lam * n["phi_sq"]
           - p.Ra * cross + (p.lam + p.gamma * p.lam) * thph)
    if p.conduction_coupling:
        out += a4 * np.sum((D @ cpsi) * cth)
    return float(out)
