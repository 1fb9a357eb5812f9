"""Sine-basis fields on (0, a) x (0, 1): the truncation (`Domain`) and the
matrices it owns (`Plan`: grid transforms, the exact d/dx projection,
|mu|^k weights), the dealiased Jacobian, H^k seminorms, snapshot files.

Every scalar field is u(x, z) = sum_{m=1..Nx, n=1..Nz} u_mn sin(m pi x / a)
sin(n pi z), which vanishes on the boundary by construction.  Coefficients are
stored as an (Nx, Nz) array with u_mn at [m-1, n-1]; flattened views are
row-major (m outer).

Conventions and the two exactness facts everything else leans on:

* Parseval with plain (non-normalized) sine products: ||u||^2 = (a/4) sum u_mn^2,
  and each Laplacian application multiplies mode (m, n) by
  mu_mn = -((m pi / a)^2 + (n pi)^2), so the H^k-level seminorms are
  (a/4) sum |mu|^k u_mn^2.

* Collocation uses the Mx x Mz interior grid x_j = j a / Px (Px = Mx + 1),
  z_k = k / Pz.  The discrete orthogonality
  sum_{j=1}^{P-1} sin(pi m j / P) sin(pi m' j / P) = (P/2) delta_mm'
  holds for 1 <= m, m' <= P - 1, so analysis of any function that *is* a sine
  polynomial of band <= P - 1 recovers its coefficients exactly.  Quadratic
  products of retained modes have band <= 2N.  On P points a mode k with
  P < k < 2P analyses onto mode 2P - k, which is retained (<= N) for some
  k <= 2N only if 2P <= 3N.  Hence with 2(M + 1) > 3N, the 3/2 rule
  (Orszag's 2/3 rule), the pseudo-spectral Jacobian below is the exact
  Galerkin projection: the retained modes see no aliasing, and the
  skew-symmetry identity holds to roundoff.  From M >= 2N + 1 on no mode
  aliases at all.

A cosine series (an x-derivative) sampled on this grid is *not* recovered
exactly by sine analysis; the exact projection of d/dx is `Plan.D` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Domain:
    """Spectral truncation and collocation sizes on (0, a) x (0, 1).

    Nx, Nz: retained sine modes per direction.  Mx, Mz: interior collocation
    points; 2 (Mx + 1) > 3 Nx (and likewise in z) makes the projection of
    quadratic products onto the retained modes exact, which the dealiasing
    contract relies on.  0 means the smallest such grid, Mx = 3 Nx // 2.
    `plan` holds the truncation's matrices, built on first use.
    """

    a: float
    Nx: int
    Nz: int
    Mx: int = 0
    Mz: int = 0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("aspect ratio a must be > 0")
        if self.Nx < 1 or self.Nz < 1:
            raise ValueError("Nx and Nz must be >= 1")
        if self.Mx == 0:
            object.__setattr__(self, "Mx", 3 * self.Nx // 2)
        if self.Mz == 0:
            object.__setattr__(self, "Mz", 3 * self.Nz // 2)
        if 2 * (self.Mx + 1) <= 3 * self.Nx \
                or 2 * (self.Mz + 1) <= 3 * self.Nz:
            raise ValueError(
                "collocation sizes must satisfy 2(Mx+1) > 3Nx, 2(Mz+1) > 3Nz "
                f"(got Mx={self.Mx}, Nx={self.Nx}, Mz={self.Mz}, Nz={self.Nz})")

    @cached_property
    def plan(self) -> Plan:
        return Plan(self)


class Plan:
    """The matrices of one Domain's truncation.

    Sx, Sz: sine synthesis, Sx[j-1, m-1] = sin(pi m j / Px), so coefficients
    C have grid values Sx @ C @ Sz.T and grid values V analyse back to
    scale * (Sx.T @ V @ Sz).  Cx, Cz: cosine evaluation with the derivative
    factor folded in.  mu: the (Nx, Nz) Laplacian eigenvalues mu_mn.  D: the
    (Nx, Nx) exact sine projection of d/dx acting on the m-index, so
    (D @ c)[m'-1, :] are the coefficients of the projection of du/dx; it
    couples only modes of opposite parity.  hk_rows: |mu|^k for k = 0..3
    on the flattened modes, shape (4, Nx Nz).

    The Jacobian multiplies by contiguous copies of the transposes (SxT,
    SzT, CzT) and writes every intermediate into work arrays the Plan
    owns, so a call allocates only its result.  Those buffers make one
    Domain's `jacobian` unsafe to call from two threads at once.
    """

    def __init__(self, dom: Domain):
        a, Nx, Nz, Mx, Mz = dom.a, dom.Nx, dom.Nz, dom.Mx, dom.Mz
        Px, Pz = Mx + 1, Mz + 1
        jx = np.arange(1, Mx + 1)
        jz = np.arange(1, Mz + 1)
        mm = np.arange(1, Nx + 1)
        nn = np.arange(1, Nz + 1)
        self.Sx = np.sin(np.pi * np.outer(jx, mm) / Px)
        self.Sz = np.sin(np.pi * np.outer(jz, nn) / Pz)
        kx = mm * np.pi / a
        kz = nn * np.pi
        self.Cx = np.cos(np.pi * np.outer(jx, mm) / Px) * kx
        self.Cz = np.cos(np.pi * np.outer(jz, nn) / Pz) * kz
        self.scale = 4.0 / (Px * Pz)
        self.mu = -(kx[:, None] ** 2 + kz[None, :] ** 2)
        # target m', source m: 4 m m' / (a (m'^2 - m^2)) for m + m' odd
        mp = mm[:, None]
        ms = mm[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.D = 4.0 * ms * mp / (a * (mp ** 2 - ms ** 2))
        self.D[(mp + ms) % 2 == 0] = 0.0
        self.hk_rows = np.stack([self.weight(k).ravel() for k in range(4)])
        self.SxT, self.SzT, self.CzT = (np.ascontiguousarray(m.T)
                                        for m in (self.Sx, self.Sz, self.Cz))
        # [psi, theta] times SzT, then CzT; their x and z derivatives on
        # the grid; the analysis's half step
        self._zs = np.empty((2, 2, Nx, Mz))
        self._grid = np.empty((2, 2, Mx, Mz))
        self._half = np.empty((Nx, Mz))

    def weight(self, k: int, name: str = "k") -> np.ndarray:
        """|mu|^k on the (Nx, Nz) mode grid.  A k for which it overflows at
        the largest mode is refused with a ValueError naming it `name`."""
        with np.errstate(over="ignore"):
            w = (-self.mu) ** k
        if not np.isfinite(w[-1, -1]):
            raise ValueError(f"{name} {k} out of range: |mu|^k overflows at "
                             f"mode {w.shape}")
        return w


@dataclass(frozen=True)
class SpectralField:
    """Sine coefficients of one scalar field."""

    coeffs: np.ndarray
    dom: Domain

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.dom.Nx, self.dom.Nz):
            raise ValueError(
                f"coefficient shape {c.shape} does not match domain "
                f"({self.dom.Nx}, {self.dom.Nz})")
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(dom: Domain) -> "SpectralField":
        return SpectralField(np.zeros((dom.Nx, dom.Nz)), dom)


@dataclass(frozen=True)
class GridField:
    """Values on the interior collocation grid."""

    values: np.ndarray
    dom: Domain

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.dom.Mx, self.dom.Mz):
            raise ValueError(
                f"grid shape {v.shape} does not match domain "
                f"({self.dom.Mx}, {self.dom.Mz})")
        object.__setattr__(self, "values", v)


def laplacian_eigenvalue(m: int, n: int, a: float) -> float:
    """mu_mn = -((m pi / a)^2 + (n pi)^2) for the (m, n) sine mode."""
    if m < 1 or n < 1 or a <= 0:
        raise ValueError("need m, n >= 1 and a > 0")
    return -((m * np.pi / a) ** 2 + (n * np.pi) ** 2)


def _check_same_domain(u: SpectralField, v: SpectralField):
    if u.dom != v.dom:
        raise ValueError("fields live on different domains")


def to_grid(u: SpectralField) -> GridField:
    p = u.dom.plan
    return GridField(p.Sx @ u.coeffs @ p.Sz.T, u.dom)


def to_spectral(v: GridField) -> SpectralField:
    p = v.dom.plan
    return SpectralField(p.scale * (p.Sx.T @ v.values @ p.Sz), v.dom)


def jacobian(psi: SpectralField, theta: SpectralField) -> SpectralField:
    """Galerkin projection of J(psi, theta) = psi_x theta_z - psi_z theta_x.

    Each product is odd x odd in both directions, i.e. a sine polynomial of
    band <= 2N, so with the Domain invariant 2(M + 1) > 3N the grid
    analysis returns the exact projection onto the retained modes.  The
    result is a fresh array: no later call writes into it.
    """
    _check_same_domain(psi, theta)
    return SpectralField(_jacobian_coeffs(
        np.stack((psi.coeffs, theta.coeffs)), psi.dom), psi.dom)


def _jacobian_coeffs(c: np.ndarray, dom: Domain, out=None) -> np.ndarray:
    """`jacobian` on the stacked coefficients c = [psi, theta], shape
    (2, Nx, Nz): the product of the grid derivatives, analysed back to sine
    coefficients, written into `out` if given, else into a fresh array.
    Every intermediate goes into the Plan's work arrays through `out=`."""
    p = dom.plan
    rows = c.reshape(2 * dom.Nx, dom.Nz)
    zs, g = p._zs, p._grid
    np.matmul(rows, p.SzT, out=zs[0].reshape(2 * dom.Nx, dom.Mz))
    np.matmul(rows, p.CzT, out=zs[1].reshape(2 * dom.Nx, dom.Mz))
    np.matmul(p.Cx, zs[0], out=g[0])    # psi_x, theta_x
    np.matmul(p.Sx, zs[1], out=g[1])    # psi_z, theta_z
    prod = np.multiply(g[0, 0], g[1, 1], out=g[0, 0])
    prod -= np.multiply(g[1, 0], g[0, 1], out=g[1, 0])
    np.matmul(p.SxT, prod, out=p._half)
    out = np.matmul(p._half, p.Sz, out=out)
    out *= p.scale
    return out


def norm_hk(u: SpectralField, k: int) -> float:
    """Spectral H^k seminorm: ((a/4) sum |mu|^k u_mn^2)^(1/2); k = 0, 1, 2, 3
    give the L2, gradient, Laplacian and gradient-Laplacian norms."""
    if k < 0:
        raise ValueError("k must be >= 0")
    dom = u.dom
    return np.sqrt(dom.a / 4.0 * np.sum(dom.plan.weight(k) * u.coeffs ** 2))


def _tail_fractions(C: np.ndarray, w: np.ndarray, cutoff: int,
                    out=None) -> list[float]:
    """The tail fraction of each field of the stack C, shape (F, Nx, Nz),
    under the weights w: the share of sum w c^2 in the modes outside the
    leading cutoff x cutoff block, 0 for a zero field.  The products
    (w * c) * c go into `out` if given, and the head block is copied to
    contiguous memory (by the reshape) before it is summed, so a field's
    fraction does not depend on the stack it is in."""
    P = np.multiply(w, C, out=out)
    P *= C
    total = P.reshape(len(C), -1).sum(axis=1).tolist()
    head = P[:, :cutoff, :cutoff].reshape(len(C), -1).sum(axis=1).tolist()
    return [(t - h) / t if t != 0.0 else 0.0 for t, h in zip(total, head)]


def tail_fraction(u: SpectralField, k: int, cutoff: int) -> float:
    """Share of the |mu|^k-weighted energy in modes with m > cutoff or
    n > cutoff; 0 for the zero field."""
    if not 1 <= cutoff < min(u.dom.Nx, u.dom.Nz):
        raise ValueError("need 1 <= cutoff < min(Nx, Nz)")
    return _tail_fractions(u.coeffs[None], u.dom.plan.weight(k), cutoff)[0]


# -- snapshot files ----------------------------------------------------------
#
# Plain text: a header line `LTNE-SNAP v1 Nx Nz a t`, then for each of the
# three fields a `FIELD psi|theta|phi` marker followed by Nx*Nz lines
# `m n value` in row-major order.  %.17g keeps float64 round trips exact.

SNAP_MAGIC = "LTNE-SNAP"
_FIELD_ORDER = ("psi", "theta", "phi")


def write_snapshot(path, psi: SpectralField, theta: SpectralField,
                   phi: SpectralField, t: float):
    _check_same_domain(psi, theta)
    _check_same_domain(psi, phi)
    dom = psi.dom
    lines = [f"{SNAP_MAGIC} v1 {dom.Nx} {dom.Nz} {dom.a:.17g} {t:.17g}"]
    for name, f in zip(_FIELD_ORDER, (psi, theta, phi)):
        lines.append(f"FIELD {name}")
        for i in range(dom.Nx):
            for j in range(dom.Nz):
                lines.append(f"{i + 1} {j + 1} {f.coeffs[i, j]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path):
    """Returns (psi, theta, phi, t) on a Domain with the default collocation
    sizes, which the file does not store.  A header whose `a` or `t` is not
    finite is refused like one that does not parse."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ValueError(f"{path}: empty snapshot file")
    head = lines[0].split()
    try:
        if len(head) != 6 or head[0] != SNAP_MAGIC or head[1] != "v1":
            raise ValueError
        Nx, Nz = int(head[2]), int(head[3])
        a, t = float(head[4]), float(head[5])
        if not np.isfinite((a, t)).all():
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{path}: not a v1 snapshot (header {lines[0]!r})") from None
    dom = Domain(a=a, Nx=Nx, Nz=Nz)
    fields = {}
    pos = 1
    for name in _FIELD_ORDER:
        if pos >= len(lines) or lines[pos] != f"FIELD {name}":
            raise ValueError(f"{path}:{pos + 1}: expected 'FIELD {name}'")
        pos += 1
        c = np.zeros((Nx, Nz))
        for i in range(Nx):
            for j in range(Nz):
                if pos >= len(lines):
                    raise ValueError(f"{path}: truncated in field {name}")
                parts = lines[pos].split()
                try:
                    if len(parts) != 3 or int(parts[0]) != i + 1 \
                            or int(parts[1]) != j + 1:
                        raise ValueError
                    c[i, j] = float(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{pos + 1}: expected coefficient "
                        f"({i + 1}, {j + 1})") from None
                pos += 1
        fields[name] = SpectralField(c, dom)
    return fields["psi"], fields["theta"], fields["phi"], t
