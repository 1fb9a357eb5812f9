"""Time integration of the spectral system with the stiff part implicit.

Default scheme `imex_cnab2`: Crank-Nicolson on the per-mode linear part (a
scalar solve for psi, a 2x2 solve for the theta-phi pair, both with
precomputed closed-form inverses) and 2nd-order Adams-Bashforth on the
explicit part (the Ra coupling and the Jacobian).  The first step has no
history and is one fully explicit RK2 (Heun) step.  `etd1` (exact per-mode
exponential, first-order on the explicit part) and `rk4_explicit` are
provided for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import Params
from .spectral import Domain, SpectralField, _jacobian_coeffs
from .dynamics import State, _rhs_arrays, assemble_linear

BLOWUP_NORM = 1e12


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    scheme: str = "imex_cnab2"
    sample_every: int = 1
    linear_only: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and > 0")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError("t_end must be finite and >= 0")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt must be a finite step count")
        nsteps = round(self.t_end / self.dt)
        if abs(nsteps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


@dataclass
class Trajectory:
    """Outcome of one run: the last sampled state (on blowup, the last one
    before it), the snapshots, and the failure if any.  The samples
    themselves go only to the `monitors` handed to `run`."""

    final: State
    snapshots: list[tuple[float, State]] = field(default_factory=list)
    failure: dict | None = None


def _sinhc(x: np.ndarray) -> np.ndarray:
    # sinh(x)/x, stable at 0 (the d -> 0 block degeneracy at lam -> 0, alpha=1)
    small = np.abs(x) < 1e-5
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


class _LinearImplicit:
    """What the linear-implicit schemes share: the assembled linear
    operator and the explicit part (Ra coupling, Jacobian, conduction)."""

    def __init__(self, p: Params, dom: Domain, dt: float, linear_only: bool):
        self.p, self.dom, self.dt = p, dom, dt
        self.linear_only = linear_only
        self.mu, self.D = dom.plan.mu, dom.plan.D
        self.L = assemble_linear(p, dom)

    def _explicit(self, cpsi, cth):
        p = self.p
        # grouped unlike `_rhs_arrays`; regrouping moves every CN/AB2 step
        n_psi = (p.Pr / p.Da) * p.Ra * (self.D @ cth) / self.mu
        n_th = np.zeros_like(cth)
        if not self.linear_only:
            n_th = n_th - _jacobian_coeffs(cpsi, cth, self.dom)
        if p.conduction_coupling:
            n_th = n_th + self.D @ cpsi
        return n_psi, n_th


class _Cnab2(_LinearImplicit):
    def __init__(self, p: Params, dom: Domain, dt: float, linear_only: bool):
        super().__init__(p, dom, dt, linear_only)
        L, h = self.L, dt / 2.0
        b11, b12, b21, b22 = L.b11, L.b12, L.b21, L.b22
        self.psi_num = 1.0 + h * L.lpsi
        self.psi_den = 1.0 - h * L.lpsi
        gdet = (1.0 - h * b11) * (1.0 - h * b22) - h * h * b12 * b21
        self.gi11 = (1.0 - h * b22) / gdet
        self.gi12 = h * b12 / gdet
        self.gi21 = h * b21 / gdet
        self.gi22 = (1.0 - h * b11) / gdet
        self.f11 = 1.0 + h * b11
        self.f12 = h * b12
        self.f21 = h * b21
        self.f22 = 1.0 + h * b22

    def _heun(self, c):
        f0 = _rhs_arrays(*c, self.p, self.dom, not self.linear_only)
        c1 = tuple(u + self.dt * du for u, du in zip(c, f0))
        f1 = _rhs_arrays(*c1, self.p, self.dom, not self.linear_only)
        return tuple(u + 0.5 * self.dt * (d0 + d1)
                     for u, d0, d1 in zip(c, f0, f1))

    def advance(self, c, hist):
        n_cur = self._explicit(c[0], c[1])
        if hist is None:
            return self._heun(c), n_cur
        ex_psi = 1.5 * n_cur[0] - 0.5 * hist[0]
        ex_th = 1.5 * n_cur[1] - 0.5 * hist[1]
        cpsi, cth, cph = c
        psi_new = (self.psi_num * cpsi + self.dt * ex_psi) / self.psi_den
        r_th = self.f11 * cth + self.f12 * cph + self.dt * ex_th
        r_ph = self.f21 * cth + self.f22 * cph
        th_new = self.gi11 * r_th + self.gi12 * r_ph
        ph_new = self.gi21 * r_th + self.gi22 * r_ph
        return (psi_new, th_new, ph_new), n_cur


class _Etd1(_LinearImplicit):
    def __init__(self, p: Params, dom: Domain, dt: float, linear_only: bool):
        super().__init__(p, dom, dt, linear_only)
        L = self.L
        b11, b12, b21, b22 = L.b11, L.b12, L.b21, L.b22
        self.epsi = np.exp(dt * L.lpsi)
        self.phi1_psi = np.expm1(dt * L.lpsi) / L.lpsi
        m = (b11 + b22) / 2.0
        d = np.sqrt(((b11 - b22) / 2.0) ** 2 + b12 * b21)  # >= 0, real here
        emh = np.exp(m * dt)
        ch = np.cosh(d * dt)
        sc = dt * _sinhc(d * dt)
        self.E11 = emh * (ch + (b11 - m) * sc)
        self.E12 = emh * b12 * sc
        self.E21 = emh * b21 * sc
        self.E22 = emh * (ch + (b22 - m) * sc)
        det = b11 * b22 - b12 * b21
        self.P11 = (b22 * (self.E11 - 1.0) - b12 * self.E21) / det
        self.P21 = (-b21 * (self.E11 - 1.0) + b11 * self.E21) / det

    def advance(self, c, hist):
        n_psi, n_th = self._explicit(c[0], c[1])
        cpsi, cth, cph = c
        psi_new = self.epsi * cpsi + self.phi1_psi * n_psi
        th_new = self.E11 * cth + self.E12 * cph + self.P11 * n_th
        ph_new = self.E21 * cth + self.E22 * cph + self.P21 * n_th
        return (psi_new, th_new, ph_new), None


class _Rk4:
    def __init__(self, p: Params, dom: Domain, dt: float, linear_only: bool):
        self.p, self.dom, self.dt = p, dom, dt
        self.nonlinear = not linear_only

    def advance(self, c, hist):
        f = lambda u: _rhs_arrays(*u, self.p, self.dom, self.nonlinear)
        h = self.dt
        k1 = f(c)
        k2 = f(tuple(u + 0.5 * h * k for u, k in zip(c, k1)))
        k3 = f(tuple(u + 0.5 * h * k for u, k in zip(c, k2)))
        k4 = f(tuple(u + h * k for u, k in zip(c, k3)))
        new = tuple(u + h / 6.0 * (a + 2 * b + 2 * cc + d)
                    for u, a, b, cc, d in zip(c, k1, k2, k3, k4))
        return new, None


_STEPPERS = {"imex_cnab2": _Cnab2, "etd1": _Etd1, "rk4_explicit": _Rk4}
SCHEMES = tuple(_STEPPERS)


def _blowup(c, dom: Domain, t: float) -> dict | None:
    """The failure of a run whose state at time t has left the
    representable range (a non-finite coefficient or a field norm above
    BLOWUP_NORM), or None.  The summed squared norms bound each field's and
    are NaN or inf with any of them, so one comparison clears a sound state;
    only a failing one is searched for the field to name."""
    if dom.a / 4.0 * sum(np.vdot(u, u) for u in c) <= BLOWUP_NORM ** 2:
        return None
    for name, arr in zip(("psi", "theta", "phi"), c):
        ss = float(np.sum(arr * arr))
        if not np.isfinite(ss):
            detail = "non-finite coefficients"
        elif dom.a / 4.0 * ss > BLOWUP_NORM ** 2:
            detail = f"norm exceeded {BLOWUP_NORM:.0e}"
        else:
            continue
        return {"t": t, "field": name, "error": "integration blew up at "
                f"t={t:.6g} in field {name} ({detail})"}
    return None


def _snapshot_step(ts: float, cfg: StepperConfig) -> int:
    """The step at which snapshot time `ts` falls; a ValueError unless it
    lies on the step grid in [0, t_end]."""
    k = int(round(ts / cfg.dt))
    if abs(k * cfg.dt - ts) > 1e-9 * max(1.0, abs(ts)) or \
            not 0 <= k <= round(cfg.t_end / cfg.dt):
        raise ValueError(f"snapshot time {ts} is not step-aligned in [0, t_end]")
    return k


def run(s0: State, p: Params, cfg: StepperConfig, monitors=None,
        snapshot_times: tuple[float, ...] = ()) -> Trajectory:
    """Integrate to t_end, sampling every `sample_every` steps (the final
    state is always sampled) and calling `monitors.on_sample(t, c, c_pre,
    dt)` per sample: c is the stepper's tuple of coefficient arrays (psi,
    theta, phi) at time t, c_pre the tuple one step earlier (None at the
    initial sample).  Nothing else keeps the samples.  `run` never writes
    into an array once handed out, so a monitor may keep the arrays or key
    on their identity; at sample_every=1 each c_pre is the last sample's c.
    `Trajectory.final` and the snapshots are the only States `run` builds,
    through the validating constructors, on the arrays handed out.

    Snapshot times must lie on the step grid in [0, t_end], as
    `_snapshot_step` checks (the CLI checks them before it opens any
    file); each one is also an integrator restart barrier (the multistep
    history is dropped there), so a run resumed from a written snapshot
    continues bit-identically to the original.  On blowup the partial trajectory is returned with `failure`
    set instead of raising.
    """
    dom = s0.dom
    nsteps = int(round(cfg.t_end / cfg.dt))
    snap_steps = {_snapshot_step(ts, cfg) for ts in snapshot_times}

    stepper = _STEPPERS[cfg.scheme](p, dom, cfg.dt, cfg.linear_only)

    def sample(t, c, c_pre):
        if monitors is not None:
            monitors.on_sample(t, c, c_pre, cfg.dt)
        return t, c

    c = (s0.psi.coeffs.copy(), s0.theta.coeffs.copy(), s0.phi.coeffs.copy())
    last = sample(s0.t, c, None)
    snaps = [last] if 0 in snap_steps else []
    hist = failure = None
    for k in range(1, nsteps + 1):
        c_before = c
        c, hist = stepper.advance(c, hist)
        t = s0.t + k * cfg.dt
        failure = _blowup(c, dom, t)
        if failure is not None:
            break
        if k % cfg.sample_every == 0 or k == nsteps:
            last = sample(t, c, c_before)
        if k in snap_steps:
            snaps.append((t, c))
            hist = None  # restart barrier: resumed runs reproduce exactly

    def state(t, c):
        return State(*(SpectralField(u, dom) for u in c), t)

    return Trajectory(state(*last), [(t, state(t, c)) for t, c in snaps],
                      failure)
