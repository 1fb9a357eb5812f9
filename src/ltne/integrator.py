"""Time integration of the spectral system with the stiff part implicit.

Default scheme `imex_cnab2`: Crank-Nicolson on the per-mode linear part (a
scalar solve for psi, a 2x2 solve for the theta-phi pair, both with
precomputed closed-form inverses) and 2nd-order Adams-Bashforth on the
explicit part (the Ra coupling and the Jacobian).  The first step, and
the first after every snapshot barrier, has no history and is one fully
explicit RK2 (Heun) step: it multiplies a mode with z = dt |rate| by
|1 - z + z^2/2|, which is 8.7 at N=16 and 185 at N=32 for the stiffest
mode at default parameters and dt = 1e-3.  `etd1` (exact per-mode
exponential, first-order on the explicit part; no start-up step) and
`rk4_explicit` are provided for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import Params
from .spectral import _FIELD_ORDER, Domain, SpectralField
from .dynamics import (State, _explicit, _rhs_arrays, _stack,
                       assemble_linear)

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


class _Stepper:
    """One scheme: `advance(c, hist)` steps a stack c = [psi, theta, phi]
    of shape (3, Nx, Nz) by dt and returns it with the scheme's history.
    A linear-implicit scheme has one per-mode update,

        new = diag c + cross [theta, phi] swapped + b [n_psi, n_th, n_th],

    whose coefficients its `_precombine(dt, lpsi, b11, b12, b21, b22)`
    sets from the linear operator's: `diag` (3, Nx, Nz), `cross`
    (2, Nx, Nz) for the off-diagonal entries of the theta-phi blocks, and
    `b` (3, Nx, Nz) for the explicit terms n."""

    _precombine = None      # an explicit scheme

    def __init__(self, p: Params, dom: Domain, dt: float, linear_only: bool):
        self.p, self.dom, self.dt = p, dom, dt
        self.nonlinear = not linear_only
        if self._precombine is not None:
            L = assemble_linear(p, dom)
            self._precombine(dt, L.lpsi, L.b11, L.b12, L.b21, L.b22)

    def _update(self, c, n):
        new = self.diag * c
        new[1:] += self.cross * c[:0:-1]
        new[0] += self.b[0] * n[0]
        new[1:] += self.b[1:] * n[1]
        return new


class _Cnab2(_Stepper):
    """Crank-Nicolson on the linear part, (I - hL)^{-1} (I + hL) with
    h = dt/2, and AB2 on the explicit part, 1.5 n - 0.5 n_prev taken as
    0.5 (3 n - n_prev) through dt (I - hL)^{-1}."""

    def _precombine(self, dt, lpsi, b11, b12, b21, b22):
        h = dt / 2.0
        gdet = (1.0 - h * b11) * (1.0 - h * b22) - h * h * b12 * b21
        # (I - hL)^{-1}: its diagonal, then the blocks' off-diagonal entries
        inv = np.stack((1.0 / (1.0 - h * lpsi), (1.0 - h * b22) / gdet,
                        (1.0 - h * b11) / gdet))
        off = np.stack((h * b12 / gdet, h * b21 / gdet))
        # (I - hL)^{-1} (I + hL) = 2 (I - hL)^{-1} - I
        self.diag, self.cross = 2.0 * inv - 1.0, 2.0 * off
        self.b = h * np.stack((inv[0], inv[1], off[1]))

    def _heun(self, c):
        f0 = _rhs_arrays(c, self.p, self.dom, self.nonlinear)
        f1 = _rhs_arrays(c + self.dt * f0, self.p, self.dom, self.nonlinear)
        return c + 0.5 * self.dt * (f0 + f1)

    def advance(self, c, hist):
        n = _explicit(c, self.p, self.dom, self.nonlinear)
        if hist is None:
            return self._heun(c), n
        return self._update(c, 3.0 * n - hist), n


class _Etd1(_Stepper):
    def _precombine(self, dt, lpsi, b11, b12, b21, b22):
        m = (b11 + b22) / 2.0
        d = np.sqrt(((b11 - b22) / 2.0) ** 2 + b12 * b21)  # >= 0, real here
        emh = np.exp(m * dt)
        ch = np.cosh(d * dt)
        sc = dt * _sinhc(d * dt)
        E11 = emh * (ch + (b11 - m) * sc)
        E21 = emh * b21 * sc
        self.diag = np.stack((np.exp(dt * lpsi), E11,
                              emh * (ch + (b22 - m) * sc)))
        self.cross = np.stack((emh * b12 * sc, E21))
        det = b11 * b22 - b12 * b21
        self.b = np.stack((np.expm1(dt * lpsi) / lpsi,
                           (b22 * (E11 - 1.0) - b12 * E21) / det,
                           (-b21 * (E11 - 1.0) + b11 * E21) / det))

    def advance(self, c, hist):
        return self._update(
            c, _explicit(c, self.p, self.dom, self.nonlinear)), None


class _Rk4(_Stepper):
    def advance(self, c, hist):
        f = lambda u: _rhs_arrays(u, self.p, self.dom, self.nonlinear)
        h = self.dt
        k1 = f(c)
        k2 = f(c + 0.5 * h * k1)
        k3 = f(c + 0.5 * h * k2)
        k4 = f(c + h * k3)
        return c + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), None


_STEPPERS = {"imex_cnab2": _Cnab2, "etd1": _Etd1, "rk4_explicit": _Rk4}
SCHEMES = tuple(_STEPPERS)


def _blowup(c, dom: Domain, t: float) -> dict | None:
    """The failure of a run whose state at time t has left the
    representable range (a non-finite coefficient or a field norm above
    BLOWUP_NORM), or None.  The summed squared norms bound each field's and
    are NaN or inf with any of them, so one comparison clears a sound state;
    only a failing one is searched for the field to name."""
    if dom.a / 4.0 * np.vdot(c, c) <= BLOWUP_NORM ** 2:
        return None
    for name, arr in zip(_FIELD_ORDER, c):
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
    dt)` per sample: c is the stepper's (3, Nx, Nz) array of the
    coefficients [psi, theta, phi] at time t, c_pre the array one step
    earlier (None at the initial sample).  Nothing else keeps the samples.
    `run` never writes into an array once handed out, so a monitor may keep
    the arrays or key on their identity; at sample_every=1 each c_pre is
    the last sample's c.  `Trajectory.final` and the snapshots are the
    only States `run` builds, through the validating constructors, on the
    rows of the arrays handed out.

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

    c = _stack(s0)
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
