"""Runtime certificates: a priori energy estimates checked along trajectories.

Each certificate turns one quantitative bound into a pass/fail flag with a
reported slack: exponential decay of the temperature pair, the absorbing-ball
bounds for ||lap psi||^2 (with and without the decaying transient) and for the
H1-level energy (uniform-Gronwall window bound), the dissipation-integral
bound, the energy-balance identity/inequality, and a spectral-tail proxy for
instantaneous smoothing.  Each checks one trajectory; none checks the
uniqueness (continuous-dependence) estimate, which compares two.

Envelope comparisons are done in log space: the Gronwall exponents reach
~1e5 at large Ra and overflow float64 if exponentiated.  Time integrals use
trapezoid quadrature at the sample cadence with a second-difference error
estimate added on the bound side.  That makes `diss` and `h1_absorb` (whose
window integrals are on the bound side too) not one-sided in the cadence:
at a coarser one their bounds can be looser, so a violation a dense cadence
flags can pass; `decay` was never looser (ROADMAP item 4 gives the
measurements).  Sample densely enough to resolve the fastest retained
decay rate if the integral certificates matter.

Certification has two stages: (a) reduces each sampled state to the scalars
of a TrajectoryRecord, online only; (b) derives every flag and slack from
those stored scalars alone, for `run` and `certify` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import ge, gt, lt

import numpy as np

from .params import Params, poincare_constant
from .spectral import Domain, _tail_fractions
from .dynamics import (NORMS, State, _energy_identity_rhs, _sq_norms,
                       state_norms)

_REL_TOL = 1e-9     # roundoff allowance on certified inequalities

# One row per certificate: its check name, the inequality it certifies, the
# field the summary ranks its samples by and the test that a sample is worse
# than the worst so far (`lt` and `gt` keep the first of equal values, `ge`
# the last), then the record fields stage (b) derives for it: the flag,
# then any slack and further flag.
_CERT_ROWS = (
    ("decay", "||th||^2 + ||ph||^2 <= M8 e^{-M7 t} (initial)", "decay_slack",
     lt, "decay_ok", "decay_slack"),
    ("diss", "int ||grad th||^2 + ||grad ph||^2 <= M9 rho0^2", "diss_slack",
     lt, "diss_ok", "diss_slack"),
    ("psi_absorb", "||lap psi||^2 <= Gronwall envelope -> Ra^2 rho0^2 / 4C",
     "psi_absorb_slack", lt, "psi_absorb_ok", "psi_absorb_slack",
     "psi_absorb_ball_ok"),
    ("h1_absorb", "E_half <= (a3/r + a2) e^{a1}  (log-space slack)",
     "h1_absorb_slack", lt, "h1_absorb_ok", "h1_absorb_slack"),
    ("ebal", "2 R(mid) <= -M1 E_half + M2 E_Y  (+ identity residual)",
     "ebal_resid", ge, "ebal_ineq_ok"),
    ("tail", "max field tail fraction <= threshold", "tail_frac_k2", gt,
     "tail_ok"),
)
CERT_FIELDS = tuple(f for row in _CERT_ROWS for f in row[4:])
CHECK_NAMES = tuple(row[0] for row in _CERT_ROWS)

# The rule stage (b) certifies by, which each stream's header names: bumped
# whenever what stage (b) derives or what a record holds changes.
#   1: the streams written before the header named a rule.
#   2: `M9` is at least the bound the theta/phi energy identity gives, and
#      records no longer hold `cdep_ok`, which nothing set.
_RULE = 2


@dataclass(frozen=True)
class CertificateConfig:
    """Knobs the bounds depend on but the problem data does not fix.

    M_so is the Sobolev-type embedding constant the H1 bound carries; it
    is never quantified analytically, so that certificate holds relative
    to the configured value (default 1.0).  c_tilde is the
    auxiliary dissipation-splitting factor, None meaning min(1, 1/alpha)/2.
    r is the uniform-Gronwall window length.  `checks` switches each of
    the CHECK_NAMES on or off; a name it leaves out is on.
    """

    mso: float = 1.0
    ctilde: float | None = None
    r: float = 1.0
    tail_k: int = 2
    tail_cutoff: int | None = None
    tail_threshold: float = 1e-3
    tail_warmup: float = 0.5
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError("window length r must be finite and > 0")
        if not 0 < self.mso < math.inf:
            raise ValueError("mso must be finite and > 0")
        if not math.isfinite(self.tail_warmup):
            raise ValueError("tail_warmup must be finite")
        if not 0 <= self.tail_threshold < 1:
            raise ValueError("tail_threshold must lie in [0, 1)")
        if self.tail_k < 0:
            raise ValueError("tail_k must be >= 0")
        if self.tail_cutoff is not None and self.tail_cutoff < 1:
            raise ValueError("tail_cutoff must be null or >= 1")
        unknown = sorted(self.checks.keys() - set(CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown certificate toggles: {unknown}")
        if any(type(on) is not bool for on in self.checks.values()):
            raise ValueError(f"certificate toggles must be true or false, "
                             f"got {self.checks}")
        object.__setattr__(self, "checks",
                           dict.fromkeys(CHECK_NAMES, True) | self.checks)


@dataclass(frozen=True)
class CertificateConstants:
    M_P: float
    M7: float
    M8: float
    M9: float
    t0: float
    rho0_sq: float
    rho_R_sq: float
    M1: float
    M2: float
    M10_const: float
    M10_lap_coef: float
    c_tilde: float
    M_so: float


def compute_constants(p: Params, dom: Domain, cfg: CertificateConfig,
                      *, rho0_sq: float = 0.0) -> CertificateConstants:
    """Evaluate every derived constant.

    t0 = ln(M8)/M7 and rho0^2 = ||theta(0)||^2 + ||phi(0)||^2 make the decay
    bound deliver exactly ||theta||^2 + ||phi||^2 <= rho0^2 for t >= t0.
    """
    lam, gam, al = p.lam, p.gamma, p.alpha
    M_P = poincare_constant(dom)
    M7 = (1.0 / M_P) * min(1.0, 1.0 / al)
    w_th, w_ph = 1.0 / (2 * lam), al / (2 * gam * lam)
    M8 = max(w_th, w_ph) / min(w_th, w_ph)
    ct = cfg.ctilde if cfg.ctilde is not None else min(1.0, 1.0 / al) / 2.0
    if not (0 < ct < 1 and 0 < ct * al < 1):
        raise ValueError(
            f"c_tilde={ct} out of range: need 0 < c_tilde < 1 and "
            f"0 < c_tilde*alpha < 1")
    M9 = min(w_th, w_ph) / (min(1.0 / (2 * lam), 1.0 / (2 * gam * lam)) * ct)
    # no less than the theta/phi energy identity gives (conduction off):
    # int <= max(1, gamma) (||th0||^2 + alpha/gamma ||ph0||^2) / 2
    M9 = max(M9, 0.5 * max(1.0, al / gam) * max(1.0, gam))
    t0 = math.log(M8) / M7
    rho_R_sq = rho0_sq + p.Ra ** 2 * rho0_sq / (4 * p.C)
    M1 = 2.0 * min(p.Pr * p.C / (2 * p.Da), 1.0, 1.0 / al)
    M2 = 2.0 * max(1.0, p.Ra ** 2 / (2 * p.C) + lam * gam / 4.0,
                   lam / (4 * al))
    M10_const = p.Ra ** 2 / (2 * p.C) + 2 * lam + 2.0 + (4 * gam * lam + lam ** 2) / (2 * al)
    M10_lap_coef = 2.0 * cfg.mso   # norm-equivalence constant c = 1 here
    return CertificateConstants(
        M_P=M_P, M7=M7, M8=M8, M9=M9, t0=t0, rho0_sq=rho0_sq,
        rho_R_sq=rho_R_sq, M1=M1, M2=M2, M10_const=M10_const,
        M10_lap_coef=M10_lap_coef, c_tilde=ct, M_so=cfg.mso)


@dataclass
class TrajectoryRecord:
    """Per-sample norms, energies and certificate verdicts.

    The CERT_FIELDS are derived from the other fields, which include the
    energy-balance midpoint scalars (R_mid, E_half_mid, E_Y_mid).  Flags are
    True/False when the certificate was evaluated at this sample and None
    when not applicable (before an anchor time, check switched off, ...).
    """

    t: float
    lap_psi_sq: float
    theta_sq: float
    phi_sq: float
    grad_theta_sq: float
    grad_phi_sq: float
    gradlap_psi_sq: float
    E_Y: float
    E_half: float
    dEY_dt_disc: float | None = None
    decay_ok: bool | None = None
    decay_slack: float | None = None
    diss_ok: bool | None = None
    diss_slack: float | None = None
    psi_absorb_ok: bool | None = None
    psi_absorb_slack: float | None = None
    psi_absorb_ball_ok: bool | None = None
    h1_absorb_ok: bool | None = None
    h1_absorb_slack: float | None = None
    ebal_resid: float | None = None
    R_mid: float | None = None
    E_half_mid: float | None = None
    E_Y_mid: float | None = None
    ebal_ineq_ok: bool | None = None
    tail_frac_k2: float | None = None
    tail_ok: bool | None = None
    config_hash: str = ""


def energy_y(norms: dict, p: Params) -> float:
    return (p.Da / p.Pr) * norms["lap_psi_sq"] + norms["theta_sq"] \
        + p.alpha * norms["phi_sq"]


def energy_half(norms: dict, p: Params) -> float:
    return (p.Da / p.Pr) * norms["gradlap_psi_sq"] + norms["grad_theta_sq"] \
        + p.alpha * norms["grad_phi_sq"]


def _neumaier(s: float, c: float, x: float) -> tuple[float, float]:
    """Compensated s + x: the new sum and the new running correction."""
    t = s + x
    c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
    return t, c


class _RunningTrapz:
    """Trapezoid integral of a growing sample sequence plus an error
    estimate from second differences, O(1) per sample, with
    Neumaier-compensated sums.  Interval i contributes the trapezoid term
    h_i (f_i + f_{i+1}) / 2 and the error term h_i (e_i + e_{i+1}) / 2, e the
    interior second differences |f_{i+1} - 2 f_i + f_{i-1}| with each end
    reusing its neighbour's; the estimate is the error terms' sum over 12,
    or |f_1 - f_0| h_0 / 4 for two samples."""

    def __init__(self):
        self.n = 0
        self.integral = self.settled = (0.0, 0.0)   # (sum, correction)

    def step(self, t: float, f: float) -> int:
        """Append the sample (t, f) and return how many came before it.
        Then `term` is the newest interval's trapezoid term, and from the
        third sample on `inner` is the error term of the interval before it
        (settled now that both its ends are known) and `edge` the newest
        interval's, which reuses its left end's e."""
        n, self.n = self.n, self.n + 1
        if n:
            h, df = t - self.t, f - self.f
            self.term = h * (self.f + f) / 2.0
            if n > 1:
                d2 = abs(df - self.df)
                self.inner = self.h * 0.5 * ((self.d2 if n > 2 else d2) + d2)
                self.edge = h * 0.5 * (d2 + d2)
                self.d2 = d2
            self.h, self.df = h, df
        self.t, self.f = t, f
        return n

    def add(self, t: float, f: float) -> tuple[float, float]:
        """Append the sample (t, f); return the integral and its error
        estimate over all samples so far."""
        n = self.step(t, f)
        if n == 0:
            return 0.0, 0.0
        self.integral = _neumaier(*self.integral, self.term)
        if n == 1:
            return sum(self.integral), 0.25 * (abs(self.df) * self.h)
        self.settled = _neumaier(*self.settled, self.inner)
        return (sum(self.integral),
                sum(_neumaier(*self.settled, self.edge)) / 12.0)


class _H1Window:
    """The uniform-Gronwall window over the integrands (M10, E_half): the
    samples from the last one at least r old, and never fewer than two once
    two have arrived, in columns lo:hi of a buffer that is compacted in
    place.  Rows: t, the two integrands, and for the interval that ends at
    the column its two trapezoid terms and its two error terms, stepped by
    one `_RunningTrapz` per integrand as samples arrive.  `sums` reduces
    the stored terms: element for element the array an exact recomputation
    over the window sums, in the same order, hence bit-identical to it.
    Nothing is subtracted: E_half decays over tens of orders of magnitude
    along a run, and a running sum that drops departed terms cancels."""

    def __init__(self, r: float):
        self.r, self.buf = r, np.empty((7, 16))
        self.lo = self.hi = 0
        self.accs = (_RunningTrapz(), _RunningTrapz())

    def add(self, t: float, fs: tuple) -> bool:
        """Append the sample (t, (M10, E_half)), drop the samples the window
        has left behind, and return whether it spans r."""
        if self.hi == self.buf.shape[1]:    # full: compact and grow
            live = self.hi - self.lo
            self.buf = np.pad(self.buf[:, self.lo:], ((0, 0), (0, live + 16)))
            self.lo, self.hi = 0, live
        b, j, (m, e) = self.buf, self.hi, self.accs
        n = m.step(t, fs[0])    # the samples before this one
        e.step(t, fs[1])
        b[:3, j], self.hi = (t, *fs), j + 1
        if n:
            b[3, j], b[4, j] = m.term, e.term
        if n > 1:   # the interval before is interior now
            b[5, j - 1], b[6, j - 1], b[5, j], b[6, j] = \
                m.inner, e.inner, m.edge, e.edge
        # an r below the resolution of t puts the edge at t itself; the
        # window then keeps one interval, as for any r below the spacing
        edge = t - self.r * (1 - 1e-12)
        while self.hi - self.lo > 2 and b[0, self.lo + 1] <= edge:
            self.lo += 1
        return self.hi - self.lo > 1 and b[0, self.lo] <= edge

    def sums(self) -> tuple[float, float, float]:
        """(a1, a3, r_eff): the trapezoid integrals of M10 and E_half over
        the window, each with its error estimate added, and its length.
        The first interval's stored error term is overwritten first with
        the one a window starting there gives it (lo never moves back).
        Around the one numpy reduction, the arithmetic is on Python floats,
        the same IEEE operations in the same order as on the arrays: a
        numpy call costs more than its work on two or three elements."""
        b, lo, hi = self.buf, self.lo, self.hi
        (t0, t1, *_), *fs = b[:3, lo:lo + 3].tolist()
        h, r_eff = t1 - t0, b[0, hi - 1].item() - t0
        if hi - lo == 2:
            return (*(a + 0.25 * (abs(f[1] - f[0]) * h)
                      for a, f in zip(b[3:5, hi - 1].tolist(), fs)), r_eff)
        # the first interval reuses its right end's e
        d2 = [abs((f[2] - f[1]) - (f[1] - f[0])) for f in fs]
        b[5:7, lo + 1] = [h * 0.5 * (d + d) for d in d2]
        a1, a3, e1, e3 = b[3:7, lo + 1:hi].sum(axis=1).tolist()
        return a1 + e1 / 12.0, a3 + e3 / 12.0, r_eff


# -- individual certificates -------------------------------------------------

def check_decay(rec: TrajectoryRecord, init: TrajectoryRecord,
                k: CertificateConstants) -> tuple[bool, float]:
    """||theta(t)||^2 + ||phi(t)||^2 <= M8 e^{-M7 (t - t_init)} (initial).
    Slack is (rhs - lhs)/rhs; compared in log space against underflow."""
    S = rec.theta_sq + rec.phi_sq
    S0 = init.theta_sq + init.phi_sq
    if S == 0.0:
        return True, 1.0
    if S0 == 0.0:
        return False, -math.inf
    log_rhs = math.log(k.M8) - k.M7 * (rec.t - init.t) + math.log(S0)
    log_lhs = math.log(S)
    ok = log_lhs <= log_rhs + math.log1p(_REL_TOL)
    slack = 1.0 - math.exp(min(log_lhs - log_rhs, 700.0))
    return ok, slack


def check_dissipation_integral(integral: float, qerr: float,
                               init: TrajectoryRecord,
                               k: CertificateConstants) -> tuple[bool, float]:
    """int_0^t (||grad theta||^2 + ||grad phi||^2) <= M9 (initial), checked
    cumulatively with the quadrature error credited to the bound side;
    `integral` and `qerr` are the trapezoid sum and its error estimate.

    The check is not one-sided in the sample cadence.  `qerr` can grow at
    a coarser cadence and loosen the bound, so a violation a dense cadence
    flags can pass.  Trapezoid overestimates the integrand where it is
    convex, so rough initial data whose gradient norm collapses inside one
    sampling interval can fail here though the exact integral is within
    bound.
    """
    bound = k.M9 * (init.theta_sq + init.phi_sq)
    rhs = bound + qerr
    ok = integral <= rhs * (1 + _REL_TOL) or integral == rhs == 0.0
    slack = 1.0 if rhs == 0.0 and integral == 0.0 else (rhs - integral) / max(rhs, 1e-300)
    return ok, slack


def check_psi_absorbing(rec: TrajectoryRecord, rec_anchor: TrajectoryRecord,
                        k: CertificateConstants, p: Params
                        ) -> tuple[bool, float, bool]:
    """Full-Gronwall form: ||lap psi(t)||^2 <= e^{-2Pr (t-ta)/Da}
    ||lap psi(ta)||^2 + (1 - e^{...}) Ra^2 rho0^2 / (4C), anchored at the
    first sample past t0.  The third return is the transient-free form the
    asymptotic statement uses."""
    decay = math.exp(-2.0 * p.Pr * (rec.t - rec_anchor.t) / p.Da)
    ball = p.Ra ** 2 * k.rho0_sq / (4.0 * p.C)
    rhs = decay * rec_anchor.lap_psi_sq + (1.0 - decay) * ball
    lhs = rec.lap_psi_sq
    if rhs == 0.0:
        return (lhs == 0.0, 1.0 if lhs == 0.0 else -math.inf, lhs <= 0.0)
    ok = lhs <= rhs * (1 + _REL_TOL)
    ball_ok = lhs <= ball * (1 + _REL_TOL) if ball > 0 else lhs == 0.0
    return ok, (rhs - lhs) / rhs, ball_ok


def check_h1_absorbing(a1: float, a3: float, r_eff: float, y_t: float,
                       k: CertificateConstants, p: Params
                       ) -> tuple[bool, float]:
    """Uniform-Gronwall bound over a window [t - r_eff, t] of samples:
    y(t) <= (a3/r + a2) e^{a1} with y the H1-level energy, y_t = y(t),
    a1 = int M10 and a3 = int y over the window, each with its quadrature
    error estimate already added (the bound side), and
    a2 = (lam^2 + gamma^2 lam^2) rho_R^2 r / 2.  Compared in log space."""
    a2 = (p.lam ** 2 + p.gamma ** 2 * p.lam ** 2) * k.rho_R_sq * r_eff / 2.0
    if y_t == 0.0:
        return True, math.inf
    base = a3 / r_eff + a2
    if base <= 0.0:
        return False, -math.inf
    slack = math.log(base) + a1 - math.log(y_t)
    return slack >= -math.log1p(_REL_TOL), slack


def check_energy_balance(rec: TrajectoryRecord, k: CertificateConstants
                         ) -> bool:
    """Dissipation inequality 2 R(mid) <= -M1 E_half(mid) + M2 E_Y(mid)
    across one integrator step, from the record's stored midpoint scalars
    (R the closed-form dissipation functional).  Its ebal_resid is the
    O(dt^2) residual |dE_Y/(2 dt) - R(mid)| of the discrete energy identity."""
    R, eh, ey = rec.R_mid, rec.E_half_mid, rec.E_Y_mid
    bound = -k.M1 * eh + k.M2 * ey
    scale = max(abs(2.0 * R), k.M1 * eh, k.M2 * ey, 1e-300)
    return 2.0 * R <= bound + _REL_TOL * scale


def measured_decay_rate(times, values, t_lo: float = 1.0, t_hi: float = 5.0
                        ) -> float:
    """Exponential rate of `values` fitted by log-linear regression over
    [t_lo, t_hi]; NaN when the window has fewer than two positive samples."""
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    keep = (ts >= t_lo) & (ts <= t_hi) & (vs > 0.0)
    if np.count_nonzero(keep) < 2:
        return math.nan
    slope = np.polyfit(ts[keep], np.log(vs[keep]), 1)[0]
    return float(-slope)


# -- per-run evaluation ------------------------------------------------------

class _Certifier:
    """Stage (b): sets every flag and slack in CERT_FIELDS from the stored
    scalars of one run's records, fed in sample order, so `run` and
    `certify` derive bit-identical flags, and rolls each record up into
    `summary`.  The constants come from `n0`, the squared norms of the
    run's first sample."""

    def __init__(self, p: Params, dom: Domain, cfg: CertificateConfig,
                 n0: dict):
        self.p, self.cfg = p, cfg
        self.k = compute_constants(p, dom, cfg,
                                   rho0_sq=n0["theta_sq"] + n0["phi_sq"])
        self.init = self.anchor = None
        self.diss = _RunningTrapz()
        self.h1 = _H1Window(cfg.r)
        self.summary = RecordSummary()

    def __call__(self, rec: TrajectoryRecord) -> TrajectoryRecord:
        p, k, on = self.p, self.k, self.cfg.checks
        if self.init is None:
            self.init = rec
        if on["decay"]:
            rec.decay_ok, rec.decay_slack = check_decay(rec, self.init, k)
        integral, qerr = self.diss.add(rec.t,
                                       rec.grad_theta_sq + rec.grad_phi_sq)
        if on["diss"]:
            rec.diss_ok, rec.diss_slack = \
                check_dissipation_integral(integral, qerr, self.init, k)
        if rec.t >= k.t0 * (1.0 - 1e-12):
            if self.anchor is None:
                self.anchor = rec
            if on["psi_absorb"]:
                rec.psi_absorb_ok, rec.psi_absorb_slack, \
                    rec.psi_absorb_ball_ok = \
                    check_psi_absorbing(rec, self.anchor, k, p)
            m10 = k.M10_const + k.M10_lap_coef * rec.lap_psi_sq
            if self.h1.add(rec.t, (m10, rec.E_half)) and on["h1_absorb"]:
                rec.h1_absorb_ok, rec.h1_absorb_slack = check_h1_absorbing(
                    *self.h1.sums(), rec.E_half, k, p)
        if on["ebal"] and rec.R_mid is not None:
            rec.ebal_ineq_ok = check_energy_balance(rec, k)
        if on["tail"] and rec.tail_frac_k2 is not None:
            rec.tail_ok = rec.tail_frac_k2 <= self.cfg.tail_threshold
        self.summary.add(rec)
        return rec


class CertificateSuite(_Certifier):
    """Stateful per-run evaluator handed to the integrator as `monitors`:
    stage (a) in `on_sample`, then stage (b) as the `_Certifier` it is,
    the one `replay_certificates` uses, so replaying the records
    reproduces all flags and slacks bit-identically.

    `on_sample(t, c, c_pre, dt)` takes the (3, Nx, Nz) arrays of the
    coefficients [psi, theta, phi] that `run` hands out and reads them in
    place, never writing into them.  A prestate that is the last sample's
    array (the same object, as at sample_every=1) reuses that sample's E_Y;
    any other is read afresh.  `on_sample` returns the record and keeps
    none: `summary` rolls them up.
    """

    def __init__(self, p: Params, dom: Domain, cfg: CertificateConfig,
                 s0: State, config_hash: str = ""):
        super().__init__(p, dom, cfg, state_norms(s0))
        self.dom, self.config_hash = dom, config_hash
        n = min(dom.Nx, dom.Nz)
        self.cutoff = cfg.tail_cutoff or max(1, n // 2)
        if cfg.checks["tail"]:
            if self.cutoff >= n:
                raise ValueError(f"certificates.tail_cutoff {self.cutoff} out "
                                 f"of range: need < min(Nx, Nz) = {n}")
            self._tail_w = dom.plan.weight(cfg.tail_k, "certificates.tail_k")
        # Stage (a) works in buffers it owns: fresh (6, K) temporaries per
        # sample cost more than the arithmetic from N=64 on.  `_scratch`
        # holds the midpoint state, then the tail products.
        K = dom.Nx * dom.Nz
        self._scratch = np.empty((3, dom.Nx, dom.Nz))
        self._work = (np.empty((3, K)), np.empty((len(NORMS), K)))
        self._last = self._last_EY = None

    def on_sample(self, t: float, c: np.ndarray, c_pre: np.ndarray | None,
                  dt: float) -> TrajectoryRecord:
        p, cfg = self.p, self.cfg
        n = _sq_norms(c, self.dom, self._work)
        rec = TrajectoryRecord(
            t=t, E_Y=energy_y(n, p), E_half=energy_half(n, p),
            config_hash=self.config_hash, **n)
        if c_pre is not None:
            # at sample_every=1 the prestate is the last sample's array,
            # whose E_Y is kept
            E_Y_pre = self._last_EY
            if c_pre is not self._last:
                E_Y_pre = energy_y(_sq_norms(c_pre, self.dom, self._work), p)
            dE = rec.E_Y - E_Y_pre
            rec.dEY_dt_disc = dE / dt
            if cfg.checks["ebal"]:
                mid = np.add(c_pre, c, out=self._scratch)
                mid *= 0.5
                n_mid = _sq_norms(mid, self.dom, self._work)
                rec.R_mid = _energy_identity_rhs(mid, p, self.dom, n_mid)
                rec.ebal_resid = abs(dE / (2.0 * dt) - rec.R_mid)
                rec.E_half_mid = energy_half(n_mid, p)
                rec.E_Y_mid = energy_y(n_mid, p)
        if cfg.checks["tail"] and t >= cfg.tail_warmup:
            rec.tail_frac_k2 = max(_tail_fractions(
                c, self._tail_w, self.cutoff, self._scratch))
        self._last, self._last_EY = c, rec.E_Y
        return self(rec)


# -- offline re-certification ------------------------------------------------

def _record(fields: dict) -> TrajectoryRecord:
    # A bare instance given `fields` as its attributes: the dataclass
    # `__init__`, with its 27 keyword arguments, is a large share of what
    # replaying a record costs, and TrajectoryRecord has no `__post_init__`
    # to skip.
    rec = object.__new__(TrajectoryRecord)
    rec.__dict__ = fields
    return rec


def replay_certificates(stored, p: Params, dom: Domain, cfg: CertificateConfig,
                        on_record=None
                        ) -> tuple[RecordSummary, CertificateConstants]:
    """Re-derive every flag and slack in CERT_FIELDS from a stored record
    stream through the same stage (b) as the online suite.  `stored` is an
    iterable of dicts of TrajectoryRecord fields (`vars` of a record, or a
    typed stream line), read once, in sample order, and never written to.
    Each fresh record is a TrajectoryRecord whose fields are a new dict,
    its stored dict with CERT_FIELDS cleared; once certified, it is handed
    to `on_record(stored_dict, fresh)` if given.  Returns the fresh
    records' summary and the constants used."""
    certify, cleared = None, dict.fromkeys(CERT_FIELDS)
    for d in stored:
        if certify is None:
            certify = _Certifier(p, dom, cfg, d)
        rec = certify(_record(d | cleared))
        if on_record is not None:
            on_record(d, rec)
    if certify is None:
        raise ValueError("empty record stream")
    return certify.summary, certify.k


class RecordSummary:
    """Running per-certificate roll-up of one run's records, fed in sample
    order by `add`, in O(1) memory: `n` records and the `last` one; per
    check, in `checks`, [checked, passed, worst] with worst the (value,
    record) of the record its `_CERT_ROWS` row ranks worst: the lowest
    slack (the first on a tie), the highest tail fraction (the first) or
    the largest ebal residual (the last)."""

    def __init__(self):
        self.n, self.last = 0, None
        self.checks = {name: [0, 0, None] for name in CHECK_NAMES}
        # per check: its flag, its ranked field and test, its `checks` entry
        self._rows = [(flag, key, worse, self.checks[name])
                      for name, _, key, worse, flag, *_ in _CERT_ROWS]

    def add(self, rec: TrajectoryRecord):
        d, self.last = vars(rec), rec
        self.n += 1
        for flag, key, worse, check in self._rows:
            ok = d[flag]
            if ok is None:
                continue
            check[0] += 1
            if ok:
                check[1] += 1
            v, w = d[key], check[2]
            if v is not None and (w is None or worse(v, w[0])):
                check[2] = (v, rec)


def summarize_records(summary: RecordSummary) -> list[dict]:
    """Per-certificate rows of a record stream's summary: counts, worst
    sample, and, where slack determines them, the two sides of the
    inequality at the worst sample.  Slack conventions per certificate:
    decay/psi_absorb: (rhs - lhs)/rhs, so rhs = lhs / (1 - slack);
    h1_absorb: log(rhs) - log(lhs); tail: the fraction itself (rhs is the
    threshold); ebal: the largest identity residual, with neither side."""
    rows = []
    for name, ineq, *_ in _CERT_ROWS:
        checked, passed, worst = summary.checks[name]
        row = {"name": name, "inequality": ineq, "checked": checked,
               "passed": passed, "ok": passed == checked if checked else None,
               "worst_t": None, "worst_slack": None, "lhs": None, "rhs": None}
        if worst is not None:
            sl, worst = worst
            row["worst_slack"], row["worst_t"] = sl, worst.t
            if name == "tail":
                row["lhs"] = sl
            elif name in ("decay", "psi_absorb"):
                row["lhs"] = lhs = worst.theta_sq + worst.phi_sq \
                    if name == "decay" else worst.lap_psi_sq
                if sl < 1.0:
                    row["rhs"] = lhs / (1.0 - sl)
            elif name == "h1_absorb":
                row["lhs"] = worst.E_half
                if worst.E_half > 0 and sl < 700:
                    row["rhs"] = worst.E_half * math.exp(sl)
        rows.append(row)
    return rows
