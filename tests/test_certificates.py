import math
from dataclasses import replace

import numpy as np
import pytest

from ltne import (CertificateConfig, CertificateSuite, Domain, Params,
                  SpectralField, State, StepperConfig, build_initial_state,
                  check_continuous_dependence, check_decay,
                  check_h1_absorbing, compute_constants, energy_y,
                  measured_decay_rate, replay_certificates, run, state_norms,
                  summarize_records)
from ltne.certificates import (CERT_FIELDS, TrajectoryRecord, _Certifier,
                               _H1Window, _RunningTrapz)
from ltne.dynamics import _energy_identity_rhs
from ltne.spectral import _tail_fractions


def _trapz_with_err(h: np.ndarray, fs: np.ndarray) -> tuple[float, float]:
    """Reference for the streaming integrals: the trapezoid integral of
    samples `fs` over intervals of widths `h`, plus an error estimate from
    second differences: per-interval error ~ h^3 |f''|/12 with
    f'' ~ second difference / h^2."""
    if len(fs) < 2:
        return 0.0, 0.0
    integral = float((h * (fs[1:] + fs[:-1]) / 2.0).sum())   # np.trapezoid
    if len(fs) == 2:
        return integral, 0.25 * float(abs(fs[1] - fs[0]) * h[0])
    d2 = np.abs(np.diff(fs, 2))          # ~ h^2 |f''| at interior points
    d2 = np.concatenate([d2[:1], d2, d2[-1:]])   # reuse neighbors at edges
    err = float(np.sum(h * 0.5 * (d2[:-1] + d2[1:])) / 12.0)
    return integral, err


def _params(**kw):
    base = dict(Ra=100.0, Pr=1.0, Da=1.0, C=1.0, lam=1.0, gamma=1.0,
                alpha=1.0, a=1.0)
    base.update(kw)
    return Params(**base)


def _suite_run(suite_cls, p, dom, cfg, s0, stepper_cfg, checks=None):
    if checks is not None:
        cfg = replace(cfg, checks=checks)
    suite = suite_cls(p, dom, cfg, s0)
    traj = run(s0, p, stepper_cfg, monitors=suite)
    return suite, traj


def _replay(recs, p, dom, cfg):
    """`replay_certificates` over the records of a run: the fresh records
    it hands out, and the constants.  The stored dicts are the live
    records' own `vars`, and certifying leaves them as they were; each
    fresh record equals the one the dataclass constructor builds from its
    dict with CERT_FIELDS cleared, certified by a stage (b) of its own."""
    stored = [vars(r) for r in recs]
    before, fresh = [dict(d) for d in stored], []
    _, k = replay_certificates(stored, p, dom, cfg,
                               lambda d, rec: fresh.append(rec))
    assert stored == before
    built = _Certifier(p, dom, cfg, before[0])
    assert fresh == [built(TrajectoryRecord(**(d | dict.fromkeys(
        CERT_FIELDS)))) for d in before]
    assert all(type(r) is TrajectoryRecord and vars(r).keys() == d.keys()
               for r, d in zip(fresh, before))
    return fresh, k


def _slow_block_state(dom, p, amp=1.0):
    # eigenvector of the (1,1) theta-phi block for its slowest eigenvalue
    mu = -(np.pi ** 2 / p.a ** 2 + np.pi ** 2)
    A = np.array([[mu - p.lam, p.lam],
                  [p.gamma * p.lam / p.alpha,
                   (mu - p.gamma * p.lam) / p.alpha]])
    w, V = np.linalg.eig(A)
    v = V[:, np.argmax(w.real)].real
    v = amp * v / np.linalg.norm(v)
    th = np.zeros((dom.Nx, dom.Nz))
    ph = np.zeros((dom.Nx, dom.Nz))
    th[0, 0], ph[0, 0] = v
    z = SpectralField(np.zeros((dom.Nx, dom.Nz)), dom)
    return State(z, SpectralField(th, dom), SpectralField(ph, dom)), \
        float(np.max(w.real))


def test_constants_symmetric_literals():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params()
    k = compute_constants(p, dom, CertificateConfig())
    assert k.M_P == pytest.approx(1.0 / (2 * np.pi ** 2), rel=1e-14)
    assert k.M7 == pytest.approx(2 * np.pi ** 2, rel=1e-14)
    assert k.M8 == 1.0
    assert k.t0 == 0.0
    assert k.c_tilde == 0.5
    assert k.M9 == pytest.approx(2.0, rel=1e-14)
    assert k.M1 == pytest.approx(1.0, rel=1e-14)
    assert k.M2 == pytest.approx(10000.5, rel=1e-14)
    assert k.M10_const == pytest.approx(5000.0 + 2 + 2 + 2.5, rel=1e-14)
    assert k.M10_lap_coef == 2.0
    assert k.rho0_sq == 0.0 and k.rho_R_sq == 0.0


def test_constants_asymmetric_alpha():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    k = compute_constants(_params(alpha=4.0), dom, CertificateConfig())
    assert k.M7 == pytest.approx(np.pi ** 2 / 2, rel=1e-14)
    assert k.M8 == pytest.approx(4.0, rel=1e-14)     # weight ratio alpha/gamma
    assert k.t0 == pytest.approx(math.log(4.0) / (np.pi ** 2 / 2), rel=1e-14)
    assert k.c_tilde == 0.125
    assert k.M9 == pytest.approx((1.0 / 2) / ((1.0 / 2) * 0.125), rel=1e-14)
    dom2 = Domain(a=2.0, Nx=4, Nz=4)
    k2 = compute_constants(_params(a=2.0), dom2, CertificateConfig())
    assert k2.M_P == pytest.approx(4.0 / (5 * np.pi ** 2), rel=1e-14)


def test_constants_rho_r_sq_hand_value():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=2.0)
    k = compute_constants(p, dom, CertificateConfig(), rho0_sq=3.0)
    assert k.rho_R_sq == pytest.approx(3.0 * (1 + 4.0 / 4.0), rel=1e-14)


def test_ctilde_validation():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    with pytest.raises(ValueError, match="c_tilde"):
        compute_constants(_params(), dom, CertificateConfig(ctilde=1.5))
    with pytest.raises(ValueError, match="c_tilde"):
        compute_constants(_params(alpha=2.0), dom,
                          CertificateConfig(ctilde=0.6))
    compute_constants(_params(alpha=2.0), dom, CertificateConfig(ctilde=0.4))


def test_zero_state_all_trivially_pass(recording_suite):
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params()
    cfg = CertificateConfig()
    s0 = build_initial_state({"kind": "zero"}, dom, p)
    suite, traj = _suite_run(recording_suite, p, dom, cfg, s0,
                             StepperConfig(dt=0.01, t_end=2.0,
                                           sample_every=10))
    assert traj.failure is None
    ok = {s["name"]: s["ok"] for s in summarize_records(suite.summary)}
    assert ok["decay"] and ok["diss"] and ok["psi_absorb"]
    assert ok["h1_absorb"] and ok["ebal"] and ok["tail"]
    for r in suite.records:
        assert r.decay_slack == 1.0
        assert r.E_Y == 0.0


def test_summary_ties_keep_the_first_slack_and_the_last_residual(
        recording_suite):
    # a zero state ties every sample of every check: the worst slack and
    # the worst tail fraction are reported at the first sample checked,
    # the largest ebal residual at the last
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params()
    s0 = build_initial_state({"kind": "zero"}, dom, p)
    suite, _ = _suite_run(recording_suite, p, dom, CertificateConfig(), s0,
                          StepperConfig(dt=0.01, t_end=2.0, sample_every=10))
    rows = summarize_records(suite.summary)
    assert [(r["name"], r["worst_t"], r["worst_slack"]) for r in rows] == [
        ("decay", 0.0, 1.0), ("diss", 0.0, 1.0), ("psi_absorb", 0.0, 1.0),
        ("h1_absorb", 1.0, math.inf), ("ebal", 2.0, 0.0),
        ("tail", 0.5, 0.0)]
    # a stored record may hold no residual (a typed stream line fills a
    # missing key with null): ebal is still checked there, and its worst is
    # the last residual held
    stored = [vars(r) for r in suite.records]
    summary, _ = replay_certificates(
        stored[:-1] + [dict(stored[-1], ebal_resid=None)], p, dom,
        CertificateConfig())
    ebal = summarize_records(summary)[4]
    assert (ebal["checked"], ebal["worst_t"]) == (rows[4]["checked"],
                                                  stored[-2]["t"])


def test_decay_certificate_and_measured_rate(recording_suite):
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params(Ra=10.0)
    s0, sigma = _slow_block_state(dom, p)
    cfg = CertificateConfig()
    st = StepperConfig(dt=0.01, t_end=2.0, scheme="etd1", linear_only=True,
                       sample_every=1)
    suite, traj = _suite_run(recording_suite, p, dom, cfg, s0, st)
    for r in suite.records:
        assert r.decay_ok is True
        assert 0.0 <= r.decay_slack <= 1.0   # exactly 0 at the anchor itself
    S = [r.theta_sq + r.phi_sq for r in suite.records]
    rate = measured_decay_rate([r.t for r in suite.records], S,
                               t_lo=0.5, t_hi=2.0)
    # squared norms decay at twice the eigenvalue rate; etd1 is exact here
    assert rate == pytest.approx(-2.0 * sigma, rel=1e-9)
    assert -2.0 * sigma > suite.k.M7   # certified rate is the weaker one


def test_dissipation_integral_closed_form(recording_suite):
    # single-block decay gives int ||grad th||^2 + ||grad ph||^2
    #   = |mu_11| rho0^2 / (2 |sigma|) = rho0^2 / 2 at unit parameters,
    # against the certified bound M9 rho0^2 = 2 rho0^2
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=1.0)
    s0, sigma = _slow_block_state(dom, p, amp=2.0)
    assert sigma == pytest.approx(-2 * np.pi ** 2, rel=1e-12)
    cfg = CertificateConfig()
    st = StepperConfig(dt=1e-3, t_end=1.0, scheme="etd1", linear_only=True,
                       sample_every=1)
    suite, _ = _suite_run(recording_suite, p, dom, cfg, s0, st)
    rho0_sq = suite.k.rho0_sq
    recs = suite.records
    ts = np.array([r.t for r in recs])
    fs = np.array([r.grad_theta_sq + r.grad_phi_sq for r in recs])
    integral = float(np.trapezoid(fs, ts))
    assert integral == pytest.approx(rho0_sq / 2.0, rel=1e-3)
    assert all(r.diss_ok for r in recs)
    assert recs[-1].diss_slack == pytest.approx(0.75, abs=0.01)


@pytest.mark.parametrize("alpha", [0.1, 0.2])
def test_dissipation_bound_holds_with_the_solid_phase_cold(recording_suite,
                                                           alpha):
    # with phi0 = 0 the theta/phi energy identity lets theta dissipate up
    # to ||th0||^2 / 2 = rho0^2 / 2, while the weight-ratio constant alone
    # is 2 alpha: M9 is never below the identity's bound
    dom = Domain(a=1.0, Nx=8, Nz=8)
    p = _params(Ra=1.0, alpha=alpha)
    s = build_initial_state({"kind": "random", "seed": 1, "energy": 1.0,
                             "decay": 1.0}, dom, p)
    s0 = State(s.psi, s.theta, SpectralField(np.zeros((8, 8)), dom))
    cfg = CertificateConfig()
    assert compute_constants(p, dom, cfg).M9 == 0.5
    for dt in (1e-3, 5e-4):
        st = StepperConfig(dt=dt, t_end=1.0, scheme="etd1", sample_every=1)
        suite, traj = _suite_run(recording_suite, p, dom, cfg, s0, st)
        assert traj.failure is None and len(suite.records) == round(1 / dt) + 1
        assert all(r.diss_ok for r in suite.records)


def test_flags_scale_invariant_for_homogeneous_certs(recording_suite):
    rng = np.random.default_rng(61)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params(Ra=20.0)
    taper = np.exp(-0.5 * np.add.outer(np.arange(6), np.arange(6)))
    f = [SpectralField(rng.uniform(-1, 1, (6, 6)) * taper, dom)
         for _ in range(3)]
    s_big = State(*f)
    s_small = State(*(SpectralField(0.5 * x.coeffs, dom) for x in f))
    cfg = CertificateConfig()
    st = StepperConfig(dt=0.01, t_end=1.0, linear_only=True, sample_every=5)
    sa, _ = _suite_run(recording_suite, p, dom, cfg, s_big, st)
    sb, _ = _suite_run(recording_suite, p, dom, cfg, s_small, st)
    for ra, rb in zip(sa.records, sb.records):
        assert ra.decay_ok == rb.decay_ok
        assert ra.diss_ok == rb.diss_ok
        assert ra.psi_absorb_ok == rb.psi_absorb_ok
        if ra.decay_slack is not None:
            assert rb.decay_slack == pytest.approx(ra.decay_slack, rel=1e-9,
                                                   abs=1e-12)
        if ra.diss_slack is not None:
            assert rb.diss_slack == pytest.approx(ra.diss_slack, rel=1e-9,
                                                  abs=1e-12)


def test_psi_absorbing_anchor_and_ball_form(recording_suite):
    # psi-only data: rho0 = 0, the Gronwall envelope is pure decay from the
    # anchor and holds, while the transient-free ball has radius zero and
    # correctly fails for a nonzero psi
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=5.0, alpha=2.0)   # alpha != gamma so t0 > 0
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    z = SpectralField(np.zeros((4, 4)), dom)
    s0 = State(SpectralField(c, dom), z, z)
    cfg = CertificateConfig()
    st = StepperConfig(dt=0.01, t_end=1.0, scheme="etd1", linear_only=True,
                       sample_every=1)
    suite, _ = _suite_run(recording_suite, p, dom, cfg, s0, st)
    t0 = suite.k.t0
    assert t0 > 0.0
    seen_pre = seen_post = False
    for r in suite.records:
        if r.t < t0 * (1 - 1e-9):
            assert r.psi_absorb_ok is None
            seen_pre = True
        else:
            assert r.psi_absorb_ok is True
            assert r.psi_absorb_ball_ok is False
            seen_post = True
    assert seen_pre and seen_post


def test_continuous_dependence_envelope(sample_log):
    rng = np.random.default_rng(67)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params(Ra=10.0)
    cfg = CertificateConfig()
    k = compute_constants(p, dom, cfg, rho0_sq=1.0)
    taper = np.exp(-0.5 * np.add.outer(np.arange(6), np.arange(6)))
    f = [SpectralField(0.1 * rng.uniform(-1, 1, (6, 6)) * taper, dom)
         for _ in range(3)]
    sA = State(*f)
    st = StepperConfig(dt=0.005, t_end=0.5, sample_every=5)
    logA, logB, logC = sample_log(), sample_log(), sample_log()
    run(sA, p, st, monitors=logA)
    statesA = logA.states(dom)
    ok, slack = check_continuous_dependence(statesA, statesA, k, p)
    assert ok and slack == math.inf
    pert = f[1].coeffs.copy()
    pert[1, 0] += 1e-6
    sB = State(f[0], SpectralField(pert, dom), f[2])
    run(sB, p, st, monitors=logB)
    statesB = logB.states(dom)
    ok2, slack2 = check_continuous_dependence(statesA, statesB, k, p)
    assert ok2 and 0.0 < slack2 < math.inf
    # the worst slack is taken over samples 1.., since sample 0 has slack 0
    D, rate = [], []
    for sa, sb in zip(statesA, statesB):
        d = state_norms(State(*(SpectralField(
            getattr(sa, f).coeffs - getattr(sb, f).coeffs, dom)
            for f in ("psi", "theta", "phi"))))
        D.append((p.Da / p.Pr) * d["grad_psi_sq"] + d["theta_sq"]
                 + p.alpha * d["phi_sq"])
        rate.append(max(k.M_so ** 2 * state_norms(sa)["grad_theta_sq"]
                        * p.Pr / p.Da, (p.Ra ** 2 + p.gamma * p.lam) / 4.0,
                        p.lam / (4.0 * p.alpha)))
    ts, rate = np.array(logA.times), np.array(rate)
    want = min(math.log(D[0]) - math.log(D[i])
               + sum(_trapz_with_err(np.diff(ts[:i + 1]), rate[:i + 1]))
               for i in range(1, len(ts)))
    assert slack2 == pytest.approx(want, rel=1e-12)
    run(sA, p, StepperConfig(dt=0.005, t_end=0.5, sample_every=10),
        monitors=logC)
    with pytest.raises(ValueError, match="sample grids"):
        check_continuous_dependence(statesA, logC.states(dom), k, p)


def test_energy_balance_residual_is_second_order(recording_suite):
    rng = np.random.default_rng(71)
    dom = Domain(a=1.0, Nx=8, Nz=8)
    p = _params(Ra=50.0)
    taper = np.exp(-0.4 * np.add.outer(np.arange(8), np.arange(8)))
    f = [SpectralField(0.5 * rng.uniform(-1, 1, (8, 8)) * taper, dom)
         for _ in range(3)]
    s0 = State(*f)
    cfg = CertificateConfig()
    resid = {}
    for dt in (2e-3, 1e-3):
        st = StepperConfig(dt=dt, t_end=0.1, sample_every=1)
        suite, _ = _suite_run(recording_suite, p, dom, cfg, s0, st)
        resid[dt] = max(r.ebal_resid for r in suite.records
                        if r.ebal_resid is not None)
        assert all(r.ebal_ineq_ok for r in suite.records
                   if r.ebal_ineq_ok is not None)
    assert 3.0 < resid[2e-3] / resid[1e-3] < 5.5


def test_replay_reproduces_online_flags_exactly(recording_suite):
    rng = np.random.default_rng(73)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params(Ra=30.0)
    taper = np.exp(-0.5 * np.add.outer(np.arange(6), np.arange(6)))
    s0 = State(*(SpectralField(rng.uniform(-1, 1, (6, 6)) * taper, dom)
                 for _ in range(3)))
    cfg = CertificateConfig(r=0.5)
    st = StepperConfig(dt=0.01, t_end=2.0, sample_every=10)
    suite, _ = _suite_run(recording_suite, p, dom, cfg, s0, st)
    fresh, k = _replay(suite.records, p, dom, cfg)
    assert k.rho0_sq == suite.k.rho0_sq
    # only JSON's own scalars, so a record's stream line is `vars(rec)`
    scalar = (bool, int, float, str, type(None))
    assert all(type(v) in scalar
               for r in suite.records + fresh for v in vars(r).values())
    for a, b in zip(suite.records, fresh):
        for name in ("decay_ok", "decay_slack", "diss_ok", "diss_slack",
                     "psi_absorb_ok", "psi_absorb_slack",
                     "psi_absorb_ball_ok", "h1_absorb_ok",
                     "h1_absorb_slack"):
            assert getattr(a, name) == getattr(b, name)
        assert b.ebal_ineq_ok == a.ebal_ineq_ok
        assert b.tail_ok == a.tail_ok
    # the h1 window (compacted once here) holds exactly the samples from the
    # last one at least r old: rebuilt from the records, same slacks
    recs, checked = suite.records, 0
    for i, r in enumerate(recs):
        if r.h1_absorb_slack is None:
            continue
        lo = max(j for j in range(i + 1)
                 if recs[j].t <= r.t - cfg.r * (1 - 1e-12))
        w = recs[lo:i + 1]
        ts = np.array([q.t for q in w])
        m10 = k.M10_const + k.M10_lap_coef * np.array(
            [q.lap_psi_sq for q in w])
        a1, e1 = _trapz_with_err(np.diff(ts), m10)
        a3, e3 = _trapz_with_err(np.diff(ts), np.array([q.E_half for q in w]))
        assert check_h1_absorbing(a1 + e1, a3 + e3, float(ts[-1] - ts[0]),
                                  r.E_half, k, p) \
            == (r.h1_absorb_ok, r.h1_absorb_slack)
        checked += 1
    assert checked == 16
    off, _ = _replay(suite.records, p, dom, replace(
        cfg, checks={"ebal": False, "tail": False, "decay": False}))
    assert all(r.ebal_ineq_ok is None and r.tail_ok is None
               and r.decay_ok is None for r in off)


def test_trapz_error_estimate_bounds_true_error():
    ts = np.linspace(0.0, 2.0, 9)
    integral, err = _trapz_with_err(np.diff(ts), ts ** 2)
    true_err = abs(integral - 8.0 / 3.0)
    assert err >= true_err * (1 - 1e-9)   # exact for quadratics
    ts2 = np.linspace(0.0, np.pi, 21)
    integral2, err2 = _trapz_with_err(np.diff(ts2), np.sin(ts2))
    true2 = abs(integral2 - 2.0)
    assert 0.5 * true2 <= err2 <= 3.0 * true2
    assert _trapz_with_err(np.diff(ts[:1]), ts[:1]) == (0.0, 0.0)
    # the streaming form equals it on every prefix (1, 2 and 3 points too)
    ts3 = np.cumsum(np.random.default_rng(79).uniform(0.01, 0.2, 60))
    for t, f in ((ts, ts ** 2), (ts2, np.sin(ts2)),
                 (ts3, np.exp(-3.0 * ts3) * np.cos(5.0 * ts3))):
        assert _trapz_with_err(np.diff(t), f)[0] == np.trapezoid(f, t)
        acc = _RunningTrapz()
        for n in range(1, len(t) + 1):
            assert acc.add(t[n - 1], f[n - 1]) == pytest.approx(
                _trapz_with_err(np.diff(t[:n]), f[:n]), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("nx, nz, a", [(4, 4, 1.0), (12, 8, 1.3),
                                       (16, 16, 1.0), (64, 64, 1.0)])
def test_one_pass_tail_fractions_equal_tail_fraction(nx, nz, a):
    # the kernel on a stack, through a buffer as `on_sample` calls it, gives
    # each field's fraction alone bit for bit, and the share of
    # sum |mu|^k c^2 outside the cutoff block as summed here; `on_sample`
    # stores their maximum
    rng = np.random.default_rng(97)
    dom = Domain(a=a, Nx=nx, Nz=nz)
    taper = np.exp(-0.3 * np.add.outer(np.arange(nx), np.arange(nz)))
    fields = [rng.standard_normal((nx, nz)) * taper for _ in range(3)]
    fields[1] = np.zeros((nx, nz))      # a zero field has fraction 0
    s = State(*(SpectralField(c, dom) for c in fields))
    C = np.stack(fields)
    mu2 = np.add.outer((np.arange(1, nx + 1) * np.pi / a) ** 2,
                       (np.arange(1, nz + 1) * np.pi) ** 2)
    for k in (0, 2, 3, 5):
        for cutoff in (None, 1, min(nx, nz) - 1):
            suite = CertificateSuite(_params(a=a), dom, CertificateConfig(
                tail_k=k, tail_cutoff=cutoff, tail_warmup=0.0), s)
            w = dom.plan.weight(k)
            got = _tail_fractions(C, w, suite.cutoff, np.empty_like(C))
            assert got == [_tail_fractions(c[None], w, suite.cutoff)[0]
                           for c in C]
            want = []
            for c in C:
                e = mu2 ** k * c ** 2
                total, head = e.sum(), e[:suite.cutoff, :suite.cutoff].sum()
                want.append((total - head) / total if total else 0.0)
            assert got[1] == want[1] == 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert suite.on_sample(0.0, C, None, 1e-3).tail_frac_k2 \
                == max(got)


def _h1_reference(ts, fs, r):
    """Every window `_H1Window` sums over a run, recomputed from scratch:
    whether it spans r, its sample count, and its (a1, a3, r_eff)."""
    for i, t in enumerate(ts):
        edge = t - r * (1 - 1e-12)
        lo = max([j for j in range(i + 1) if ts[j] <= edge], default=0)
        w, h = slice(lo, i + 1), np.diff(ts[lo:i + 1])
        (a1, e1), (a3, e3) = (_trapz_with_err(h, f[w]) for f in fs)
        yield ts[lo] <= edge, i + 1 - lo, (a1 + e1, a3 + e3,
                                           float(ts[i] - ts[lo]))


def test_h1_window_sums_equal_recomputation_bit_for_bit(recording_suite):
    # the stored trapezoid and error terms, reduced per check, are the
    # array an exact recomputation over each window sums: same bits, on
    # runs at four truncations and on non-uniform times, on windows of 1,
    # 2, 3 and more samples, and across the buffer's compactions
    rng = np.random.default_rng(101)
    ts = np.cumsum(rng.uniform(0.005, 0.05, 300))
    series = [(ts, (1e4 + rng.uniform(0.0, 50.0, ts.size),
                    np.exp(-40.0 * ts) * (1.5 + np.sin(30.0 * ts))))]
    for nx, nz, a in ((4, 4, 1.0), (12, 8, 1.3), (16, 16, 1.0),
                      (64, 64, 1.0)):
        dom, p = Domain(a=a, Nx=nx, Nz=nz), _params(Ra=30.0, a=a)
        taper = np.exp(-0.5 * np.add.outer(np.arange(nx), np.arange(nz)))
        s0 = State(*(SpectralField(rng.uniform(-1, 1, (nx, nz)) * taper, dom)
                     for _ in range(3)))
        suite, _ = _suite_run(recording_suite, p, dom, CertificateConfig(),
                              s0, StepperConfig(dt=0.01, t_end=1.2,
                                                sample_every=1))
        k, recs = suite.k, suite.records
        series.append((np.array([q.t for q in recs]), (
            k.M10_const + k.M10_lap_coef * np.array(
                [q.lap_psi_sq for q in recs]),
            np.array([q.E_half for q in recs]))))
    sizes = set()
    for t, fs in series:
        for r in (0.004, 0.012, 0.03, 0.3):
            win = _H1Window(r)
            for i, (spans, n, want) in enumerate(_h1_reference(t, fs, r)):
                got = win.add(t[i].item(), (fs[0][i].item(), fs[1][i].item()))
                assert (got, win.hi - win.lo) == (spans, n)
                assert win.sums() == want
                sizes.add(n)
    assert {1, 2, 3} <= sizes and max(sizes) > 16


def test_prestate_reuse_gives_the_records_of_fresh_arrays(recording_suite):
    # fed the run's own arrays at sample_every=1, the suite finds each
    # prestate to be the last sample's array and reuses that sample's E_Y;
    # fed fresh copies, it recomputes it.  Either way the prestate's
    # scalars are those of the public functions.
    rng = np.random.default_rng(103)
    dom = Domain(a=1.3, Nx=12, Nz=8)
    p = _params(Ra=30.0, a=1.3)
    taper = np.exp(-0.5 * np.add.outer(np.arange(12), np.arange(8)))
    s0 = State(*(SpectralField(rng.uniform(-1, 1, (12, 8)) * taper, dom)
                 for _ in range(3)))
    cfg = CertificateConfig(r=0.1, tail_k=3, tail_warmup=0.0)

    def copied(c):
        return None if c is None else c.copy()

    def state(c):
        return State(*(SpectralField(u, dom) for u in c))

    for every in (1, 4):
        own, fresh = (recording_suite(p, dom, cfg, s0) for _ in range(2))
        last = []

        class Both:
            def on_sample(self, t, c, pre, dt):
                if every == 1 and last:
                    assert pre is last[-1]
                last.append(c)
                rec = own.on_sample(t, c, pre, dt)
                fresh.on_sample(t, copied(c), copied(pre), dt)
                if pre is not None:
                    assert rec.dEY_dt_disc == (rec.E_Y - energy_y(
                        state_norms(state(pre)), p)) / dt
                    mid = 0.5 * (pre + c)
                    assert rec.R_mid == _energy_identity_rhs(
                        mid, p, dom, state_norms(state(mid)))

        run(s0, p, StepperConfig(dt=0.01, t_end=0.6, sample_every=every),
            monitors=Both())
        assert len(own.records) > 10
        assert [vars(r) for r in own.records] == \
            [vars(r) for r in fresh.records]


def test_tail_regularity_pass_and_fail():
    dom = Domain(a=1.0, Nx=8, Nz=8)
    rough = np.zeros((3, 8, 8))
    rough[0, 6, 6] = 1.0
    smooth = np.zeros((3, 8, 8))
    smooth[0, 0, 0] = 1.0
    # the fraction stage (a) stores; stage (b) compares it to the threshold
    cfg = CertificateConfig(tail_k=2, tail_cutoff=4, tail_warmup=0.0)

    def frac(c):
        s = State(*(SpectralField(u, dom) for u in c))
        return CertificateSuite(_params(), dom, cfg, s).on_sample(
            0.0, c, None, 1e-3).tail_frac_k2
    assert frac(rough) == 1.0
    assert frac(smooth) == 0.0


def test_measured_decay_rate_exact_exponential():
    ts = np.linspace(0.0, 6.0, 61)
    vals = 5.0 * np.exp(-3.0 * ts)
    assert measured_decay_rate(ts, vals) == pytest.approx(3.0, rel=1e-12)
    assert math.isnan(measured_decay_rate([0.0, 2.0], [0.0, 0.0]))


def test_check_decay_degenerate_cases():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    k = compute_constants(_params(), dom, CertificateConfig())
    base = dict(lap_psi_sq=0.0, grad_theta_sq=0.0, grad_phi_sq=0.0,
                gradlap_psi_sq=0.0, E_Y=0.0, E_half=0.0)
    r0 = TrajectoryRecord(t=0.0, theta_sq=0.0, phi_sq=0.0, **base)
    r1 = TrajectoryRecord(t=1.0, theta_sq=0.5, phi_sq=0.0, **base)
    ok, slack = check_decay(r1, r0, k)
    assert not ok and slack == -math.inf
    ok2, slack2 = check_decay(r0, r1, k)
    assert ok2 and slack2 == 1.0


def test_degenerate_envelopes_fail_and_an_empty_replay_is_refused():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params()
    cfg = CertificateConfig()
    k = compute_constants(p, dom, cfg)
    # a window whose (a3/r + a2) is not positive bounds no y_t > 0
    assert check_h1_absorbing(0.0, -1e30, 1.0, 1.0, k, p) \
        == (False, -math.inf)
    # two runs that start equal (D0 = 0) and then differ break the
    # uniqueness envelope
    z = SpectralField(np.zeros((4, 4)), dom)
    one = SpectralField(np.eye(4), dom)
    runA = [State(z, z, z, 0.0), State(z, z, z, 1.0)]
    runB = [State(z, z, z, 0.0), State(one, z, z, 1.0)]
    assert check_continuous_dependence(runA, runB, k, p) \
        == (False, -math.inf)
    with pytest.raises(ValueError, match="^empty record stream$"):
        replay_certificates([], p, dom, cfg)


def test_suite_check_toggles_and_cutoff_validation(recording_suite):
    dom = Domain(a=1.0, Nx=8, Nz=8)
    p = _params()
    cfg = CertificateConfig()
    s0 = build_initial_state({"kind": "zero"}, dom, p)
    with pytest.raises(ValueError, match="unknown certificate toggles"):
        CertificateConfig(checks={"nope": True})
    with pytest.raises(ValueError, match="^tail_cutoff must be null or >= 1$"):
        CertificateConfig(tail_cutoff=0)
    with pytest.raises(ValueError, match="cutoff"):
        CertificateSuite(p, dom, CertificateConfig(tail_cutoff=8), s0)
    suite, _ = _suite_run(recording_suite, p, dom, cfg, s0,
                          StepperConfig(dt=0.01, t_end=0.5, sample_every=10),
                          checks={"decay": False})
    assert all(r.decay_ok is None for r in suite.records)
    ok = {s["name"]: s["ok"] for s in summarize_records(suite.summary)}
    assert ok["decay"] is None
