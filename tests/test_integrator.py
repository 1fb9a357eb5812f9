import operator
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from ltne import (CertificateConfig, CertificateSuite, Domain, Params,
                  SpectralField, State, StepperConfig, assemble_linear,
                  build_initial_state, run, write_snapshot)
from ltne.integrator import SCHEMES
from ltne.dynamics import _stack
from ltne.integrator import _STEPPERS, _blowup


def _params(**kw):
    base = dict(Ra=50.0, Pr=1.0, Da=1.0, C=1.0, lam=1.0, gamma=1.0,
                alpha=1.0, a=1.0)
    base.update(kw)
    return Params(**base)


def _decaying_state(dom, rng, scale=0.5):
    taper = np.exp(-0.4 * np.add.outer(np.arange(dom.Nx), np.arange(dom.Nz)))
    f = [SpectralField(scale * rng.uniform(-1.0, 1.0, (dom.Nx, dom.Nz))
                       * taper, dom) for _ in range(3)]
    return State(*f)


def _fields(s):
    """The coefficient arrays of a State."""
    return s.psi.coeffs, s.theta.coeffs, s.phi.coeffs


def _same(xs, ys):
    """Whether two sequences hold the same objects, in order."""
    return len(xs) == len(ys) and all(map(operator.is_, xs, ys))


def _rows_of(s, c):
    """Whether the fields of State s are the rows of the (3, Nx, Nz) array
    c that `run` handed out, in order, as views (no copies)."""
    return all(u.base is c and np.shares_memory(u, row)
               for u, row in zip(_fields(s), c))


def _maxdiff(a, b):
    return max(np.max(np.abs(getattr(a, k).coeffs - getattr(b, k).coeffs))
               for k in ("psi", "theta", "phi"))


def test_zero_state_stays_zero():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params()
    for scheme in ("imex_cnab2", "etd1", "rk4_explicit"):
        cfg = StepperConfig(dt=0.01, t_end=0.1, scheme=scheme)
        fin = run(build_initial_state({"kind": "zero"}, dom, p), p,
                  cfg).final
        for k in ("psi", "theta", "phi"):
            assert np.all(getattr(fin, k).coeffs == 0.0)


def test_cnab2_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=20.0)
    s0 = State(*(SpectralField(rng.uniform(-1, 1, (4, 4)), dom)
                 for _ in range(3)))
    vec0 = np.concatenate([getattr(s0, k).coeffs.ravel()
                           for k in ("psi", "theta", "phi")])
    T = 0.1
    exact = expm(T * assemble_linear(p, dom).dense()) @ vec0
    cfg = StepperConfig(dt=2.5e-4, t_end=T, linear_only=True,
                        sample_every=10 ** 9)
    fin = run(s0, p, cfg).final
    got = np.concatenate([getattr(fin, k).coeffs.ravel()
                          for k in ("psi", "theta", "phi")])
    assert np.max(np.abs(got - exact)) < 3e-6   # measured 6.0e-7 at this dt


def test_cnab2_second_order_self_convergence():
    rng = np.random.default_rng(7)
    dom = Domain(a=1.0, Nx=8, Nz=8)
    p = _params()
    s0 = _decaying_state(dom, rng)
    finals = {}
    for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        cfg = StepperConfig(dt=dt, t_end=0.2, sample_every=10 ** 9)
        finals[dt] = run(s0, p, cfg).final
    e1 = _maxdiff(finals[1e-3], finals[5e-4])
    e2 = _maxdiff(finals[5e-4], finals[2.5e-4])
    e3 = _maxdiff(finals[2.5e-4], finals[1.25e-4])
    assert 3.5 < e1 / e2 < 4.5
    assert 3.5 < e2 / e3 < 4.5


def test_cnab2_agrees_with_rk4():
    rng = np.random.default_rng(7)
    dom = Domain(a=1.0, Nx=8, Nz=8)
    p = _params()
    s0 = _decaying_state(dom, rng)
    fa = run(s0, p, StepperConfig(dt=1e-4, t_end=0.05,
                                  sample_every=10 ** 9)).final
    fb = run(s0, p, StepperConfig(dt=1e-4, t_end=0.05, scheme="rk4_explicit",
                                  sample_every=10 ** 9)).final
    assert _maxdiff(fa, fb) < 2e-6   # measured 4.3e-7


def _block(p, mu):
    return np.array([[mu - p.lam, p.lam],
                     [p.gamma * p.lam / p.alpha,
                      (mu - p.gamma * p.lam) / p.alpha]])


def test_etd1_block_exact_any_dt():
    # with the Jacobian off nothing feeds theta-phi from psi, so the pair is
    # advanced by the exact per-mode exponential and even one huge step
    # lands on expm
    rng = np.random.default_rng(11)
    dom = Domain(a=1.0, Nx=3, Nz=3)
    for lam, gamma, alpha, dt, nsteps in ((1.3, 0.7, 2.0, 0.4, 1),
                                          (1.3, 0.7, 2.0, 0.1, 4),
                                          (1e-7, 1.0, 1.0, 0.4, 1)):
        p = _params(lam=lam, gamma=gamma, alpha=alpha)
        z = SpectralField(np.zeros((3, 3)), dom)
        th = SpectralField(rng.uniform(-1, 1, (3, 3)), dom)
        ph = SpectralField(rng.uniform(-1, 1, (3, 3)), dom)
        cfg = StepperConfig(dt=dt, t_end=nsteps * dt, scheme="etd1",
                            linear_only=True)
        fin = run(State(z, th, ph), p, cfg).final
        for m in range(1, 4):
            for n in range(1, 4):
                mu = -((m * np.pi) ** 2 + (n * np.pi) ** 2)
                want = expm(nsteps * dt * _block(p, mu)) @ np.array(
                    [th.coeffs[m - 1, n - 1], ph.coeffs[m - 1, n - 1]])
                got = np.array([fin.theta.coeffs[m - 1, n - 1],
                                fin.phi.coeffs[m - 1, n - 1]])
                assert np.allclose(got, want, rtol=1e-9, atol=1e-30)


def test_etd1_pure_psi_exact_decay():
    rng = np.random.default_rng(13)
    dom = Domain(a=1.0, Nx=3, Nz=3)
    p = _params(Pr=2.0, Da=0.5, C=0.3)
    psi = SpectralField(rng.uniform(-1, 1, (3, 3)), dom)
    z = SpectralField(np.zeros((3, 3)), dom)
    dt = 0.05
    fin = run(State(psi, z, z), p, StepperConfig(dt=dt, t_end=3 * dt,
                                                 scheme="etd1")).final
    for m in range(1, 4):
        for n in range(1, 4):
            mu = -((m * np.pi) ** 2 + (n * np.pi) ** 2)
            lmul = (p.Pr / p.Da) * (p.C * mu - 1.0)
            want = np.exp(3 * dt * lmul) * psi.coeffs[m - 1, n - 1]
            assert fin.psi.coeffs[m - 1, n - 1] == pytest.approx(
                want, rel=1e-12, abs=1e-30)
    assert np.all(fin.theta.coeffs == 0.0)
    assert np.all(fin.phi.coeffs == 0.0)


def test_cn_block_nonexpansive_at_huge_dt(sample_log):
    # Crank-Nicolson of the dissipative theta-phi block contracts the
    # weighted energy ||theta||^2 + (alpha/gamma)||phi||^2 for any dt; only
    # the explicit bootstrap step is exempt
    rng = np.random.default_rng(17)
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=1e-30, gamma=2.0, alpha=0.5)
    z = SpectralField(np.zeros((4, 4)), dom)
    th = SpectralField(rng.uniform(-1, 1, (4, 4)), dom)
    ph = SpectralField(rng.uniform(-1, 1, (4, 4)), dom)
    cfg = StepperConfig(dt=10.0, t_end=300.0, linear_only=True)
    log = sample_log()
    tr = run(State(z, th, ph), p, cfg, monitors=log)
    w = p.alpha / p.gamma
    energies = [float(np.sum(th ** 2) + w * np.sum(ph ** 2))
                for _, th, ph in log.samples]
    assert tr.failure is None
    for prev, nxt in zip(energies[1:], energies[2:]):
        assert nxt <= prev * (1.0 + 1e-12)


def test_blowup_returns_partial_trajectory(sample_log):
    rng = np.random.default_rng(19)
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params(Ra=100.0)
    s0 = State(*(SpectralField(rng.uniform(-1, 1, (4, 4)), dom)
                 for _ in range(3)))
    cfg = StepperConfig(dt=1.0, t_end=20.0, scheme="rk4_explicit")
    log = sample_log()
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run(s0, p, cfg, monitors=log)
    assert tr.failure is not None
    assert set(tr.failure) == {"t", "field", "error"}
    assert tr.failure["t"] <= 20.0
    assert len(log.times) >= 1   # the initial sample was handed out
    assert _rows_of(tr.final, log.samples[-1])
    assert tr.final.t == log.times[-1]
    assert log.times[-1] < tr.failure["t"]
    assert "blew up" in tr.failure["error"]
    assert tr.failure["field"] in ("psi", "theta", "phi")
    assert f"in field {tr.failure['field']}" in tr.failure["error"]


def test_blowup_verdict_names_the_failing_field():
    dom = Domain(a=1.0, Nx=4, Nz=4)
    t = 1.234567891
    ok = np.full((4, 4), 0.25)
    at_bound = np.zeros((4, 4))
    at_bound[0, 0] = 2e12       # norm exactly 1e12: not above it
    assert _blowup((ok, ok, ok), dom, t) is None
    # the summed norms exceed the bound, but no single field's does
    assert _blowup((at_bound, ok, at_bound), dom, t) is None
    for i, name in enumerate(("psi", "theta", "phi")):
        for value, detail in ((np.nan, "non-finite coefficients"),
                              (np.inf, "non-finite coefficients"),
                              (2.000001e12, "norm exceeded 1e+12")):
            c = [ok, ok, ok]
            c[i] = ok.copy()
            c[i][1, 2] = value
            assert _blowup(tuple(c), dom, t) == {
                "t": t, "field": name,
                "error": f"integration blew up at t=1.23457 in field {name} "
                         f"({detail})"}


def test_run_is_deterministic():
    rng = np.random.default_rng(23)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params()
    s0 = _decaying_state(dom, rng)
    cfg = StepperConfig(dt=1e-3, t_end=0.1)
    f1, f2 = run(s0, p, cfg).final, run(s0, p, cfg).final
    for k in ("psi", "theta", "phi"):
        assert np.array_equal(getattr(f1, k).coeffs, getattr(f2, k).coeffs)


def test_snapshot_restart_is_bit_identical(tmp_path):
    # the snapshot step drops the multistep history, so a resumed run
    # reproduces the original continuation exactly
    rng = np.random.default_rng(31)
    dom = Domain(a=1.0, Nx=6, Nz=6)
    p = _params()
    s0 = _decaying_state(dom, rng)
    dt, t_half = 0.01, 0.1
    full = run(s0, p, StepperConfig(dt=dt, t_end=2 * t_half),
               snapshot_times=(t_half,))
    assert len(full.snapshots) == 1
    t_snap, s_snap = full.snapshots[0]
    assert t_snap == pytest.approx(t_half)
    path = tmp_path / "mid.snap"
    write_snapshot(path, s_snap.psi, s_snap.theta, s_snap.phi, t_snap)
    resumed = run(s_snap, p, StepperConfig(dt=dt, t_end=t_half)).final
    for k in ("psi", "theta", "phi"):
        assert np.array_equal(getattr(resumed, k).coeffs,
                              getattr(full.final, k).coeffs)


def test_run_validation():
    dom = Domain(a=1.0, Nx=3, Nz=3)
    p = _params()
    s0 = build_initial_state({"kind": "zero"}, dom, p)
    with pytest.raises(ValueError, match="integer multiple"):
        run(s0, p, StepperConfig(dt=0.3, t_end=1.0))
    with pytest.raises(ValueError, match="step-aligned"):
        run(s0, p, StepperConfig(dt=0.1, t_end=1.0), snapshot_times=(0.15,))
    with pytest.raises(ValueError, match="step-aligned"):
        run(s0, p, StepperConfig(dt=0.1, t_end=1.0), snapshot_times=(1.5,))
    with pytest.raises(ValueError, match="sample_every"):
        StepperConfig(dt=0.1, t_end=1.0, sample_every=0)
    with pytest.raises(ValueError, match="unknown scheme"):
        StepperConfig(dt=0.1, t_end=1.0, scheme="euler")


def test_sampling_cadence_and_prestates(sample_log):
    rng = np.random.default_rng(37)
    dom = Domain(a=1.0, Nx=4, Nz=4)
    p = _params()
    s0 = _decaying_state(dom, rng)
    dt = 0.01
    log = sample_log()
    tr = run(s0, p, StepperConfig(dt=dt, t_end=10 * dt, sample_every=3),
             monitors=log)
    assert log.times == pytest.approx([0.0, 3 * dt, 6 * dt, 9 * dt, 10 * dt])
    assert log.prestates[0] is None
    # each prestate is the state one step before its sample: the last
    # sample's own tuple when that is one step back
    for k, pre in zip((3, 6, 9, 10), log.prestates[1:]):
        before = run(s0, p, StepperConfig(dt=dt, t_end=(k - 1) * dt)).final
        assert all(map(np.array_equal, pre, _fields(before)))
    assert log.prestates[4] is log.samples[3]
    assert _rows_of(tr.final, log.samples[-1])
    assert tr.final.t == log.times[-1]


def test_two_domains_stepped_in_alternation_match_each_alone():
    # each Domain's Plan owns its Jacobian work arrays: stepping two
    # Domains of the same sizes in turn gives the bits of each run alone
    rng = np.random.default_rng(47)
    cases = [(_params(a=a), _decaying_state(Domain(a=a, Nx=6, Nz=6), rng))
             for a in (1.0, 1.4)]
    for scheme in SCHEMES:
        cfg = StepperConfig(dt=0.002, t_end=0.04, scheme=scheme)
        alone = [_stack(run(s0, p, cfg).final) for p, s0 in cases]
        steppers = [_STEPPERS[scheme](p, s0.dom, cfg.dt, False)
                    for p, s0 in cases]
        c = [_stack(s0) for _, s0 in cases]
        hist = [None, None]
        for _ in range(20):
            for i, st in enumerate(steppers):
                c[i], hist[i] = st.advance(c[i], hist[i])
        for got, want in zip(c, alone):
            assert np.isfinite(want).all() and np.array_equal(got, want)


def test_memory_flat_in_t_end():
    # with no monitor, run keeps no samples: a run 4x longer, sampled at
    # every step, peaks at the same traced memory
    rng = np.random.default_rng(41)
    dom = Domain(a=1.0, Nx=32, Nz=32)
    p = _params()
    s0 = _decaying_state(dom, rng)
    dt, t_end = 1e-3, 0.025
    run(s0, p, StepperConfig(dt=dt, t_end=t_end))   # warm the plan caches
    peaks = []
    tracemalloc.start()
    try:
        for n in (1, 4):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(s0, p, StepperConfig(dt=dt, t_end=n * t_end))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    state_bytes = 3 * 8 * dom.Nx * dom.Nz
    assert abs(peaks[1] - peaks[0]) < 2 * state_bytes, peaks


def test_run_never_writes_into_arrays_it_handed_out():
    # a monitor may key on array identity (the certificate suite reuses the
    # last sample's norms when the prestate holds its arrays) only because
    # neither `run` nor the suite writes into an array once handed out
    rng = np.random.default_rng(43)
    dom = Domain(a=1.3, Nx=6, Nz=5)
    p = _params(a=1.3)
    s0 = _decaying_state(dom, rng)
    for every, scheme in ((1, "imex_cnab2"), (3, "imex_cnab2"), (2, "etd1")):
        suite = CertificateSuite(p, dom, CertificateConfig(r=0.1), s0)
        handed = []

        class Copier:
            def on_sample(self, t, c, pre, dt):
                handed.extend((a, a.copy()) for a in (c, pre)
                              if a is not None)
                suite.on_sample(t, c, pre, dt)

        traj = run(s0, p, StepperConfig(dt=0.01, t_end=0.5, scheme=scheme,
                                        sample_every=every),
                   monitors=Copier(), snapshot_times=(0.2,))
        assert 3 * len(handed) > 100     # three rows per array
        for st in (traj.final, traj.snapshots[0][1]):
            assert any(_rows_of(st, a) for a, _ in handed)
        for a, copy in handed:
            assert np.array_equal(a, copy)


def test_run_hands_out_arrays_and_builds_validated_states(monkeypatch):
    # monitors get the stepper's (3, Nx, Nz) arrays; `run` builds States
    # only for `final` and the snapshots, each through the validating
    # constructors, on the rows of the very arrays the monitor was handed
    built = {State: [], SpectralField: []}
    for cls, made in built.items():
        def counted(self, check=cls.__post_init__, made=made):
            made.append(self)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    rng = np.random.default_rng(19)
    dom = Domain(a=1.0, Nx=4, Nz=4)
    s0 = State(*(SpectralField(rng.uniform(-1, 1, (4, 4)), dom)
                 for _ in range(3)))
    handed = []

    class Check:
        def on_sample(self, t, c, pre, dt):
            for arrays in (c, pre) if pre is not None else (c,):
                assert type(arrays) is np.ndarray
                assert arrays.shape == (3, 4, 4) and arrays.dtype == float
            handed.append(c)

    cases = ((_params(), StepperConfig(dt=0.01, t_end=0.3), (0.0, 0.1, 0.3)),
             (_params(Ra=100.0), StepperConfig(dt=0.012, t_end=1.2,
                                                scheme="rk4_explicit"),
              (0.036,)))
    for p, cfg, snaps in cases:
        for made in built.values():
            made.clear()
        handed.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            tr = run(s0, p, cfg, monitors=Check(), snapshot_times=snaps)
        assert len(handed) > 5 and len(tr.snapshots) == len(snaps)
        states = [tr.final] + [st for _, st in tr.snapshots]
        assert _same(built[State], states)
        assert _same(built[SpectralField],
                     [u for st in states for u in (st.psi, st.theta, st.phi)])
        assert _rows_of(tr.final, handed[-1])
        assert all(u.dom is dom for u in built[SpectralField])
    assert tr.failure is not None     # the second case blew up
    with pytest.raises(ValueError, match="non-finite"):
        SpectralField(np.full((4, 4), np.nan), dom)
    with pytest.raises(ValueError, match="does not match domain"):
        SpectralField(np.zeros((4, 3)), dom)
    with pytest.raises(ValueError, match="different domains"):
        State(s0.psi, s0.theta,
              SpectralField(np.zeros((4, 4)), Domain(a=2.0, Nx=4, Nz=4)))
