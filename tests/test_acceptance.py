"""Acceptance suite: one test per documented guarantee, each printing a
single labelled PASS/FAIL line with the measured value next to the
tolerance it is held to (run with -s to see the lines for passing tests).
"""
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ltne import (CertificateConfig, Domain, Params, SpectralField, State,
                  StepperConfig, assemble_linear, build_initial_state,
                  check_continuous_dependence, compute_constants, energy_y,
                  jacobian, measured_decay_rate, norm_hk, run, read_snapshot,
                  spectral_abscissa, state_norms, summarize_records,
                  write_snapshot)
from ltne.cli import _fan_out, main


def _report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _params(Ra=10.0, alpha=1.0, lam=1.0):
    return Params(Ra=Ra, Pr=1.0, Da=1.0, C=1.0, lam=lam, gamma=1.0,
                  alpha=alpha, a=1.0)


def test_01_advection_pairing_vanishes():
    # <J(psi, theta), theta> = 0 up to roundoff for rough random fields;
    # the padded collocation grid makes the quadratic products exact
    rng = np.random.default_rng(101)
    dom = Domain(a=1.0, Nx=32, Nz=32)
    worst = 0.0
    for _ in range(100):
        psi = SpectralField(rng.uniform(-1.0, 1.0, (32, 32)), dom)
        th = SpectralField(rng.uniform(-1.0, 1.0, (32, 32)), dom)
        num = abs(dom.a / 4.0 * np.sum(jacobian(psi, th).coeffs * th.coeffs))
        den = norm_hk(psi, 1) * norm_hk(th, 0) * norm_hk(th, 1)
        worst = max(worst, num / den)
    _report("advection pairing", worst <= 1e-10,
            f"worst normalized |<J,theta>| {worst:.3e} <= 1e-10, 100 pairs")


@pytest.fixture(scope="module")
def decay_grid(recording_suite):
    # 3x3x3 parameter grid x 3 seeded smooth random states, integrated to
    # t=5 with the full certificate suite attached; shared by the decay and
    # absorbing-set tests below.  The 81 runs go through the sweep's runner,
    # so they run on every CPU this process may use.
    dom = Domain(a=1.0, Nx=32, Nz=32)
    cfg = StepperConfig(dt=1e-3, t_end=5.0, scheme="imex_cnab2",
                        sample_every=50)

    def one(p, seed):
        s0 = build_initial_state({"kind": "random", "seed": seed,
                                  "energy": 1.0, "decay": 1.0}, dom, p)
        suite = recording_suite(p, dom, CertificateConfig(), s0)
        traj = run(s0, p, cfg, monitors=suite)
        # what the tests read; a whole suite would carry the Domain's Plan
        return p, SimpleNamespace(k=suite.k, records=suite.records,
                                  summary=suite.summary), traj.failure

    def lost(p, seed, reason):
        raise RuntimeError(f"grid run {p} seed {seed}: {reason}")

    return list(_fan_out(one, [
        (_params(Ra=Ra, alpha=alpha, lam=lam), seed)
        for Ra in (10.0, 100.0, 1000.0) for alpha in (0.5, 1.0, 2.0)
        for lam in (0.5, 1.0, 2.0) for seed in (1, 2, 3)], lost))


def test_02_decay_envelope_parameter_grid(decay_grid):
    # ||theta||^2 + ||phi||^2 <= M8 e^{-M7 t} (initial) at every sample of
    # every run, compared in log space
    viol, nsamp = 0, 0
    for p, suite, failure in decay_grid:
        assert failure is None
        k = suite.k
        rho0_sq = suite.records[0].theta_sq + suite.records[0].phi_sq
        for r in suite.records:
            nsamp += 1
            lhs = r.theta_sq + r.phi_sq
            if lhs > 0.0 and math.log(lhs) > \
                    math.log(k.M8) - k.M7 * r.t + math.log(rho0_sq):
                viol += 1
            if r.decay_ok is False:
                viol += 1
        ok = {s["name"]: s["ok"] for s in summarize_records(suite.summary)}
        assert ok["decay"] is True
    _report("decay envelope grid", viol == 0,
            f"{viol} violations over {nsamp} samples, {len(decay_grid)} runs")


def test_03_slow_mode_decay_rate_matches_block_eigenvalue(recording_suite):
    # IC on the slowest (1,1) temperature eigenvector: the fitted rate of
    # ||theta||^2 + ||phi||^2 matches the doubled block eigenvalue
    p = _params()
    dom = Domain(a=1.0, Nx=8, Nz=8)
    s0 = build_initial_state(
        {"kind": "named", "name": "eigen_slow", "amplitude": 1e-3}, dom, p)
    suite = recording_suite(p, dom, CertificateConfig(), s0)
    run(s0, p, StepperConfig(dt=1e-3, t_end=5.0, scheme="imex_cnab2",
                             sample_every=10), monitors=suite)
    ts = [r.t for r in suite.records]
    vals = [r.theta_sq + r.phi_sq for r in suite.records]
    rate = measured_decay_rate(ts, vals, t_lo=1.0, t_hi=5.0)
    e1, e2 = assemble_linear(p, dom).block_eigenvalues()[0, 0]
    want = 2.0 * abs(max(e1.real, e2.real))
    rel = abs(rate - want) / want
    _report("slow-mode decay rate", rel <= 0.01 and rate >= suite.k.M7,
            f"measured {rate:.6f} vs 2|eig| {want:.6f}, rel {rel:.2e} <= 1e-2,"
            f" rate >= M7 {suite.k.M7:.4f}")


def test_04_absorbing_bounds_parameter_grid(decay_grid):
    # the anchored Gronwall bound on ||lap psi||^2 and the windowed
    # uniform-Gronwall H1 bound hold at every applicable sample
    viol, nsamp = 0, 0
    for p, suite, failure in decay_grid:
        for r in suite.records:
            nsamp += 1
            if r.psi_absorb_ok is False or r.h1_absorb_ok is False:
                viol += 1
        ok = {s["name"]: s["ok"] for s in summarize_records(suite.summary)}
        assert ok["psi_absorb"] is True    # engaged and all-pass
        assert ok["h1_absorb"] is True
    _report("absorbing bounds grid", viol == 0,
            f"{viol} violations over {nsamp} samples, {len(decay_grid)} runs")


def test_05_energy_balance_residual_second_order(recording_suite):
    # the one-step energy-identity residual quarters when dt halves, on a
    # linear-only and on a full nonlinear run, compared at t=0.25
    p = _params()
    dom = Domain(a=1.0, Nx=16, Nz=16)
    s0 = build_initial_state({"kind": "random", "seed": 7, "energy": 1.0,
                              "decay": 1.0}, dom, p)
    ratios = []
    for lin in (True, False):
        resid = {}
        for dt in (1e-3, 5e-4):
            cfg = StepperConfig(dt=dt, t_end=0.25, scheme="imex_cnab2",
                                sample_every=int(round(0.25 / dt)),
                                linear_only=lin)
            suite = recording_suite(p, dom, CertificateConfig(), s0)
            run(s0, p, cfg, monitors=suite)
            rec = suite.records[-1]
            assert rec.t == pytest.approx(0.25, abs=1e-12)
            resid[dt] = abs(rec.ebal_resid)
        ratios.append(resid[1e-3] / resid[5e-4])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report("energy balance order", ok,
            f"residual ratios linear {ratios[0]:.3f}, nonlinear "
            f"{ratios[1]:.3f}, both in [3.5, 4.5]")


def test_06_linear_spectrum_oracle():
    # dense assembly against the per-mode analytic eigenvalues, and the
    # abscissa: negative everywhere, bitwise invariant in Ra
    dom = Domain(a=1.0, Nx=4, Nz=4)
    worst = 0.0
    neg, invariant = True, True
    for alpha in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            abscs = []
            for Ra in (1.0, 1e3, 1e6):
                L = assemble_linear(_params(Ra=Ra, alpha=alpha, lam=lam), dom)
                dense = np.linalg.eigvals(L.dense())
                union = np.concatenate([L.lpsi.ravel().astype(complex),
                                        L.block_eigenvalues().ravel()])
                d1 = max(np.min(np.abs(dense - u)) for u in union)
                d2 = max(np.min(np.abs(union - d)) for d in dense)
                worst = max(worst, d1, d2)
                abscs.append(spectral_abscissa(L))
            neg = neg and all(x < 0.0 for x in abscs)
            invariant = invariant and abscs[0] == abscs[1] == abscs[2]
    _report("linear spectrum oracle",
            worst <= 1e-10 and neg and invariant,
            f"worst eigenvalue mismatch {worst:.3e} <= 1e-10, abscissa "
            f"negative {neg}, Ra-invariant {invariant}")


def test_07_difference_envelope_ic_pairs(sample_log):
    # pairs differing by 1e-6 in one temperature mode stay inside the
    # exponential difference envelope on [0, 1]
    p = _params()
    dom = Domain(a=1.0, Nx=16, Nz=16)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, scheme="imex_cnab2",
                        sample_every=10)
    k = compute_constants(p, dom, CertificateConfig(mso=1.0), rho0_sq=1.0)
    modes = [(1, 1), (2, 3), (3, 2), (4, 4), (5, 1),
             (1, 5), (2, 2), (3, 4), (4, 1), (2, 5)]
    worst = math.inf
    for seed, (m, n) in enumerate(modes, start=1):
        s0 = build_initial_state({"kind": "random", "seed": seed,
                                  "energy": 1.0, "decay": 1.0}, dom, p)
        c = s0.theta.coeffs.copy()
        c[m - 1, n - 1] += 1e-6
        sB = State(s0.psi, SpectralField(c, dom), s0.phi, 0.0)
        logA, logB = sample_log(), sample_log()
        run(s0, p, cfg, monitors=logA)
        run(sB, p, cfg, monitors=logB)
        ok, slack = check_continuous_dependence(
            logA.states(dom), logB.states(dom), k, p)
        assert ok, f"pair {seed} mode ({m}, {n}) left the envelope"
        worst = min(worst, slack)
    _report("difference envelope", True,
            f"10 pairs inside, worst log-slack {worst:.3e}")


def test_08_galerkin_self_convergence():
    # band-limited analytic IC: terminal E_Y at half vs full resolution
    p = _params(Ra=1.0)
    ic = {"kind": "named", "name": "smooth_bump", "band": 8,
          "amp_psi": 1.0, "amp_theta": 1.0, "amp_phi": 1.0}
    finals = {}
    for N in (16, 32):
        dom = Domain(a=1.0, Nx=N, Nz=N)
        s0 = build_initial_state(ic, dom, p)
        traj = run(s0, p, StepperConfig(dt=1e-4, t_end=1.0,
                                        scheme="imex_cnab2",
                                        sample_every=10000))
        finals[N] = energy_y(state_norms(traj.final), p)
    rel = abs(finals[16] - finals[32]) / abs(finals[32])
    _report("galerkin self-convergence", rel <= 1e-6,
            f"terminal E_Y rel diff {rel:.3e} <= 1e-6 at N=16 vs 32")


def test_09_band_limited_tail_stays_small():
    # smooth IC with the temperatures far below the stream function: the
    # |mu|^2-weighted tail above cutoff 32 stays negligible for all fields
    from ltne import tail_fraction
    p = _params()
    dom = Domain(a=1.0, Nx=64, Nz=64)
    s0 = build_initial_state(
        {"kind": "named", "name": "smooth_bump", "band": 8,
         "amp_psi": 1e-2, "amp_theta": 1e-7, "amp_phi": 1e-7}, dom, p)
    traj = run(s0, p, StepperConfig(dt=1e-3, t_end=1.0, scheme="imex_cnab2",
                                    sample_every=1000))
    assert traj.failure is None
    fin = traj.final
    fracs = {name: tail_fraction(getattr(fin, name), 2, 32)
             for name in ("psi", "theta", "phi")}
    ok = all(f <= 1e-8 for f in fracs.values())
    _report("band-limited tail", ok,
            "tail fractions " + ", ".join(
                f"{k} {v:.3e}" for k, v in fracs.items()) + " <= 1e-8")


def test_10_snapshot_resume_and_determinism(tmp_path):
    # file-mediated resume reproduces the uninterrupted run; identical
    # configs produce byte-identical JSONL
    p = _params(Ra=50.0)
    dom = Domain(a=1.0, Nx=8, Nz=8)
    s0 = build_initial_state({"kind": "random", "seed": 9, "energy": 1.0,
                              "decay": 1.0}, dom, p)
    full = run(s0, p, StepperConfig(dt=1e-2, t_end=1.0,
                                    scheme="imex_cnab2"),
               snapshot_times=(0.5,))
    t_snap, s_snap = full.snapshots[0]
    path = tmp_path / "mid.snap"
    write_snapshot(path, s_snap.psi, s_snap.theta, s_snap.phi, t_snap)
    psi, theta, phi, t = read_snapshot(path)
    resumed = run(State(psi, theta, phi, t), p,
                  StepperConfig(dt=1e-2, t_end=0.5,
                                scheme="imex_cnab2")).final
    worst = 0.0
    for name in ("psi", "theta", "phi"):
        a = getattr(resumed, name).coeffs
        b = getattr(full.final, name).coeffs
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        worst = max(worst, np.linalg.norm(a - b) / max(nb, 1e-300))
        assert na == pytest.approx(nb, rel=1e-10)

    doc = {"Ra": 50.0, "Pr": 1.0, "Da": 1.0, "C": 1.0, "alpha": 1.0,
           "gamma": 1.0, "lambda": 1.0, "Nx": 8, "Nz": 8, "dt": 0.01,
           "t_end": 0.5, "sample_every": 5,
           "ic": {"kind": "random", "seed": 9, "energy": 1.0, "decay": 1.0}}
    outs = []
    for tag in ("a", "b"):   # same bytes, separate directories
        d = tmp_path / tag
        d.mkdir()
        cfg = d / "det.json"
        cfg.write_text(json.dumps({**doc, "output": {"jsonl": "det.jsonl"}}))
        assert main(["run", str(cfg)]) == 0
        outs.append((d / "det.jsonl").read_bytes())
    # the stream embeds no paths or timestamps, so bytes must agree
    identical = outs[0] == outs[1]
    _report("resume and determinism", worst <= 1e-10 and identical,
            f"resume rel diff {worst:.3e} <= 1e-10, identical JSONL "
            f"{identical}")
