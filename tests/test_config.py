import json

import numpy as np
import pytest

from ltne import (ConfigError, SpectralField, State, StepperConfig,
                  build_config, build_initial_state, config_hash, energy_y,
                  load_config, state_norms, write_snapshot)
from ltne.cli import EXIT_CONFIG, main


def _doc(**over):
    base = dict(Ra=10.0, Pr=1.0, Da=1.0, C=1.0, alpha=1.0, gamma=1.0)
    base["lambda"] = 1.0
    base.update(over)
    return base


_PHYS = dict(rho0=1.0, eps=0.5, K=1.0, mu_f=1.0, mu_c=1.0, beta=1.0, g=1.0,
             rhoc_f=1.0, rhoc_s=1.0, kappa_f=1.0, kappa_s=1.0, h=1.0,
             T_l=2.0, T_u=1.0)


def test_defaults_resolved():
    rc = build_config(_doc())
    assert (rc.dom.Nx, rc.dom.Nz) == (32, 32)
    assert (rc.dom.Mx, rc.dom.Mz) == (48, 48)     # the 3/2 rule's 3N // 2
    assert rc.stepper.dt == 1e-3 and rc.stepper.t_end == 5.0
    assert rc.stepper.scheme == "imex_cnab2"
    assert rc.stepper.sample_every == 10
    assert rc.ic == {"kind": "zero"}
    assert rc.resolved["certificates"]["enabled"] is True
    assert rc.cert_cfg.mso == 1.0 and rc.cert_cfg.r == 1.0
    assert all(rc.cert_cfg.checks.values())
    assert rc.output["jsonl"] is None and rc.output["snapshot_at"] == []
    assert len(rc.config_hash) == 16
    # the resolved doc is itself a valid config that resolves identically
    rc2 = build_config(rc.resolved)
    assert rc2.config_hash == rc.config_hash
    assert rc2.resolved == rc.resolved


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="Rayleigh"):
        build_config(_doc(Rayleigh=1.0))
    with pytest.raises(ConfigError, match="foo"):
        build_config(_doc(certificates={"foo": 1}))
    with pytest.raises(ConfigError, match="bar"):
        build_config(_doc(output={"bar": "x"}))
    with pytest.raises(ConfigError, match="ic.kind"):
        build_config(_doc(ic={"kind": "bogus"}))
    with pytest.raises(ConfigError, match="loop_count"):
        build_config(_doc(physical=dict(_PHYS, loop_count=3)))
    with pytest.raises(ConfigError, match="kappa_s"):
        ph = dict(_PHYS)
        del ph["kappa_s"]
        build_config(_doc(physical=ph))
    with pytest.raises(ConfigError, match="toggle"):
        build_config(_doc(certificates={"checks": {"nope": True}}))


def test_missing_numbers_are_named():
    with pytest.raises(ConfigError, match="gamma"):
        build_config({"Ra": 1.0})


def test_physical_block_with_override():
    doc = {"physical": dict(_PHYS), "Ra": 7.0}
    rc = build_config(doc)
    assert rc.p.Ra == 7.0          # explicit key wins
    assert rc.p.lam == pytest.approx(2.0, rel=1e-14)   # derived
    assert rc.p.Pr == pytest.approx(0.5, rel=1e-14)
    bad = dict(_PHYS, eps=2.0)
    with pytest.raises(ConfigError, match="physical block"):
        build_config({"physical": bad})


def test_validation_errors_are_config_errors():
    with pytest.raises(ConfigError, match="Ra"):
        build_config(_doc(Ra=-1.0))
    with pytest.raises(ConfigError, match="dt"):
        build_config(_doc(dt=-0.1))
    with pytest.raises(ConfigError, match="scheme"):
        build_config(_doc(scheme="euler"))
    with pytest.raises(ConfigError, match="expected int"):
        build_config(_doc(Nx="many"))
    with pytest.raises(ConfigError, match="collocation"):
        build_config(_doc(Nx=8, Mx=10))


def test_non_finite_run_length_is_refused(tmp_path, capsys):
    for key in ("t_end", "dt"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                build_config(_doc(**{key: bad}))
    cfg = tmp_path / "inf.json"
    cfg.write_text(json.dumps(_doc(Nx=4, Nz=4, t_end=float("inf"))))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "t_end must be finite" in capsys.readouterr().err


def test_run_length_not_a_step_multiple_is_refused(tmp_path, capsys):
    with pytest.raises(ValueError, match="integer multiple of dt"):
        StepperConfig(dt=0.3, t_end=1.0)
    doc = _doc(Nx=4, Nz=4, dt=0.001, t_end=0.0105)
    with pytest.raises(ConfigError, match="integer multiple of dt"):
        build_config(doc)
    cfg = tmp_path / "ragged.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}: t_end must be an integer multiple of dt" \
        in capsys.readouterr().err


@pytest.mark.parametrize("r", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_uniform_gronwall_window_is_refused(r):
    with pytest.raises(ConfigError, match="window length r"):
        build_config(_doc(certificates={"r": r}))


def test_certificates_disabled_turns_every_check_off():
    given = {"enabled": False, "checks": {"decay": True, "tail": False}}
    rc = build_config(_doc(certificates=given))
    assert not any(rc.cert_cfg.checks.values())
    block = rc.resolved["certificates"]    # kept as the user gave it
    assert block["enabled"] is False
    assert block["checks"]["decay"] is True
    assert block["checks"]["tail"] is False
    assert build_config(rc.resolved).config_hash == rc.config_hash


def test_config_hash_pinned():
    # literal hashes: a stream written by an earlier version must still
    # verify, so the resolved document may not change shape or values.
    # Each document is hashed on the default grid and on the one given
    # explicitly that earlier versions resolved by default (Mx = 2N + 2):
    # a stream stores its grid, so an old stream keeps its hash.
    def hashes(doc, old_grid):
        return (build_config(doc).config_hash,
                build_config({**doc, **old_grid}).config_hash)

    old_32 = {"Mx": 66, "Mz": 66}
    assert hashes(_doc(), old_32) == ("aba14c6bec4cc17b", "c5957fdd85be2300")
    every_key = {"enabled": False, "mso": 2.5, "ctilde": 0.25, "r": 0.75,
                 "tail_k": 3, "tail_cutoff": 4, "tail_threshold": 0.01,
                 "tail_warmup": 0.2,
                 "checks": {"decay": False, "tail": False}}
    assert hashes(_doc(certificates=every_key), old_32) == (
        "b56f4a4fe8ee1225", "cba5bba2f97de53e")
    # integral floats for int keys and ints for float keys resolve as before
    doc = _doc(Ra=100, Pr=1, Nx=16.0, Nz=8, sample_every=5.0, t_end=2)
    assert hashes(doc, {"Mx": 34.0, "Mz": 18}) == (
        "0e8372953d8475dc", "5a673cb957fad7a6")
    assert hashes({"physical": _PHYS, "Ra": 7.0}, old_32) == (
        "e0727a07effd4d97", "e77938fce9da0e3e")


_INF, _NAN = float("inf"), float("nan")

# (malformed document, a field its error must name); the first entry of each
# block is also run through `ltne run`
_MALFORMED = [
    (_doc(linear_only="false"), "linear_only"),
    (_doc(Nx=4.7), "Nx"),
    (_doc(Ra=_INF), "Ra"),
    (_doc(certificates=[1]), "certificates"),
    (_doc(certificates={"checks": ["tail"]}), "checks"),
    (_doc(certificates={"tail_warmup": _NAN}), "tail_warmup"),
    (_doc(certificates={"mso": 0}), "mso"),
    (_doc(certificates={"tail_k": -1}), "tail_k"),
    (_doc(certificates={"tail_threshold": -1}), "tail_threshold"),
    (_doc(output=[1]), "output"),
    (_doc(output={"snapshot_at": [_INF]}), "snapshot_at"),
    (_doc(ic={"kind": "random", "seed": "abc"}), "seed"),
    (_doc(ic={"kind": "random", "seed": 1, "enrgy": 5}), "enrgy"),
    (_doc(ic={"kind": "named", "name": "single_mode", "m": 2.7}), "ic.m"),
    (_doc(t_end=1e308, dt=1e-3), "t_end"),
    (_doc(ic={"kind": "random", "seed": 1, "energy": -1}), "ic.energy"),
    (_doc(ic={"kind": "named", "name": "single_mode", "amplitude": _NAN}),
     "ic.amplitude"),
    (_doc(certificates={"checks": {"tail": 1}}), "toggles must be true"),
    (_doc(Ra=10 ** 400), "field 'Ra'"),
]


@pytest.mark.parametrize("doc,field", _MALFORMED,
                         ids=[f for _, f in _MALFORMED])
def test_malformed_values_are_config_errors(doc, field):
    with pytest.raises(ConfigError, match=field):
        build_config(doc)


@pytest.mark.parametrize("doc,field",
                         [_MALFORMED[i] for i in (0, 3, 9, 11, -1)],
                         ids=["top", "certificates", "output", "ic",
                              "int_overflow"])
def test_malformed_block_exits_3(tmp_path, capsys, doc, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(doc, Nx=4, Nz=4, t_end=0.1)))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


# each named IC with a key that only another named IC reads
_FOREIGN_NAMED_KEYS = [("single_mode", "band"), ("single_mode", "amp_psi"),
                       ("eigen_slow", "m"), ("eigen_slow", "field"),
                       ("smooth_bump", "amplitude"), ("smooth_bump", "n")]


@pytest.mark.parametrize("name,key", _FOREIGN_NAMED_KEYS,
                         ids=[f"{n}-{k}" for n, k in _FOREIGN_NAMED_KEYS])
def test_named_ic_refuses_keys_it_does_not_read(tmp_path, capsys, name,
                                                key):
    ic = {"kind": "named", "name": name, key: "psi" if key == "field" else 3}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_doc(Nx=8, Nz=8, t_end=0.1, ic=ic)))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"unknown ic keys: [{key!r}]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]     # before any file opens
    # a sweep records it as that row's error
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "Ra", "values": [10.0],
                                "base": json.loads(cfg.read_text())}))
    assert main(["sweep", str(spec)]) == 0
    assert f"Ra=10.0: error: unknown ic keys: [{key!r}]" in \
        capsys.readouterr().out


def test_random_ic_normalization_and_reproducibility():
    rc = build_config(_doc(Nx=8, Nz=8,
                           ic={"kind": "random", "seed": 42, "energy": 2.5}))
    s = build_initial_state(rc.ic, rc.dom, rc.p)
    assert energy_y(state_norms(s), rc.p) == pytest.approx(2.5, rel=1e-12)
    s2 = build_initial_state(rc.ic, rc.dom, rc.p)
    for k in ("psi", "theta", "phi"):
        assert np.array_equal(getattr(s, k).coeffs, getattr(s2, k).coeffs)
    rc3 = build_config(_doc(Nx=8, Nz=8, ic={"kind": "random", "seed": 43}))
    s3 = build_initial_state(rc3.ic, rc3.dom, rc3.p)
    assert not np.array_equal(s.psi.coeffs, s3.psi.coeffs)
    rc0 = build_config(_doc(Nx=8, Nz=8,
                            ic={"kind": "random", "seed": 42, "energy": 0.0}))
    s0 = build_initial_state(rc0.ic, rc0.dom, rc0.p)
    assert np.all(s0.psi.coeffs == 0.0)
    with pytest.raises(ConfigError, match="seed"):
        build_config(_doc(ic={"kind": "random"}))


def test_random_ic_spectrum_is_damped():
    rc = build_config(_doc(Nx=16, Nz=16,
                           ic={"kind": "random", "seed": 5, "decay": 1.0}))
    s = build_initial_state(rc.ic, rc.dom, rc.p)
    c = np.abs(s.theta.coeffs)
    # expected magnitude profile e^{-(m+n)}: high corner far below low corner
    assert c[15, 15] < c[0, 0] * 1e-8


def test_named_single_mode():
    rc = build_config(_doc(Nx=6, Nz=6,
                           ic={"kind": "named", "name": "single_mode",
                               "field": "phi", "m": 2, "n": 3,
                               "amplitude": -2.5}))
    s = build_initial_state(rc.ic, rc.dom, rc.p)
    assert s.phi.coeffs[1, 2] == -2.5
    assert np.count_nonzero(s.phi.coeffs) == 1
    assert np.all(s.psi.coeffs == 0.0) and np.all(s.theta.coeffs == 0.0)
    bad = build_config(_doc(Nx=6, Nz=6))  # baseline ok
    with pytest.raises(ConfigError, match="outside truncation"):
        build_initial_state({"kind": "named", "name": "single_mode", "m": 9},
                            bad.dom, bad.p)
    with pytest.raises(ConfigError, match="unknown named ic"):
        build_initial_state({"kind": "named", "name": "wavelet"},
                            bad.dom, bad.p)
    # while the name is unknown, every named IC's keys are admitted, so
    # the refusal names the name, not a key
    rc = build_config(_doc(ic={"kind": "named", "name": "wavelet", "m": 2}))
    with pytest.raises(ConfigError, match="unknown named ic 'wavelet'"):
        build_initial_state(rc.ic, rc.dom, rc.p)


def test_named_eigen_slow_is_block_eigenvector():
    rc = build_config(_doc(Nx=6, Nz=6, alpha=2.0,
                           ic={"kind": "named", "name": "eigen_slow",
                               "amplitude": 3.0}))
    s = build_initial_state(rc.ic, rc.dom, rc.p)
    v = np.array([s.theta.coeffs[0, 0], s.phi.coeffs[0, 0]])
    assert np.linalg.norm(v) == pytest.approx(3.0, rel=1e-13)
    p = rc.p
    mu = -(np.pi ** 2 + np.pi ** 2)
    A = np.array([[mu - p.lam, p.lam],
                  [p.gamma * p.lam / p.alpha,
                   (mu - p.gamma * p.lam) / p.alpha]])
    w = A @ v
    # A v parallel to v with the dominant (slowest) eigenvalue
    sigma = float(w @ v / (v @ v))
    assert np.allclose(w, sigma * v, atol=1e-10)
    assert sigma == pytest.approx(np.max(np.linalg.eigvals(A).real),
                                  rel=1e-12)
    assert np.all(s.psi.coeffs == 0.0)


def test_named_smooth_bump_band_limited():
    rc = build_config(_doc(Nx=8, Nz=8,
                           ic={"kind": "named", "name": "smooth_bump",
                               "band": 3, "amp_psi": 2.0, "amp_theta": 0.5,
                               "amp_phi": 0.0}))
    s = build_initial_state(rc.ic, rc.dom, rc.p)
    assert s.psi.coeffs[0, 0] == pytest.approx(2.0 * np.exp(-2.0), rel=1e-14)
    assert s.theta.coeffs[2, 1] == pytest.approx(0.5 * np.exp(-5.0),
                                                 rel=1e-14)
    assert np.all(s.psi.coeffs[3:, :] == 0.0)
    assert np.all(s.psi.coeffs[:, 3:] == 0.0)
    assert np.all(s.phi.coeffs == 0.0)


def test_config_hash_sensitivity():
    h0 = build_config(_doc()).config_hash
    assert h0 == build_config(_doc()).config_hash
    assert h0 == build_config(_doc(output={"jsonl": "x.jsonl"})).config_hash
    assert h0 != build_config(_doc(dt=2e-3)).config_hash
    assert h0 != build_config(_doc(Ra=10.000001)).config_hash
    assert config_hash(build_config(_doc()).resolved) == h0


def test_snapshot_ic_roundtrip_and_mismatch(tmp_path):
    rc = build_config(_doc(Nx=5, Nz=5))
    rng = np.random.default_rng(3)
    fields = [SpectralField(rng.uniform(-1, 1, (5, 5)), rc.dom)
              for _ in range(3)]
    snap = tmp_path / "state.snap"
    write_snapshot(snap, *fields, 1.25)
    rc2 = build_config(_doc(Nx=5, Nz=5,
                            ic={"kind": "snapshot", "path": "state.snap"}),
                       base_dir=tmp_path)
    s = build_initial_state(rc2.ic, rc2.dom, rc2.p)
    assert s.t == 1.25
    assert np.array_equal(s.psi.coeffs, fields[0].coeffs)
    rc3 = build_config(_doc(Nx=6, Nz=5,
                            ic={"kind": "snapshot", "path": str(snap)}))
    with pytest.raises(ConfigError, match="does not match"):
        build_initial_state(rc3.ic, rc3.dom, rc3.p)
    with pytest.raises(ConfigError, match="does not exist"):
        build_config(_doc(ic={"kind": "snapshot", "path": "missing.snap"}),
                     base_dir=tmp_path)


def test_snapshot_ic_hash_does_not_depend_on_the_config_path_spelling(
        tmp_path, monkeypatch):
    # the snapshot path is resolved against the config's resolved directory,
    # as `ltne run` resolves its outputs, so it hashes the same however the
    # config path is written
    cfgdir = tmp_path / "cfgdir"
    cfgdir.mkdir()
    dom = build_config(_doc(Nx=3, Nz=3)).dom
    z = SpectralField(np.zeros((3, 3)), dom)
    write_snapshot(cfgdir / "s.snap", z, z, z, 0.0)
    (cfgdir / "c.json").write_text(json.dumps(_doc(
        Nx=3, Nz=3, ic={"kind": "snapshot", "path": "s.snap"})))
    monkeypatch.chdir(tmp_path)
    hashes = {load_config("cfgdir/c.json").config_hash,
              load_config(cfgdir / "c.json").config_hash}
    monkeypatch.chdir(cfgdir)
    hashes.add(load_config("c.json").config_hash)
    assert len(hashes) == 1


def test_load_config_error_positions(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "Ra": 1.0,\n  "Pr" 2.0\n}\n')
    with pytest.raises(ConfigError, match=r"bad\.json:3:"):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_doc()))
    rc = load_config(good)
    assert rc.p.Ra == 10.0
