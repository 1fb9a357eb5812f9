"""Run configuration: JSON document schema, initial conditions, hashing.

A run is one flat JSON document.  Dimensionless numbers use their usual
symbols as keys (`Ra`, `Pr`, `Da`, `C`, `lambda`, `gamma`, `alpha`, `a`); a
`physical` block may supply dimensional inputs instead, with any dimensionless
key present taking precedence over the derived value.  Exactly one initial
condition source must be given under `ic`.  The fully resolved document
(defaults filled in) is what gets hashed and embedded in output streams, so a
stream is self-describing and re-certifiable offline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .params import Domain, Params, PhysicalParams, nondimensionalize
from .spectral import SpectralField, read_snapshot
from .dynamics import State, assemble_linear, state_norms
from .integrator import StepperConfig
from .certificates import CertificateConfig, CertificateSuite, energy_y

_DIMENSIONLESS_KEYS = ("Ra", "Pr", "Da", "C", "lambda", "gamma", "alpha")

_PHYSICAL_KEYS = ("rho0", "eps", "K", "mu_f", "mu_c", "beta", "g", "rhoc_f",
                  "rhoc_s", "kappa_f", "kappa_s", "h", "T_l", "T_u")

_TOP_KEYS = set(_DIMENSIONLESS_KEYS) | {
    "a", "physical", "Nx", "Nz", "Mx", "Mz", "dt", "t_end", "scheme",
    "sample_every", "linear_only", "conduction_coupling", "ic",
    "certificates", "output"}

_CERT_KEYS = {"enabled", "checks",
              *(f.name for f in fields(CertificateConfig))}

_CHECK_NAMES = CertificateSuite.CHECK_NAMES

_OUTPUT_KEYS = {"jsonl", "snapshot_at", "snapshot_prefix", "plot_csv"}

_IC_KINDS = ("zero", "named", "random", "snapshot")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    p: Params
    dom: Domain
    stepper: StepperConfig
    ic: dict
    cert_cfg: CertificateConfig
    checks: dict
    output: dict
    resolved: dict
    config_hash: str


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _as_num(doc: dict, key: str, default, kind=float):
    v = doc.get(key, default)
    try:
        return kind(v)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r}: expected {kind.__name__}, got {v!r}")


def build_config(doc: dict, base_dir: Path | str = ".") -> RunConfig:
    """Validate and resolve a config document into runtime objects."""
    base_dir = Path(base_dir)
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    a = _as_num(doc, "a", 1.0)
    numbers = {}
    if "physical" in doc:
        ph = doc["physical"]
        unknown = set(ph) - set(_PHYSICAL_KEYS)
        _require(not unknown, f"unknown physical keys: {sorted(unknown)}")
        missing = set(_PHYSICAL_KEYS) - set(ph)
        _require(not missing, f"physical block missing: {sorted(missing)}")
        try:
            derived = nondimensionalize(PhysicalParams(**{k: float(ph[k])
                                                          for k in _PHYSICAL_KEYS}), a=a)
        except ValueError as e:
            raise ConfigError(f"physical block: {e}")
        numbers = {"Ra": derived.Ra, "Pr": derived.Pr, "Da": derived.Da,
                   "C": derived.C, "lambda": derived.lam,
                   "gamma": derived.gamma, "alpha": derived.alpha}
    for key in _DIMENSIONLESS_KEYS:
        if key in doc:
            numbers[key] = _as_num(doc, key, None)
    missing = set(_DIMENSIONLESS_KEYS) - set(numbers)
    _require(not missing,
             f"missing dimensionless numbers: {sorted(missing)} "
             "(give them directly or via a complete 'physical' block)")

    try:
        p = Params(Ra=numbers["Ra"], Pr=numbers["Pr"], Da=numbers["Da"],
                   C=numbers["C"], lam=numbers["lambda"],
                   gamma=numbers["gamma"], alpha=numbers["alpha"], a=a,
                   conduction_coupling=bool(doc.get("conduction_coupling", False)))
        dom = Domain(a=a, Nx=_as_num(doc, "Nx", 32, int),
                     Nz=_as_num(doc, "Nz", 32, int),
                     Mx=_as_num(doc, "Mx", 0, int),
                     Mz=_as_num(doc, "Mz", 0, int))
        stepper = StepperConfig(
            dt=_as_num(doc, "dt", 1e-3), t_end=_as_num(doc, "t_end", 5.0),
            scheme=str(doc.get("scheme", "imex_cnab2")),
            sample_every=_as_num(doc, "sample_every", 10, int),
            linear_only=bool(doc.get("linear_only", False)))
    except ValueError as e:
        raise ConfigError(str(e))

    ic = doc.get("ic", {"kind": "zero"})
    _require(isinstance(ic, dict) and "kind" in ic,
             "ic must be an object with a 'kind'")
    _require(ic["kind"] in _IC_KINDS,
             f"ic.kind must be one of {_IC_KINDS}, got {ic['kind']!r}")
    ic = dict(ic)
    if ic["kind"] == "snapshot":
        _require("path" in ic, "ic.kind 'snapshot' needs a 'path'")
        path = Path(ic["path"])
        if not path.is_absolute():
            path = base_dir / path
        _require(path.exists(), f"ic snapshot path {path} does not exist")
        ic["path"] = str(path)
    if ic["kind"] == "random":
        _require("seed" in ic, "ic.kind 'random' needs an integer 'seed'")
        ic["seed"] = int(ic["seed"]) & (2 ** 64 - 1)
        ic.setdefault("energy", 1.0)
        ic.setdefault("decay", 0.5)

    cert = dict(doc.get("certificates", {}))
    unknown = set(cert) - _CERT_KEYS
    _require(not unknown, f"unknown certificates keys: {sorted(unknown)}")
    enabled = bool(cert.get("enabled", True))
    checks = {name: True for name in _CHECK_NAMES}
    for name, val in dict(cert.get("checks", {})).items():
        _require(name in _CHECK_NAMES,
                 f"unknown certificate toggle {name!r}")
        checks[name] = bool(val)
    c = {**asdict(CertificateConfig()), **cert}
    try:
        cert_cfg = CertificateConfig(
            mso=float(c["mso"]),
            ctilde=None if c["ctilde"] is None else float(c["ctilde"]),
            r=float(c["r"]), tail_k=int(c["tail_k"]),
            tail_cutoff=None if c["tail_cutoff"] is None
            else int(c["tail_cutoff"]),
            tail_threshold=float(c["tail_threshold"]),
            tail_warmup=float(c["tail_warmup"]))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"certificates block: {e}")

    output = dict(doc.get("output", {}))
    unknown = set(output) - _OUTPUT_KEYS
    _require(not unknown, f"unknown output keys: {sorted(unknown)}")
    output.setdefault("jsonl", None)
    output.setdefault("snapshot_at", [])
    output.setdefault("snapshot_prefix", None)
    output.setdefault("plot_csv", None)
    _require(isinstance(output["snapshot_at"], list),
             "output.snapshot_at must be a list of times")

    resolved = {
        "Ra": p.Ra, "Pr": p.Pr, "Da": p.Da, "C": p.C, "lambda": p.lam,
        "gamma": p.gamma, "alpha": p.alpha, "a": p.a,
        "Nx": dom.Nx, "Nz": dom.Nz, "Mx": dom.Mx, "Mz": dom.Mz,
        "dt": stepper.dt, "t_end": stepper.t_end, "scheme": stepper.scheme,
        "sample_every": stepper.sample_every,
        "linear_only": stepper.linear_only,
        "conduction_coupling": p.conduction_coupling,
        "ic": ic,
        "certificates": {"enabled": enabled, **asdict(cert_cfg),
                         "checks": checks},
        "output": output,
    }
    if not enabled:
        checks = dict.fromkeys(checks, False)
    return RunConfig(p=p, dom=dom, stepper=stepper, ic=ic, cert_cfg=cert_cfg,
                     checks=checks, output=output, resolved=resolved,
                     config_hash=config_hash(resolved))


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    try:
        return build_config(doc, base_dir=path.parent)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}")


def config_hash(resolved: dict) -> str:
    """First 16 hex chars of sha256 over the canonical resolved document,
    output paths excluded (they do not affect the computed trajectory)."""
    doc = {k: v for k, v in resolved.items() if k != "output"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_initial_state(ic: dict, dom: Domain, p: Params) -> State:
    kind = ic["kind"]
    if kind == "zero":
        return State.zero(dom)
    if kind == "snapshot":
        psi, theta, phi, t = read_snapshot(ic["path"])
        _require(psi.dom.Nx == dom.Nx and psi.dom.Nz == dom.Nz
                 and psi.dom.a == dom.a,
                 f"snapshot domain ({psi.dom.Nx}, {psi.dom.Nz}, a={psi.dom.a}) "
                 f"does not match config ({dom.Nx}, {dom.Nz}, a={dom.a})")
        rebase = lambda f: SpectralField(f.coeffs, dom)
        return State(rebase(psi), rebase(theta), rebase(phi), t)
    if kind == "random":
        return _random_state(ic, dom, p)
    return _named_state(ic, dom, p)


def _random_state(ic: dict, dom: Domain, p: Params) -> State:
    """Seeded smooth random field: uniform(-1, 1) coefficients damped by
    e^{-decay (m+n)}, the whole state rescaled to the requested E_Y."""
    rng = np.random.default_rng(ic["seed"])
    decay = float(ic["decay"])
    energy = float(ic["energy"])
    m = np.arange(1, dom.Nx + 1)[:, None]
    n = np.arange(1, dom.Nz + 1)[None, :]
    damp = np.exp(-decay * (m + n))
    fields = [SpectralField(rng.uniform(-1.0, 1.0, (dom.Nx, dom.Nz)) * damp, dom)
              for _ in range(3)]
    s = State(*fields, 0.0)
    if energy == 0.0:
        return State.zero(dom)
    e_raw = energy_y(state_norms(s), p)
    scale = np.sqrt(energy / e_raw)
    return State(*[SpectralField(scale * f.coeffs, dom) for f in fields], 0.0)


def _named_state(ic: dict, dom: Domain, p: Params) -> State:
    name = ic.get("name")
    if name == "single_mode":
        field = ic.get("field", "theta")
        _require(field in ("psi", "theta", "phi"),
                 f"single_mode field must be psi|theta|phi, got {field!r}")
        m, n = int(ic.get("m", 1)), int(ic.get("n", 1))
        _require(1 <= m <= dom.Nx and 1 <= n <= dom.Nz,
                 f"single_mode ({m}, {n}) outside truncation")
        amp = float(ic.get("amplitude", 1.0))
        c = np.zeros((dom.Nx, dom.Nz))
        c[m - 1, n - 1] = amp
        parts = {f: SpectralField.zero(dom) for f in ("psi", "theta", "phi")}
        parts[field] = SpectralField(c, dom)
        return State(parts["psi"], parts["theta"], parts["phi"], 0.0)
    if name == "eigen_slow":
        # slowest-decaying eigenvector of the (1,1) theta-phi block
        amp = float(ic.get("amplitude", 1.0))
        L = assemble_linear(p, dom)
        A = np.array([[L.b11[0, 0], L.b12], [L.b21, L.b22[0, 0]]])
        w, V = np.linalg.eig(A)
        v = V[:, int(np.argmax(w.real))].real
        v = amp * v / np.linalg.norm(v)
        cth = np.zeros((dom.Nx, dom.Nz))
        cph = np.zeros((dom.Nx, dom.Nz))
        cth[0, 0], cph[0, 0] = v
        return State(SpectralField.zero(dom), SpectralField(cth, dom),
                     SpectralField(cph, dom), 0.0)
    if name == "smooth_bump":
        band = int(ic.get("band", 8))
        _require(1 <= band <= min(dom.Nx, dom.Nz),
                 f"smooth_bump band {band} outside truncation")
        m = np.arange(1, dom.Nx + 1)[:, None]
        n = np.arange(1, dom.Nz + 1)[None, :]
        prof = np.exp(-(m + n).astype(float))
        prof[(m > band) | (n > band)] = 0.0
        mk = lambda amp: SpectralField(float(amp) * prof, dom)
        return State(mk(ic.get("amp_psi", 1.0)), mk(ic.get("amp_theta", 1.0)),
                     mk(ic.get("amp_phi", 1.0)), 0.0)
    raise ConfigError(
        f"unknown named ic {name!r}; choose single_mode|eigen_slow|smooth_bump")
