"""Run configuration: JSON document schema, initial conditions, hashing.

A run is one flat JSON document.  Dimensionless numbers use their usual
symbols as keys (`Ra`, `Pr`, `Da`, `C`, `lambda`, `gamma`, `alpha`, `a`); a
`physical` block may supply dimensional inputs instead, with any dimensionless
key present taking precedence over the derived value.  Exactly one initial
condition source must be given under `ic`.  The fully resolved document
(defaults filled in) is what gets hashed and embedded in output streams, so a
stream is self-describing and re-certifiable offline.

Each block of the document is typed by a key table; `cli` types the sweep
spec and the lines of a JSONL stream with tables of the same kind, read by
the same `_read_block`.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import MISSING, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .params import Params, PhysicalParams, nondimensionalize
from .spectral import _FIELD_ORDER, Domain, SpectralField, read_snapshot
from .dynamics import State, _sq_norms, assemble_linear
from .integrator import StepperConfig
from .certificates import CertificateConfig, energy_y

# In the order of the Params fields (`lambda` is `Params.lam`).
_DIMENSIONLESS_KEYS = ("Ra", "Pr", "Da", "C", "lambda", "gamma", "alpha")

# Each block of a document maps its keys to (type, default).  An _ABSENT
# key is resolved only if given, a _REQUIRED one must be given; a None
# default admits null.
_ABSENT, _REQUIRED = object(), object()
_TYPES = {"float": float, "int": int, "bool": bool, "str": str, "dict": dict}


def _table(cls) -> dict:
    """The key table of a dataclass: each field's type and its default, or
    _REQUIRED where it has none."""
    return {f.name: (_TYPES[f.type.removesuffix(" | None")],
                     _REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls)}


_TOP = {
    **dict.fromkeys(_DIMENSIONLESS_KEYS, (float, _ABSENT)),
    "a": (float, 1.0), "physical": (dict, _ABSENT),
    "Nx": (int, 32), "Nz": (int, 32), "Mx": (int, 0), "Mz": (int, 0),
    "dt": (float, 1e-3), "t_end": (float, 5.0), "scheme": (str, "imex_cnab2"),
    "sample_every": (int, 10), "linear_only": (bool, False),
    "conduction_coupling": (bool, False), "ic": (dict, {"kind": "zero"}),
    "certificates": (dict, {}), "output": (dict, {}),
}

_PHYSICAL = _table(PhysicalParams)

_CERTIFICATES = {"enabled": (bool, True), **_table(CertificateConfig),
                 "checks": (dict, {})}

_OUTPUT = {"jsonl": (str, None), "snapshot_at": (list, []),
           "snapshot_prefix": (str, None), "plot_csv": (str, None)}

# The keys of each IC kind.  A named IC also reads the keys `_NAMED` lists
# under its `name` (all of them while the name is unknown, which
# `build_initial_state` refuses); `_fill_named` applies their defaults,
# which are not hashed.
_IC = {
    "zero": {},
    "random": {"seed": (int, _REQUIRED), "energy": (float, 1.0),
               "decay": (float, 0.5)},
    "snapshot": {"path": (str, _REQUIRED)},
    "named": {"name": (str, _ABSENT)},
}
_NAMED = {"single_mode": {"field": (str, _ABSENT), "m": (int, _ABSENT),
                          "n": (int, _ABSENT), "amplitude": (float, _ABSENT)},
          "eigen_slow": {"amplitude": (float, _ABSENT)},
          "smooth_bump": {"band": (int, _ABSENT), **dict.fromkeys(
              ("amp_psi", "amp_theta", "amp_phi"), (float, _ABSENT))}}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    p: Params
    dom: Domain
    stepper: StepperConfig
    ic: dict
    cert_cfg: CertificateConfig
    output: dict
    resolved: dict
    config_hash: str


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _typed(field: str, v, kind: type, nullable: bool = False,
           prefix: str = ""):
    """`v` as a `kind`: bool takes JSON true/false only, int an integer or
    an integral float, float any number in float range, str/list/dict their
    JSON type.  A scalar of type `kind` is returned as is, a list or dict as
    a copy.  Errors name the field as `prefix.field`."""
    if (v is None and nullable) or (type(v) is kind
                                    and kind not in (dict, list)):
        return v
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if kind is int and number and (isinstance(v, int) or v.is_integer()):
        return int(v)
    if kind is float and number and abs(v) <= sys.float_info.max:
        return float(v)
    if kind not in (int, float) and isinstance(v, kind):
        return kind(v)
    name = f"{prefix}.{field}" if prefix else field
    got = "an integer out of float range" if kind is float and number \
        else repr(v)
    raise ConfigError(f"field {name!r}: expected {kind.__name__}, got {got}")


def _read_block(block, table: dict, name: str = "") -> dict:
    """Type each key of one document block and fill in the defaults."""
    _require(isinstance(block, dict),
             f"{name or 'config root'} must be a JSON object")
    unknown = block.keys() - table.keys()
    _require(not unknown,
             f"unknown {name or 'config'} keys: {sorted(unknown)}")
    missing = [k for k, (_, d) in table.items()
               if d is _REQUIRED and k not in block]
    _require(not missing, f"missing {name or 'config'} keys: {missing}")
    return {key: _typed(key, v, kind, default is None, name)
            for key, (kind, default) in table.items()
            if (v := block.get(key, default)) is not _ABSENT}


def _build(cls, values: dict):
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def build_config(doc: dict, base_dir: Path | str = ".") -> RunConfig:
    """Validate and resolve a config document into runtime objects."""
    top = _read_block(doc, _TOP)
    numbers = {}
    if "physical" in top:
        ph = _read_block(top.pop("physical"), _PHYSICAL, "physical")
        try:
            derived = nondimensionalize(_build(PhysicalParams, ph), a=top["a"])
        except ValueError as e:
            raise ConfigError(f"physical block: {e}")
        numbers = dict(zip(_DIMENSIONLESS_KEYS, astuple(derived)))
    numbers.update((k, top[k]) for k in _DIMENSIONLESS_KEYS if k in top)
    missing = set(_DIMENSIONLESS_KEYS) - set(numbers)
    _require(not missing,
             f"missing dimensionless numbers: {sorted(missing)} "
             "(give them directly or via a complete 'physical' block)")

    try:
        p = _build(Params, {**top, **numbers, "lam": numbers["lambda"]})
        dom = _build(Domain, top)
        stepper = _build(StepperConfig, top)
    except ValueError as e:
        raise ConfigError(str(e))

    kind = top["ic"].get("kind")
    _require(isinstance(kind, str) and kind in _IC,
             f"ic.kind must be one of {tuple(_IC)}, got {kind!r}")
    keys = {"kind": (str, _ABSENT), **_IC[kind]}
    if kind == "named":
        name = top["ic"].get("name")
        keys.update(_NAMED[name] if isinstance(name, str) and name in _NAMED
                    else {k: v for t in _NAMED.values() for k, v in t.items()})
    # the resolved ic, hence the hash, keeps each given value as written
    ic = {**_read_block(top["ic"], keys, "ic"), **top["ic"]}
    if kind == "snapshot":
        path = Path(base_dir) / ic["path"]     # an absolute path stays as is
        _require(path.exists(), f"ic snapshot path {path} does not exist")
        ic["path"] = str(path)
    if kind == "random":
        ic["seed"] = int(ic["seed"]) & (2 ** 64 - 1)
    for key, (typ, _) in keys.items():
        _require(typ is not float or math.isfinite(ic.get(key, 0.0)),
                 f"ic.{key} must be finite, got {ic.get(key)}")
    _require(ic.get("energy", 0.0) >= 0,
             f"ic.energy must be >= 0, got {ic.get('energy')}")

    cert = _read_block(top["certificates"], _CERTIFICATES, "certificates")
    try:
        cert_cfg = _build(CertificateConfig, cert)
    except ValueError as e:
        raise ConfigError(f"certificates block: {e}")
    cert["checks"] = checks = dict(cert_cfg.checks)   # hashed as given
    if not cert["enabled"]:
        cert_cfg = replace(cert_cfg, checks=dict.fromkeys(checks, False))

    output = _read_block(top["output"], _OUTPUT, "output")
    for t in output["snapshot_at"]:
        _require(0 <= _typed("output.snapshot_at", t, float) <= stepper.t_end,
                 f"output.snapshot_at entries must lie in [0, t_end], got {t}")

    resolved = {**top, **numbers, "Mx": dom.Mx, "Mz": dom.Mz, "ic": ic,
                "certificates": cert, "output": output}
    return RunConfig(p=p, dom=dom, stepper=stepper, ic=ic, cert_cfg=cert_cfg,
                     output=output, resolved=resolved,
                     config_hash=config_hash(resolved))


def read_json(path):
    """The JSON value in the file at `path`; a ConfigError naming the file
    (and the line and column of a syntax error) if it cannot be read."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except (OSError, ValueError) as e:  # also not UTF-8, or a huge integer
        raise ConfigError(f"{path}: {e}")


def load_config(path) -> RunConfig:
    path = Path(path)
    doc = read_json(path)
    try:
        return build_config(doc, base_dir=path.resolve().parent)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}")


def config_hash(resolved: dict) -> str:
    """First 16 hex chars of sha256 over the canonical resolved document,
    output paths excluded (they do not affect the computed trajectory)."""
    doc = {k: v for k, v in resolved.items() if k != "output"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_initial_state(ic: dict, dom: Domain, p: Params) -> State:
    """The run's initial state.  Each IC kind fills one zero (3, Nx, Nz)
    stack of psi, theta and phi coefficients (a random IC replaces it with
    its own unless its energy is 0), and the State is built from it once:
    at t=0, or at the snapshot's time."""
    C, t, kind = np.zeros((3, dom.Nx, dom.Nz)), 0.0, ic["kind"]
    if kind == "snapshot":
        *fields, t = read_snapshot(ic["path"])
        sd = fields[0].dom
        _require(sd.Nx == dom.Nx and sd.Nz == dom.Nz and sd.a == dom.a,
                 f"snapshot domain ({sd.Nx}, {sd.Nz}, a={sd.a}) "
                 f"does not match config ({dom.Nx}, {dom.Nz}, a={dom.a})")
        C[:] = [f.coeffs for f in fields]
    elif kind == "random":
        C = _random_stack(ic, dom, p) if float(ic["energy"]) != 0.0 else C
    elif kind != "zero":
        _fill_named(C, ic, dom, p)
    return State(*(SpectralField(c, dom) for c in C), t)


def _random_stack(ic: dict, dom: Domain, p: Params) -> np.ndarray:
    """Seeded smooth random field: uniform(-1, 1) coefficients damped by
    e^{-decay (m+n)}, the whole stack rescaled to the requested E_Y.  A
    decay that underflows the field to zero or overflows it is refused."""
    decay = float(ic["decay"])
    energy = float(ic["energy"])
    rng = np.random.default_rng(ic["seed"])
    m = np.arange(1, dom.Nx + 1)[:, None]
    n = np.arange(1, dom.Nz + 1)[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        damp = np.exp(-decay * (m + n))
        C = np.stack([rng.uniform(-1.0, 1.0, (dom.Nx, dom.Nz)) * damp
                      for _ in range(3)])
        e_raw = energy_y(_sq_norms(C, dom), p)
    _require(0.0 < e_raw < math.inf and energy / e_raw < math.inf,
             f"ic.decay {decay:g} gives a random field with E_Y {e_raw:g} "
             f"before scaling, which cannot be scaled to ic.energy "
             f"{energy:g}")
    return np.sqrt(energy / e_raw) * C


def _fill_named(C: np.ndarray, ic: dict, dom: Domain, p: Params):
    """Write the named IC's coefficients into the zero stack C."""
    name = ic.get("name")
    if name == "single_mode":
        field = ic.get("field", "theta")
        _require(field in _FIELD_ORDER,
                 f"single_mode field must be psi|theta|phi, got {field!r}")
        m, n = int(ic.get("m", 1)), int(ic.get("n", 1))
        _require(1 <= m <= dom.Nx and 1 <= n <= dom.Nz,
                 f"single_mode ({m}, {n}) outside truncation")
        C[_FIELD_ORDER.index(field), m - 1, n - 1] = \
            float(ic.get("amplitude", 1.0))
    elif name == "eigen_slow":
        # slowest-decaying eigenvector of the (1,1) theta-phi block
        amp = float(ic.get("amplitude", 1.0))
        L = assemble_linear(p, dom)
        A = np.array([[L.b11[0, 0], L.b12], [L.b21, L.b22[0, 0]]])
        w, V = np.linalg.eig(A)
        v = V[:, int(np.argmax(w.real))].real
        C[1:, 0, 0] = amp * v / np.linalg.norm(v)
    elif name == "smooth_bump":
        band = int(ic.get("band", 8))
        _require(1 <= band <= min(dom.Nx, dom.Nz),
                 f"smooth_bump band {band} outside truncation")
        m = np.arange(1, dom.Nx + 1)[:, None]
        n = np.arange(1, dom.Nz + 1)[None, :]
        prof = np.exp(-(m + n).astype(float))
        prof[(m > band) | (n > band)] = 0.0
        C[:] = [float(ic.get(f"amp_{f}", 1.0)) * prof
                for f in _FIELD_ORDER]
    else:
        raise ConfigError(f"unknown named ic {name!r}; choose "
                          "single_mode|eigen_slow|smooth_bump")
