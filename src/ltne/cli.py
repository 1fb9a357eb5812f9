"""Command-line driver: simulation runs, offline re-certification, parameter
sweeps, and linear-operator spectra.

Exit codes: 0 success, 1 certificate violation, 2 blowup, 3 bad input.
Every command raises its refusals: a ValueError (ConfigError among them)
for input it will not take, an OSError for a file it cannot read or
write.  So does the argument parser, for a missing or malformed argument.
`main` alone turns them, and the MemoryError of an array too large to
allocate (a truncation far beyond the machine), into one
`error: <message>` line on stderr and exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import pickle
import sys
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .certificates import (_RULE, CERT_FIELDS, CertificateSuite,
                           TrajectoryRecord, measured_decay_rate,
                           replay_certificates, summarize_records)
from .config import (_ABSENT, _DIMENSIONLESS_KEYS, _OUTPUT, _REQUIRED,
                     ConfigError, RunConfig, _read_block, _require, _table,
                     _typed, build_config, build_initial_state, config_hash,
                     load_config, read_json)
from .dynamics import assemble_linear, spectral_abscissa
from .integrator import _snapshot_step, run as integrate
from .spectral import write_snapshot

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_BLOWUP = 2
EXIT_CONFIG = 3

_PLOT_COLS = ("t", "lap_psi_sq", "theta_sq", "phi_sq", "grad_theta_sq",
              "grad_phi_sq", "gradlap_psi_sq", "E_Y", "E_half")
_plot_row = itemgetter(*_PLOT_COLS)
# `json.dumps(obj, sort_keys=True)` without building an encoder per line
_encode = json.JSONEncoder(sort_keys=True).encode

# The lines of a JSONL stream, each one JSON value ended by "\n": the
# header, one TrajectoryRecord per sample, and an optional final blowup
# marker with its payload.  `_Stream` writes them; `_Records` reads them.
_HEADER = {"meta": (dict, _REQUIRED), "config_hash": (str, _REQUIRED),
           "rule": (int, 1)}
_RECORD = _table(TrajectoryRecord)
_MARKER = {"blowup": (dict, _REQUIRED), "config_hash": (str, _REQUIRED)}
_BLOWUP = {"t": (float, _REQUIRED), "field": (str, _REQUIRED),
           "error": (str, _REQUIRED)}

# the record fields that may hold +-inf: a slack is infinite where its
# bound is trivially met or broken (the h1 slack of a zero state)
_INF_OK = frozenset(f for f in CERT_FIELDS if f.endswith("_slack"))


def _misfit(line: dict):
    """The first (key, value) of the record line `line`, in its order, that
    `_Stream` does not write: a value neither of its field's type nor a
    null the field admits, or a float that is NaN or, outside a slack,
    +-inf.  None if there is none.  On a line `_read_block` has typed,
    only the floats can be left to fail."""
    for key, v in line.items():
        kind, default = _RECORD[key]
        if type(v) is not kind:
            if v is not None or default is not None:
                return key, v
        elif kind is float and not math.isfinite(v) \
                and (v != v or key not in _INF_OK):
            return key, v


_SWEEP_COLS = ("parameter", "value", "status", "t_end", "E_Y_final",
               "theta_sq_final", "phi_sq_final", "lap_psi_sq_final",
               "decay_rate_measured", "spectral_abscissa", "M7", "decay_ok",
               "psi_absorb_ok", "h1_absorb_ok", "max_ebal_resid",
               "config_hash")

_SWEEP_PARAMS = _DIMENSIONLESS_KEYS + ("a",)

# `output_dir` and `csv` default to names derived from the spec's file name.
_SWEEP = {"parameter": (str, _REQUIRED), "values": (list, _REQUIRED),
          "base": (dict, _ABSENT), "base_path": (str, _ABSENT),
          "output_dir": (str, _ABSENT), "csv": (str, _ABSENT)}


class _Stream:
    """`integrate`'s monitor for one CLI run, and the only writer of its
    JSONL stream.  It opens the JSONL file, with its header line, and the
    plot CSV, if configured, on `files`; then it certifies each sample
    through `suite` and holds the records of at most 64 samples.  `flush`
    writes them as JSONL lines (and plot-CSV rows) and hands each to
    `on_record`; encoding in batches, apart from the integration, keeps
    `run` as fast as writing every record at the end did.  `close` flushes
    and, for a run that failed, ends the stream with the blowup marker."""

    def __init__(self, suite, rc: RunConfig, paths: dict, files, on_record):
        self.suite, self.on_record, self.batch = suite, on_record, []
        paths["jsonl"].parent.mkdir(parents=True, exist_ok=True)
        self.fh = files.enter_context(open(paths["jsonl"], "w"))
        self.fh.write(_encode({"meta": rc.resolved, "rule": _RULE,
                               "config_hash": rc.config_hash}) + "\n")
        self.plot = None
        if "plot_csv" in paths:
            self.plot = csv.writer(files.enter_context(
                open(paths["plot_csv"], "w", newline="")))
            self.plot.writerow(_PLOT_COLS)

    def on_sample(self, t, c, c_pre, dt):
        self.batch.append(self.suite.on_sample(t, c, c_pre, dt))
        if len(self.batch) == 64:
            self.flush()

    def flush(self):
        batch, self.batch = self.batch, []  # handed out once, whatever raises
        for rec in batch:
            self.fh.write(_encode(vars(rec)) + "\n")
            if self.plot is not None:
                self.plot.writerow(_plot_row(vars(rec)))
            if self.on_record is not None:
                self.on_record(rec)

    def close(self, failure: dict | None):
        self.flush()
        if failure is not None:
            self.fh.write(_encode({"blowup": failure, "config_hash":
                                   self.suite.config_hash}) + "\n")


def _output_paths(rc: RunConfig, jsonl_path: Path, base_dir: Path,
                  t0: float) -> dict:
    """Each file a run writes, under its key: "jsonl", "plot_csv" (if
    configured) and, per snapshot, the time `run` stamps it with (t0 plus
    whole steps).  A snapshot time off the step grid is refused with a
    ValueError, as are outputs that would share a file, naming both and
    the path."""
    dt, out = rc.stepper.dt, rc.output
    prefix = base_dir / out["snapshot_prefix"] \
        if out["snapshot_prefix"] else jsonl_path.with_suffix("")
    named = {"jsonl": ("jsonl", jsonl_path)}
    if out["plot_csv"]:
        named["plot_csv"] = ("plot_csv", base_dir / out["plot_csv"])
    for ts in out["snapshot_at"]:
        t = t0 + _snapshot_step(ts, rc.stepper) * dt
        named.setdefault(t, (f"snapshot_at {ts!r}",
                             Path(f"{prefix}_t{t:g}.snap")))
    owner = {}
    for name, path in named.values():
        if owner.setdefault(path.resolve(), name) != name:
            raise ValueError(f"outputs {owner[path.resolve()]} and {name} "
                             f"would both write {path}")
    return {key: path for key, (_, path) in named.items()}


def _execute(rc: RunConfig, jsonl_path: Path, base_dir: Path,
             on_record=None):
    """Build the IC and integrate with the certificate suite attached
    and a `_Stream` as the monitor, which writes the records to the JSONL
    file (and the plot CSV) in batches as they are certified and, once the
    integration returns, any blowup marker; then write the snapshots.
    Every refusal of the config (its output paths, then the suite's
    settings) comes before any file is opened.  Should the integration
    raise (KeyboardInterrupt too), the records the stream still holds are
    written, with no marker, before the files close, and the exception
    goes on as it was: an error from that write is dropped."""
    s0 = build_initial_state(rc.ic, rc.dom, rc.p)
    paths = _output_paths(rc, jsonl_path, base_dir, s0.t)
    suite = CertificateSuite(rc.p, rc.dom, rc.cert_cfg, s0, rc.config_hash)
    with contextlib.ExitStack() as files:
        stream = _Stream(suite, rc, paths, files, on_record)
        try:
            traj = integrate(s0, rc.p, rc.stepper, monitors=stream,
                             snapshot_times=tuple(rc.output["snapshot_at"]))
        except BaseException:
            with contextlib.suppress(Exception):
                stream.flush()
            raise
        stream.close(traj.failure)
    for t, st in traj.snapshots:
        write_snapshot(paths[t], st.psi, st.theta, st.phi, t)
    return suite, traj, [paths[t] for t, _ in traj.snapshots]


def _report(rows, failure) -> int:
    """Print the per-certificate roll-up and the verdict; return the exit
    code."""
    print("certificates:")
    for row in rows:
        status = "skipped" if row["checked"] == 0 else \
            ("pass" if row["ok"] else "FAIL")
        line = (f"  {row['name']:<11} {status:<7} "
                f"{row['passed']}/{row['checked']}")
        if row["worst_slack"] is not None:
            line += f"  worst {row['worst_slack']:.3e} @ t={row['worst_t']:g}"
        if row["lhs"] is not None:
            line += f"  lhs {row['lhs']:.6e}"
            if row["rhs"] is not None:
                line += f"  rhs {row['rhs']:.6e}"
        print(line)
        print(f"      {row['inequality']}")
    code = (EXIT_BLOWUP if failure is not None
            else EXIT_CERT_FAIL if any(row["ok"] is False for row in rows)
            else EXIT_OK)
    print(f"verdict: {'PASS' if code == EXIT_OK else 'FAIL'}")
    return code


def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    rc = load_config(cfg_path)
    base_dir = cfg_path.resolve().parent
    jsonl_path = base_dir / rc.output["jsonl"] \
        if rc.output["jsonl"] else cfg_path.with_suffix(".jsonl")
    suite, traj, snap_paths = _execute(rc, jsonl_path, base_dir)
    p, dom, k = rc.p, rc.dom, suite.k
    print(f"run {cfg_path.name}  hash {rc.config_hash}")
    print(f"  Ra={p.Ra:g} Pr={p.Pr:g} Da={p.Da:g} C={p.C:g} "
          f"lambda={p.lam:g} gamma={p.gamma:g} alpha={p.alpha:g} a={p.a:g}"
          + ("  conduction" if p.conduction_coupling else ""))
    print(f"  modes {dom.Nx}x{dom.Nz}, grid {dom.Mx + 1}x{dom.Mz + 1}, "
          f"dt={rc.stepper.dt:g}, t_end={rc.stepper.t_end:g}, "
          f"scheme={rc.stepper.scheme}"
          + (", linear only" if rc.stepper.linear_only else ""))
    print(f"  constants: M7={k.M7:.6g} M8={k.M8:.6g} M9={k.M9:.6g} "
          f"t0={k.t0:.6g} M1={k.M1:.6g} M2={k.M2:.6g} "
          f"rho0^2={k.rho0_sq:.6g}")
    print(f"  wrote {jsonl_path} ({suite.summary.n} records)")
    for sp in snap_paths:
        print(f"  wrote {sp}")
    if traj.failure is not None:
        print(f"  BLOWUP at t={traj.failure['t']:g} "
              f"({traj.failure['field']}); partial stream retained")
    return _report(summarize_records(suite.summary), traj.failure)


class _Records:
    """A JSONL stream `run` wrote, as `certify` reads it: lines cut at
    "\\n" only, where `_Stream` ends them, each one JSON value in strict
    UTF-8.
    Construction reads the header alone and checks it, raising a
    ConfigError for an empty file, a first line that is cut short or is
    not a meta line, a stream written under a rule other than `_RULE` (an
    absent rule is 1), a config hash that does not match the stored config
    document, and a stored config that does not rebuild; it keeps that
    config's `hash` and its RunConfig `rc`.  Iterating reads each later
    line once, in file order, and parses, types and checks it before it
    yields the record as its dict of TrajectoryRecord fields, so of two
    bad lines the earlier one is refused.  A record line as `_Stream`
    writes it (one without a `_misfit`) is yielded as parsed.  Any other
    record line is typed in full by `_read_block`, which turns an integral
    number in a float field into a float and fills a missing optional key
    with its null, and is then checked for non-finite floats; each refusal
    names the first field at fault.  A blowup marker is kept in
    `blowup`, and a line after it is refused naming the marker's line.  A
    refused line raises a ConfigError naming it, as do a cut line (one
    without its final newline, refused when the reader reaches it) and,
    when the lines run out, a stream without records or one whose last
    record falls short of t_end without a blowup.  A line that is not
    UTF-8 is refused like one that is not JSON, with the position of the
    first bad byte counted within that line."""

    def __init__(self, path: Path):
        with open(path, "rb") as fh:
            head = fh.readline()
        _require(head, f"{path}: empty file")
        _require(head.endswith(b"\n"), f"{path}: truncated (no final newline)")
        try:    # each line parsed without its "\n"
            line = _read_block(json.loads(head[:-1].decode()), _HEADER,
                               "header")
        except ValueError as e:     # not UTF-8 or JSON, or a huge integer
            raise ConfigError(f"{path}:1: not a meta line ({e})")
        _require(line["rule"] == _RULE, f"{path}: written under rule "
                 f"{line['rule']}; this ltne certifies rule {_RULE}")
        resolved, self.hash = line["meta"], line["config_hash"]
        _require(config_hash(resolved) == self.hash,
                 f"{path}: config hash {self.hash} does not match its own "
                 "config document")
        try:    # IC files need not still exist offline
            self.rc = build_config(dict(resolved, ic={"kind": "zero"}))
        except ValueError as e:
            raise ConfigError(f"{path}: stored config does not rebuild: {e}")
        self.path, self.blowup = path, None

    def __len__(self):
        # the lines after the header, in a pass of their own: only the
        # benchmark tracer counts them, until ROADMAP item 1 takes its
        # count on the span's exit
        with open(self.path, "rb") as fh:
            return sum(1 for _ in fh) - 1

    def __iter__(self):
        path, first, self.blowup = self.path, None, None
        with open(path, "rb") as fh:
            next(fh)    # the header
            for i, ln in enumerate(fh, start=2):
                if self.blowup is not None:
                    raise ConfigError(f"{path}:{i - 1}: blowup marker before "
                                      "end of file")
                if not ln.endswith(b"\n"):
                    raise ConfigError(f"{path}: truncated (no final newline)")
                try:
                    d = json.loads(ln[:-1].decode())
                except ValueError as e:     # not UTF-8 or JSON, huge integer
                    raise ConfigError(f"{path}:{i}: malformed JSON ({e})")
                try:
                    if isinstance(d, dict) and "blowup" in d:
                        line = _read_block(d, _MARKER, "marker")
                        self.blowup = _read_block(line["blowup"], _BLOWUP,
                                                  "blowup")
                    elif isinstance(d, dict) and d.keys() == _RECORD.keys() \
                            and _misfit(d) is None:
                        line = d    # as `_Stream` writes it, in one walk
                    else:   # typed in full, so each refusal names its field
                        line = _read_block(d, _RECORD, "record")
                        if (bad := _misfit(line)) is not None:
                            raise ConfigError(f"field 'record.{bad[0]}': "
                                              f"non-finite value {bad[1]!r}")
                except ConfigError as e:
                    raise ConfigError(f"{path}:{i}: {e}")
                if line["config_hash"] != self.hash:
                    raise ConfigError(f"{path}:{i}: mixed config hashes "
                                      f"({line['config_hash']!r} vs "
                                      f"{self.hash!r})")
                if self.blowup is not None:     # this line is the marker
                    continue
                if first is None:
                    first = line["t"]
                elif not line["t"] > last:
                    raise ConfigError(f"{path}:{i}: record t={line['t']!r} "
                                      f"does not follow t={last!r}")
                last = line["t"]
                yield line
        _require(first is not None, f"{path}: no trajectory records")
        dt, t_end = self.rc.stepper.dt, self.rc.stepper.t_end
        if self.blowup is None and last < first + t_end - 0.5 * dt:
            raise ConfigError(f"{path}: truncated: last sample t={last:g} "
                              f"but the run covers t_end={t_end:g}")


def cmd_certify(args) -> int:
    path = Path(args.timeseries)
    try:
        records = _Records(path)
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
    rc = records.rc
    try:
        cert_cfg = rc.cert_cfg if args.mso is None \
            else replace(rc.cert_cfg, mso=args.mso)
    except ValueError as e:
        raise ConfigError(f"--mso {args.mso:g}: {e}")

    mismatches, count = [], 0   # the first 10 mismatches, and their count

    def compare(stored: dict, fresh):
        nonlocal count
        new = vars(fresh)
        if new != stored:   # else every derived field reproduces
            for f in CERT_FIELDS:
                if stored[f] != new[f]:
                    count += 1
                    if len(mismatches) < 10:
                        mismatches.append(f"t={stored['t']:g}: {f} stored "
                                          f"{stored[f]!r} recomputed "
                                          f"{new[f]!r}")

    try:
        summary, k = replay_certificates(
            records, rc.p, rc.dom, cert_cfg,
            compare if args.mso is None else None)
    except ConfigError:
        raise
    except ValueError as e:     # constants out of range for the stored
        raise ConfigError(f"{path}: {e}")   # config
    for m in mismatches:
        print(f"  {m}", file=sys.stderr)
    _require(not count, f"{path}: {count} stored flags do not reproduce "
             "(stream corrupt or version skew)")
    print(f"certify {path.name}  hash {records.hash}  "
          f"({summary.n} records)")
    print(f"  constants: M7={k.M7:.6g} M8={k.M8:.6g} M9={k.M9:.6g} "
          f"t0={k.t0:.6g} M_so={k.M_so:g}")
    if args.mso is not None:
        print(f"  M_so overridden to {args.mso:g}")
    if records.blowup is not None:
        print(f"  stream ends in BLOWUP at t={records.blowup['t']}")
    return _report(summarize_records(summary), records.blowup)


def _sweep_child(param, value, doc, jsonl_path: Path, base_dir: Path) -> dict:
    row = {c: "" for c in _SWEEP_COLS}
    row["parameter"], row["value"] = param, value
    try:
        if isinstance(doc.get("output"), dict):     # else build_config refuses
            # each row names its own plot CSV and snapshots in its header
            out = _read_block(doc["output"], _OUTPUT, "output")
            doc = dict(doc, output=dict(out, snapshot_prefix=None, plot_csv=(
                out["plot_csv"] and str(jsonl_path.with_suffix(".csv")))))
        rc = build_config(doc, base_dir)
        decay = []      # (t, ||theta||^2 + ||phi||^2) per sample
        suite, traj, _ = _execute(
            rc, jsonl_path, base_dir,
            lambda rec: decay.append((rec.t, rec.theta_sq + rec.phi_sq)))
        last = suite.summary.last
        row.update(t_end=last.t, E_Y_final=last.E_Y,
                   theta_sq_final=last.theta_sq, phi_sq_final=last.phi_sq,
                   lap_psi_sq_final=last.lap_psi_sq,
                   config_hash=rc.config_hash, M7=suite.k.M7)
        row["decay_rate_measured"] = measured_decay_rate(
            *zip(*decay), t_lo=min(1.0, 0.5 * last.t), t_hi=last.t)
        try:
            row["spectral_abscissa"] = spectral_abscissa(
                assemble_linear(rc.p, rc.dom))
        except ValueError:
            pass    # dense spectrum refused at this truncation
        summary = {s["name"]: s for s in summarize_records(suite.summary)}
        for name in ("decay", "psi_absorb", "h1_absorb"):
            if summary[name]["ok"] is not None:
                row[f"{name}_ok"] = summary[name]["ok"]
        if summary["ebal"]["worst_slack"] is not None:
            row["max_ebal_resid"] = summary["ebal"]["worst_slack"]
        row["status"] = "ok" if traj.failure is None \
            else f"blowup t={traj.failure['t']:g}"
    except Exception as e:
        row["status"] = f"error: {e}"
    return row


def _fan_out(fn, tasks: list, lost):
    """Yield `fn(*task)` for each task, in order, running the tasks on every
    CPU this process may use.  With n the smaller of len(tasks) and that
    count, task i runs in this process when i % n == 0; otherwise forked
    child i % n runs it, as one of its share tasks[i % n::n], and pickles
    the result down a pipe of its own.  A child closes every pipe end it
    inherits but its own write end and leaves by `os._exit` whatever
    happens, so it never unwinds into its caller's stack (no atexit
    handlers, no flush of the buffers it inherited); should this process
    die, the child's next write fails and ends it.  A child whose pipe ends
    before it has sent all its results is reaped there, and each of its
    tasks still unsent yields `lost(*task, reason)` instead, the reason
    naming the child's exit code or the signal that ended it.  Without
    `os.sched_getaffinity`, every task runs here.  Every child is reaped
    before the generator ends, killed first if the generator ends early
    (this process raised, or stopped iterating)."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    n = min(len(tasks), len(cpus) or 1)
    kids, ended = [], {}    # (pid, read end) of child k at k - 1; pid: status
    try:
        for k in range(1, n):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    for fd in [r] + [fh.fileno() for _, fh in kids]:
                        os.close(fd)
                    out = open(w, "wb")
                    for task in tasks[k::n]:
                        pickle.dump(fn(*task), out)
                        out.flush()
                finally:
                    os._exit(0)
            os.close(w)
            kids.append((pid, open(r, "rb")))
        for i, task in enumerate(tasks):
            if i % n == 0:
                yield fn(*task)
                continue
            pid, fh = kids[i % n - 1]
            if pid not in ended:
                try:
                    result = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):   # it died
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    ended[pid] = f"exit {code}" if code >= 0 \
                        else f"signal {-code}"
            yield result if pid not in ended \
                else lost(*task, f"worker died ({ended[pid]})")
    finally:    # a child still running is mid-task: this process ended early
        for pid, fh in kids:
            fh.close()
            if pid not in ended:
                os.kill(pid, 9)     # SIGKILL; `signal` costs ~1 ms to import
                os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    spec_path = Path(args.spec)
    base_dir = spec_path.resolve().parent
    spec = _read_block(read_json(spec_path), _SWEEP, "sweep")
    _require(("base" in spec) != ("base_path" in spec),
             "sweep needs exactly one of 'base' or 'base_path'")
    base = spec["base"] if "base" in spec else _typed(
        "base_path", read_json(base_dir / spec["base_path"]), dict)
    param = spec["parameter"]
    _require(param in _SWEEP_PARAMS, f"sweep parameter must be one of "
             f"{_SWEEP_PARAMS}, got {param!r}")

    out_dir = base_dir / spec.get("output_dir", spec_path.stem + "_runs")
    csv_path = base_dir / spec.get("csv", spec_path.stem + ".csv")
    streams = {}    # each row's stream file, refused if two rows share one
    for v in spec["values"]:
        try:
            tag = f"{float(v):g}"
        except (TypeError, ValueError, OverflowError):
            tag = str(v)
        path = out_dir / f"{param}={tag}.jsonl"
        if path in streams:
            raise ConfigError(f"sweep values {streams[path][1]!r} and {v!r} "
                              f"would both write {path}")
        streams[path] = (param, v, {**json.loads(json.dumps(base)), param: v},
                         path, base_dir)    # the arguments of its row
    out_dir.mkdir(parents=True, exist_ok=True)

    def lost(param, v, doc, path, base_dir, reason) -> dict:
        return dict.fromkeys(_SWEEP_COLS, "") | {
            "parameter": param, "value": v, "status": f"error: {reason}"}

    rows = []
    with open(csv_path, "w", newline="") as fh:    # before any row runs
        w = csv.DictWriter(fh, fieldnames=_SWEEP_COLS)
        w.writeheader()
        for row in _fan_out(_sweep_child, list(streams.values()), lost):
            rows.append(row)
            w.writerow(row)
    bad = [r for r in rows if str(r["status"]) != "ok"]
    print(f"sweep {param} over {len(rows)} values -> {csv_path}")
    for r in bad:
        print(f"  {param}={r['value']}: {r['status']}")
    return EXIT_OK


def cmd_linearize(args) -> int:
    cfg_path = Path(args.config)
    rc = load_config(cfg_path)
    L = assemble_linear(rc.p, rc.dom)
    absc = spectral_abscissa(L)
    eigs = L.block_eigenvalues()
    mu = rc.dom.plan.mu
    out = Path(args.out) if args.out else cfg_path.with_suffix(".spectrum.csv")
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("m", "n", "mu", "psi_eig", "block_eig1_re",
                    "block_eig1_im", "block_eig2_re", "block_eig2_im"))
        for i in range(rc.dom.Nx):
            for j in range(rc.dom.Nz):
                e1, e2 = eigs[i, j]
                w.writerow((i + 1, j + 1, repr(float(mu[i, j])),
                            repr(float(L.lpsi[i, j])),
                            repr(float(e1.real)), repr(float(e1.imag)),
                            repr(float(e2.real)), repr(float(e2.imag))))
    print(f"linearize {cfg_path.name}: {rc.dom.Nx}x{rc.dom.Nz} modes "
          f"-> {out}")
    print(f"  spectral abscissa: {absc:.12g}")
    # with conduction the per-mode union is not the operator's spectrum
    if not rc.p.conduction_coupling and rc.dom.Nx <= 8 and rc.dom.Nz <= 8:
        dense = np.linalg.eigvals(L.dense())
        union = np.concatenate([L.lpsi.ravel().astype(complex),
                                eigs.ravel()])
        d1 = max(np.min(np.abs(dense - u)) for u in union)
        d2 = max(np.min(np.abs(union - d)) for d in dense)
        print(f"  dense cross-check ({3 * rc.dom.Nx * rc.dom.Nz} modes): "
              f"max eigenvalue mismatch {max(d1, d2):.3e}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="ltne",
        description="Sine-Galerkin simulator for couple-stress two-"
                    "temperature porous convection with runtime certificate "
                    "checking.")
    sub = parser.add_subparsers(dest="command", required=True)
    pr = sub.add_parser("run", help="integrate a config, certify on the fly")
    pr.add_argument("config", help="JSON run configuration")
    pr.set_defaults(func=cmd_run)
    pc = sub.add_parser("certify",
                        help="re-evaluate certificates from a JSONL stream")
    pc.add_argument("timeseries", help="JSONL file written by 'run'")
    pc.add_argument("--mso", type=float, default=None,
                    help="override the Sobolev embedding constant M_so")
    pc.set_defaults(func=cmd_certify)
    ps = sub.add_parser("sweep", help="run a one-parameter family, emit CSV")
    ps.add_argument("spec", help="JSON sweep specification")
    ps.set_defaults(func=cmd_sweep)
    pl = sub.add_parser("linearize",
                        help="per-mode spectrum of the linear operator")
    pl.add_argument("config", help="JSON run configuration")
    pl.add_argument("--out", default=None, help="output CSV path")
    pl.set_defaults(func=cmd_linearize)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
