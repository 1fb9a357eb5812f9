"""One benchmark repetition in a fresh interpreter.

    python3 child.py env
    python3 child.py setup <config.json>
    python3 child.py workload <spec.json> [--trace]

`run.py` starts this with `OPENBLAS_NUM_THREADS` pinned and `src/` on
`PYTHONPATH`, from inside the workload's scratch directory.  The last line
of standard output is one JSON object; the CLI's own output is captured
into it.

`workload` calls `ltne.cli.main` once per command in the spec, as a user
would call `ltne`.  With `--trace` it wraps, from outside the package, the
names `ltne.cli` imports from the other modules, `CertificateSuite.
on_sample`, `ltne.cli.main` and `ltne.cli._execute` (one certified run: the
unit a sweep executes per row), keeps one span per call in memory and
returns them all at the end.  After the commands it times single layers on
the run's own final state and on fixed sizes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

# Layer of each traced name; `cli.main` and `cli.row` belong to the CLI.
TRACED = {
    "load_config": "config", "build_config": "config",
    "build_initial_state": "config", "integrate": "integrator",
    "replay_certificates": "certificates",
    "summarize_records": "certificates",
}
JACOBIAN_SIZES = (16, 32, 64, 128)


def _thread_usage():
    return resource.getrusage(resource.RUSAGE_THREAD)


class Tracer:
    """Spans (name, start, end, parent) kept in memory.  A span opened on a
    thread with no open span takes `root` as its parent, so sweep rows
    running on pool threads hang under the `main` span that started them."""

    def __init__(self):
        self.spans = []
        self.root = None
        self.last_run = None     # (args of the last integrate call, result)
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, layer, fn):
        is_run = name == "integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": stack[-1] if stack else self.root}
            if name == "replay_certificates":
                span["records"] = len(args[0])
            stack.append(span["id"])
            if name == "main":
                self.root = span["id"]
            ru0 = _thread_usage() if is_run else None
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if is_run:
                    ru1 = _thread_usage()
                    span["minflt"] = ru1.ru_minflt - ru0.ru_minflt
                    span["sys_s"] = ru1.ru_stime - ru0.ru_stime
                if name == "main":
                    self.root = None
                self.spans.append(span)
            if is_run:
                self.last_run = (args, out)
                span["steps"] = int(round(args[2].t_end / args[2].dt))
            return out
        return traced

    def install(self):
        import ltne.cli as cli
        from ltne.certificates import CertificateSuite
        for name, layer in TRACED.items():
            setattr(cli, name, self.wrap(name, layer, getattr(cli, name)))
        cli._execute = self.wrap("row", "cli", cli._execute)
        CertificateSuite.on_sample = self.wrap(
            "on_sample", "certificates", CertificateSuite.on_sample)
        return self.wrap("main", "cli", cli.main)


def _time_calls(fn, *args, budget=0.15, min_calls=15):
    """Median seconds per call and minor page faults per call."""
    fn(*args)
    times = []
    ru0 = _thread_usage()
    stop = time.perf_counter() + budget
    while len(times) < min_calls or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    ru1 = _thread_usage()
    return statistics.median(times), (ru1.ru_minflt - ru0.ru_minflt) / len(times)


def probe_layers(run_args, run_result) -> dict:
    """Time single public calls on the final state of the traced run, and
    the Jacobian on smooth random fields at the fixed sizes."""
    import numpy as np
    from ltne import (Domain, SpectralField, jacobian, rhs, to_grid,
                      to_spectral)
    s, p = run_result.final, run_args[1]
    dom = s.dom
    out = {"Nx": dom.Nx, "Nz": dom.Nz, "Mx": dom.Mx, "Mz": dom.Mz}
    out["jacobian_s"], out["jacobian_minflt"] = _time_calls(
        jacobian, s.psi, s.theta)
    out["to_grid_s"], _ = _time_calls(to_grid, s.theta)
    out["to_spectral_s"], _ = _time_calls(to_spectral, to_grid(s.theta))
    out["rhs_s"], _ = _time_calls(rhs, s, p)
    rng = np.random.default_rng(0)
    for n in JACOBIAN_SIZES:
        d = Domain(a=1.0, Nx=n, Nz=n)
        damp = np.exp(-(np.arange(n)[:, None] + np.arange(n)[None, :]) / 4)
        u, v = (SpectralField(rng.uniform(-1, 1, (n, n)) * damp, d)
                for _ in range(2))
        out[f"jacobian_s.n{n}"], out[f"jacobian_minflt.n{n}"] = \
            _time_calls(jacobian, u, v)
    return out


def environment() -> dict:
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        with contextlib.suppress(OSError):
            return path.read_text().strip()
        return None

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "l2_per_core": cache(2), "l3": cache(3)}


def _setup(config_path) -> dict:
    t0 = time.perf_counter()
    import ltne
    t1 = time.perf_counter()
    rc = ltne.load_config(config_path)
    t2 = time.perf_counter()
    ltne.build_initial_state(rc.ic, rc.dom, rc.p)
    t3 = time.perf_counter()
    return {"ltne_file": ltne.__file__, "import_s": t1 - t0,
            "load_config_s": t2 - t1, "build_initial_state_s": t3 - t2}


def _workload(spec_path, trace: bool) -> dict:
    spec = json.loads(Path(spec_path).read_text())
    import ltne.cli
    tracer = Tracer()
    main = tracer.install() if trace else ltne.cli.main
    commands = []
    t_start = time.perf_counter()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:
                code = None
                err.write(traceback.format_exc())
        commands.append({"argv": argv, "exit": code,
                         "wall_s": time.perf_counter() - t0,
                         "stdout": out.getvalue(),
                         "stderr": err.getvalue()[-4000:]})
    result = {"ltne_file": ltne.cli.__file__, "commands": commands,
              "cmd_wall_s": time.perf_counter() - t_start}
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["usage"] = {"maxrss_kib": ru.ru_maxrss, "utime_s": ru.ru_utime,
                       "stime_s": ru.ru_stime, "nivcsw": ru.ru_nivcsw,
                       "minflt": ru.ru_minflt}
    if trace:
        result["spans"] = tracer.spans
        t0 = time.perf_counter()
        if tracer.last_run is not None:
            result["probes"] = probe_layers(*tracer.last_run)
        result["probe_wall_s"] = time.perf_counter() - t0
    return result


def main(argv) -> int:
    mode = argv[0]
    if mode == "env":
        result = environment()
    elif mode == "setup":
        result = _setup(argv[1])
    elif mode == "workload":
        result = _workload(argv[1], trace="--trace" in argv[2:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
