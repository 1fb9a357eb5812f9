"""Re-measure the baselines ROADMAP.md quotes, with one BLAS thread, and
print them as one JSON object.

    python3 perfbench/baselines.py

- step cost of `imex_cnab2` without certificates, and the Jacobian alone,
  at N = 16, 32, 64, 128 (Ra=100, all other numbers 1);
- a certified against an uncertified N=16 run at 2000, 4000 and 8000
  samples (`sample_every=1`);
- the four N=32 rows of the `sweep-n32` workload run serially, on the
  sweep's thread pool of 2, and on a spawned process pool of 2.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _state(n: int, Ra: float = 100.0):
    from ltne import Domain, Params, build_initial_state
    p = Params(Ra=Ra, Pr=1.0, Da=1.0, C=1.0, lam=1.0, gamma=1.0, alpha=1.0,
               a=1.0)
    dom = Domain(a=1.0, Nx=n, Nz=n)
    ic = {"kind": "random", "seed": 7, "energy": 1.0, "decay": 1.0}
    return build_initial_state(ic, dom, p), p


def step_cost(n: int) -> dict:
    from ltne import StepperConfig, jacobian, run
    s0, p = _state(n)
    steps = max(50, 40000 // n)
    cfg = StepperConfig(dt=1e-3, t_end=steps * 1e-3, sample_every=steps)
    run(s0, p, StepperConfig(dt=1e-3, t_end=2e-3))
    t0 = time.perf_counter()
    run(s0, p, cfg)
    step = (time.perf_counter() - t0) / steps
    jacobian(s0.psi, s0.theta)
    t0 = time.perf_counter()
    for _ in range(steps):
        jacobian(s0.psi, s0.theta)
    jac = (time.perf_counter() - t0) / steps
    return {"step_ms": 1e3 * step, "jacobian_ms": 1e3 * jac}


def certified_cost(samples: int) -> dict:
    from ltne import (CertificateConfig, CertificateSuite, StepperConfig,
                      run)
    s0, p = _state(16)
    cfg = StepperConfig(dt=1e-3, t_end=samples * 1e-3, sample_every=1)
    out = {}
    for certified in (True, False):
        suite = CertificateSuite(p, s0.dom, CertificateConfig(), s0) \
            if certified else None
        t0 = time.perf_counter()
        run(s0, p, cfg, monitors=suite)
        out["certified_s" if certified else "uncertified_s"] = \
            time.perf_counter() - t0
    out["cert_ms_per_sample"] = 1e3 * (
        out["certified_s"] - out["uncertified_s"]) / samples
    return out


def _import(_):
    import ltne.cli  # noqa: F401


def _row(job):
    import ltne.cli
    return ltne.cli._sweep_child(*job)["status"]


def sweep_executors(workdir: Path) -> dict:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    import run as bench
    wl = bench.make_workload("sweep-n32", 7)
    jobs = [("Ra", v, dict(wl.config, Ra=v), workdir / f"Ra={v:g}.jsonl",
             workdir) for v in wl.sweep_values]
    out = {}
    t0 = time.perf_counter()
    assert [_row(j) for j in jobs] == ["ok"] * len(jobs)
    out["serial_s"] = time.perf_counter() - t0
    for name, pool in (
            ("threads2_s", lambda: ThreadPoolExecutor(2)),
            ("processes2_s", lambda: ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("spawn")))):
        with pool() as ex:
            if name == "processes2_s":     # worker start-up not timed
                list(ex.map(_import, range(2)))
            t0 = time.perf_counter()
            assert list(ex.map(_row, jobs)) == ["ok"] * len(jobs)
            out[name] = time.perf_counter() - t0
    return out


def main() -> int:
    import json
    import shutil
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    os.environ["PYTHONPATH"] = os.pathsep.join(sys.path[:2])
    workdir = ROOT / ".perfbench_work" / f"baselines-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = {
            "step": {f"n{n}": step_cost(n) for n in (16, 32, 64, 128)},
            "certificates": {f"s{k}": certified_cost(k)
                             for k in (2000, 4000, 8000)},
            "sweep": sweep_executors(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
