"""Benchmark of certified `ltne` runs: `ltne run`, `ltne certify` and
`ltne sweep`, driven through `ltne.cli.main` in a fresh interpreter per
repetition.

    python3 perfbench/run.py --workload run-n64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run.  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the lines before it record
the environment and every repetition.  NOTES.md says why each workload and
metric is here and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from child import JACOBIAN_SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

BLAS_THREADS = "1"
SETUP_REPS = 11
IC_SEEDS = 16          # --seed picks one of the initial states in REFERENCE
REL_TOL = 1e-9         # final E_Y and theta_sq against REFERENCE
DEADLINE_S = 165.0     # the whole run, setup included
CHILD = [sys.executable, str(HERE / "child.py")]

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "certify_s": "s",
    "peak_rss_mib": "MiB", "cpu_s": "s",
}
PER_LAYER = {
    "config.import_s": "s", "config.load_config_s": "s",
    "config.build_initial_state_s": "s",
    "spectral.jacobian_us": "us", "spectral.jacobian_minflt_per_call": "count",
    "spectral.jacobian_gflops": "GFLOP/s", "spectral.jacobian_bytes": "B",
    "spectral.to_grid_us": "us", "spectral.to_spectral_us": "us",
    **{f"spectral.jacobian_us.n{n}": "us" for n in JACOBIAN_SIZES},
    **{f"spectral.jacobian_minflt_per_call.n{n}": "count"
       for n in JACOBIAN_SIZES},
    "dynamics.rhs_us": "us",
    "integrator.run_s": "s", "integrator.self_s": "s",
    "integrator.step_us": "us", "integrator.steps": "count",
    "integrator.minflt_per_step": "count", "integrator.sys_cpu_s": "s",
    "certificates.on_sample_s": "s", "certificates.on_sample_us": "us",
    "certificates.on_sample_growth": "ratio",
    "certificates.samples": "count", "certificates.replay_s": "s",
    "certificates.replay_us_per_record": "us",
    "certificates.summarize_s": "s",
    "cli.self_s": "s", "cli.jsonl_bytes": "B",
    "cli.sweep_concurrency": "ratio", "cli.sweep_row_s": "s",
    "proc.nivcsw": "count", "trace.wall_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One certified run (`run`, then `certify` on its stream) or one `Ra`
    sweep (`sweep`, then `certify` on every row's stream)."""

    name: str
    config: dict
    sweep_values: tuple = ()

    @property
    def steps(self) -> int:
        n = round(self.config["t_end"] / self.config["dt"])
        return n * max(1, len(self.sweep_values))

    @property
    def streams(self) -> list[str]:
        if not self.sweep_values:
            return ["case.jsonl"]
        return [f"rows/Ra={v:g}.jsonl" for v in self.sweep_values]

    @property
    def commands(self) -> list[list[str]]:
        first = ["sweep", "sweep.json"] if self.sweep_values \
            else ["run", "case.json"]
        return [first] + [["certify", s] for s in self.streams]

    def write(self, workdir: Path):
        """Input files; `case.json` is also what the setup probe loads."""
        (workdir / "case.json").write_text(json.dumps(self.config))
        if self.sweep_values:
            (workdir / "sweep.json").write_text(json.dumps({
                "parameter": "Ra", "values": list(self.sweep_values),
                "base": self.config, "output_dir": "rows",
                "csv": "sweep.csv"}))
        (workdir / "spec.json").write_text(
            json.dumps({"commands": self.commands}))

    def outputs(self, workdir: Path) -> list[Path]:
        extra = ["sweep.csv"] if self.sweep_values else []
        return [workdir / p for p in self.streams + extra]


def _case(ic_seed: int, **kw) -> dict:
    doc = {"Ra": 100.0, "Pr": 1.0, "Da": 1.0, "C": 1.0, "lambda": 1.0,
           "gamma": 1.0, "alpha": 1.0, "a": 1.0, "dt": 1e-3,
           "ic": {"kind": "random", "seed": ic_seed, "energy": 1.0,
                  "decay": 1.0}}
    doc.update(kw)
    return doc


# Why each workload exists is in NOTES.md.  BENCHMARK.json lists the two
# whose repetitions fit its time budget; `run-n64` is kept for runs by hand.
WORKLOADS = {
    "run-n64": lambda s: Workload("run-n64", _case(
        s, Ra=1000.0, Nx=64, Nz=64, t_end=1.5, sample_every=50)),
    "certify-dense-n16": lambda s: Workload("certify-dense-n16", _case(
        s, Nx=16, Nz=16, t_end=2.0, sample_every=1)),
    "sweep-n32": lambda s: Workload("sweep-n32", _case(
        s, Nx=32, Nz=32, t_end=1.5, sample_every=50),
        sweep_values=(10.0, 100.0, 300.0, 1000.0)),
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed % IC_SEEDS)


class ChildError(RuntimeError):
    pass


def spawn(args, workdir: Path, timeout: float) -> tuple[dict, float]:
    """Run child.py once; return its result and its wall time."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(CHILD + list(args), cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"child {args[0]} exceeded {timeout:.0f} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not out.strip():
        raise ChildError(f"child {args[0]} exit {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    src = ROOT / "src"
    if "ltne_file" in result and \
            not Path(result["ltne_file"]).resolve().is_relative_to(src):
        raise ChildError(f"imported ltne from {result['ltne_file']}, "
                         f"not from {src}")
    return result, wall


# -- correctness ------------------------------------------------------------

def _final_record(path: Path) -> dict | None:
    lines = path.read_text().splitlines()
    last = json.loads(lines[-1]) if len(lines) > 1 else {}
    return None if "blowup" in last or "E_Y" not in last else last


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check_rep(wl: Workload, rep: dict, workdir: Path, reference,
              expect_digest: str | None):
    """Correctness gate for one repetition.  Each command, each sweep row,
    each stream's final values and the stream digest is one operation;
    returns (attempted, problems, digest)."""
    problems, attempted = [], 0
    for cmd in rep["commands"]:
        attempted += 1
        lines = cmd["stdout"].strip().splitlines()
        verdict = lines[-1] if lines else ""
        if cmd["exit"] != 0 or (cmd["argv"][0] != "sweep"
                                and verdict != "verdict: PASS"):
            problems.append(f"{' '.join(cmd['argv'])}: exit {cmd['exit']}, "
                            f"{verdict!r} {cmd['stderr'][-300:]!r}")
    if wl.sweep_values:
        rows = {}
        with contextlib.suppress(OSError):
            with open(workdir / "sweep.csv", newline="") as fh:
                rows = {float(r["value"]): r for r in csv.DictReader(fh)}
        for v in wl.sweep_values:
            attempted += 1
            r = rows.get(v, {})
            flags = [r.get(k) for k in ("decay_ok", "psi_absorb_ok",
                                        "h1_absorb_ok")]
            if r.get("status") != "ok" or flags != ["True"] * 3:
                problems.append(f"sweep row Ra={v:g}: status "
                                f"{r.get('status')!r}, flags {flags}")
    refs = reference or [None] * len(wl.streams)
    for stream, ref in zip(wl.streams, refs):
        attempted += 1
        try:
            last = _final_record(workdir / stream)
        except (OSError, ValueError):
            last = None
        got = last and [last["E_Y"], last["theta_sq"]]
        if not got or not ref or not all(map(_close, got, ref)):
            problems.append(f"{stream}: final [E_Y, theta_sq] {got} "
                            f"vs reference {ref}")
    attempted += 1
    try:
        got = digest(wl.outputs(workdir))
    except OSError as e:
        got = f"missing output ({e})"
    if expect_digest is not None and got != expect_digest:
        problems.append(f"stream digest {got[:16]} differs from the first "
                        f"repetition's {expect_digest[:16]}")
    return attempted, problems, got


# -- per-layer metrics from one traced repetition ---------------------------

def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        a, b = s["start"], s["end"]
        cover = _covered([(max(x, a), min(y, b)) for x, y in kids[s["id"]]
                          if min(y, b) > max(x, a)])
        out[s["id"]] = b - a - cover
    return out


def jacobian_cost(Nx, Nz, Mx, Mz) -> tuple[float, float]:
    """Flops and bytes moved (computed from array sizes, caches ignored) of
    one dealiased Jacobian: four derivative syntheses, the pointwise
    bracket, one analysis."""
    def gemm(m, k, n):
        return 2.0 * m * k * n, 8.0 * (m * k + k * n + m * n)

    parts = [gemm(Mx, Nx, Nz), gemm(Mx, Nz, Mz)] * 4 + \
        [gemm(Nx, Mx, Mz), gemm(Nx, Mz, Nz)]
    flops = sum(f for f, _ in parts) + 3.0 * Mx * Mz + Nx * Nz
    moved = sum(b for _, b in parts) + 8.0 * (9 * Mx * Mz + 2 * Nx * Nz)
    return flops, moved


def layer_metrics(rep: dict, wl: Workload, workdir: Path, wall: float
                  ) -> dict:
    spans = rep["spans"]
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    dur = lambda s: s["end"] - s["start"]
    m = {}

    runs = by["integrate"]
    steps = sum(s["steps"] for s in runs)
    m["integrator.run_s"] = sum(map(dur, runs))
    m["integrator.self_s"] = sum(selfs[s["id"]] for s in runs)
    m["integrator.steps"] = steps
    m["integrator.step_us"] = 1e6 * m["integrator.self_s"] / steps
    m["integrator.minflt_per_step"] = sum(s["minflt"] for s in runs) / steps
    m["integrator.sys_cpu_s"] = sum(s["sys_s"] for s in runs)

    samples = by["on_sample"]
    m["certificates.on_sample_s"] = sum(map(dur, samples))
    m["certificates.on_sample_us"] = 1e6 * statistics.median(
        map(dur, samples))
    m["certificates.samples"] = len(samples)
    growth = []
    in_order = sorted(samples, key=lambda s: s["start"])
    for r in runs:
        ds = [dur(s) for s in in_order if s["parent"] == r["id"]]
        k = max(1, len(ds) // 10)
        growth.append(statistics.median(ds[-k:]) / statistics.median(ds[:k]))
    m["certificates.on_sample_growth"] = statistics.median(growth)
    replays = by["replay_certificates"]
    m["certificates.replay_s"] = sum(map(dur, replays))
    m["certificates.replay_us_per_record"] = 1e6 * m[
        "certificates.replay_s"] / sum(s["records"] for s in replays)
    m["certificates.summarize_s"] = sum(map(dur, by["summarize_records"]))

    rows = by["row"]
    row_parents = {s["parent"] for s in rows}
    m["cli.self_s"] = sum(selfs[s["id"]] for s in spans if s["layer"] == "cli")
    m["cli.jsonl_bytes"] = sum((workdir / p).stat().st_size
                               for p in wl.streams)
    m["cli.sweep_row_s"] = statistics.median(map(dur, rows))
    m["cli.sweep_concurrency"] = sum(map(dur, rows)) / sum(
        dur(s) for s in by["main"] if s["id"] in row_parents)
    m["proc.nivcsw"] = rep["usage"]["nivcsw"]
    m["trace.wall_s"] = wall - rep["probe_wall_s"]

    pr = rep["probes"]
    flops, moved = jacobian_cost(pr["Nx"], pr["Nz"], pr["Mx"], pr["Mz"])
    m["spectral.jacobian_us"] = 1e6 * pr["jacobian_s"]
    m["spectral.jacobian_minflt_per_call"] = pr["jacobian_minflt"]
    m["spectral.jacobian_gflops"] = flops / pr["jacobian_s"] / 1e9
    m["spectral.jacobian_bytes"] = moved
    m["spectral.to_grid_us"] = 1e6 * pr["to_grid_s"]
    m["spectral.to_spectral_us"] = 1e6 * pr["to_spectral_s"]
    for n in JACOBIAN_SIZES:
        m[f"spectral.jacobian_us.n{n}"] = 1e6 * pr[f"jacobian_s.n{n}"]
        m[f"spectral.jacobian_minflt_per_call.n{n}"] = \
            pr[f"jacobian_minflt.n{n}"]
    m["dynamics.rhs_us"] = 1e6 * pr["rhs_s"]
    return m


def end_to_end_metrics(rep: dict, wl: Workload, wall: float) -> dict:
    usage = rep["usage"]
    return {
        "wall_s": wall,
        "steps_per_s": wl.steps / wall,
        "certify_s": sum(c["wall_s"] for c in rep["commands"]
                         if c["argv"][0] == "certify"),
        "peak_rss_mib": usage["maxrss_kib"] / 1024.0,
        "cpu_s": usage["utime_s"] + usage["stime_s"],
    }


# -- main --------------------------------------------------------------------

def load_reference(name: str, seed: int):
    with contextlib.suppress(OSError, KeyError, ValueError):
        return json.loads(REFERENCE.read_text())[name][str(seed % IC_SEEDS)]
    return None


def bench(wl: Workload, seconds: float, trace: bool, workdir: Path,
          reference, log=print) -> dict:
    """Set up, repeat the workload for `seconds`, gate every repetition;
    return the result object the benchmark prints last."""
    start = time.perf_counter()
    remaining = lambda: start + DEADLINE_S - time.perf_counter()
    wl.write(workdir)
    attempted, problems = 0, []
    log(json.dumps({"env": spawn(["env"], workdir, remaining())[0],
                    "workload": wl.name, "config": wl.config}))

    setups = []
    for _ in range(SETUP_REPS):
        attempted += 1
        try:
            setups.append(spawn(["setup", "case.json"], workdir, remaining()))
        except ChildError as e:
            problems.append(str(e))

    samples = defaultdict(list)
    first_digest, walls = None, []
    t0 = time.perf_counter()
    # Go on while a repetition of median length still fits in `seconds`.
    while not walls or (time.perf_counter() - t0 + statistics.median(walls)
                        <= seconds and remaining() > 2 * max(walls)):
        for p in wl.outputs(workdir):
            p.unlink(missing_ok=True)
        try:
            rep, wall = spawn(["workload", "spec.json"] +
                              (["--trace"] if trace else []),
                              workdir, remaining())
        except ChildError as e:
            attempted += len(wl.commands)
            problems.append(str(e))
            break
        walls.append(wall)
        n, bad, got = check_rep(wl, rep, workdir, reference, first_digest)
        first_digest = first_digest or got
        attempted += n
        problems += bad
        if not bad:     # time only repetitions that passed the gate
            values = layer_metrics(rep, wl, workdir, wall) if trace \
                else end_to_end_metrics(rep, wl, wall)
            for k, v in values.items():
                samples[k].append(v)
        log(json.dumps({"rep": len(walls), "wall_s": wall,
                        "cmd_wall_s": rep["cmd_wall_s"],
                        "problems": bad}))

    if trace:
        for key in ("import_s", "load_config_s", "build_initial_state_s"):
            samples[f"config.{key}"] = [r[key] for r, _ in setups]
        units = PER_LAYER
    else:
        samples["setup_s"] = [w for _, w in setups]
        units = END_TO_END
    metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
               for k, u in units.items() if samples[k]}
    for p in problems:
        log(json.dumps({"problem": p}))
    return {"correct": not problems and len(metrics) == len(units),
            "attempted": attempted, "failed": len(problems),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ltne" / "__init__.py").is_file():
        print(f"error: no ltne sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    workdir = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = bench(wl, args.seconds, bool(args.trace), workdir,
                       load_reference(wl.name, args.seed))
    except ChildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
