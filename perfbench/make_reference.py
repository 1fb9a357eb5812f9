"""Write reference.json: the final E_Y and theta_sq of every stream of every
workload, for each initial state `--seed` can pick.

    python3 perfbench/make_reference.py

Run it only when the physics or the workloads change on purpose: the
benchmark's correctness gate compares every run against these values.
"""

from __future__ import annotations

import json
import os
import shutil

import run


def format_reference(ref: dict) -> str:
    """JSON with one line per initial state."""
    return "{\n" + ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(finals)}"
            for seed, finals in seeds.items()) + "\n }"
        for name, seeds in ref.items()) + "\n}\n"


def main() -> int:
    ref = {}
    work = run.ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        for name in sorted(run.WORKLOADS):
            ref[name] = {}
            for seed in range(run.IC_SEEDS):
                wl = run.make_workload(name, seed)
                work.mkdir(parents=True)
                wl.write(work)
                rep, _ = run.spawn(["workload", "spec.json"], work, 600.0)
                _, problems, _ = run.check_rep(wl, rep, work, None, None)
                # Without a reference only the final-value checks may fail.
                bad = [p for p in problems if "vs reference None" not in p]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: {bad}")
                finals = [run._final_record(work / s) for s in wl.streams]
                ref[name][str(seed)] = [[f["E_Y"], f["theta_sq"]]
                                        for f in finals]
                print(name, seed, ref[name][str(seed)], flush=True)
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(format_reference(ref))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
