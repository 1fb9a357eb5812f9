"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(**kw) -> run.Workload:
    return run.Workload("tiny", run._case(
        3, Nx=8, Nz=8, t_end=0.2, sample_every=1, **kw))


def _finals(wl, workdir):
    return [[r["E_Y"], r["theta_sq"]]
            for r in (run._final_record(workdir / s) for s in wl.streams)]


def _fail_ratio(result) -> float:
    return result["failed"] / result["attempted"]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert declared == (run.PER_LAYER if trace else run.END_TO_END)
    proc = subprocess.run(
        [sys.executable, str(HERE.parent / "run.py"), "--workload",
         "run-n64", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not (run.ROOT / ".perfbench_work").exists()


def test_tampered_stream_raises_fail_ratio(tmp_path):
    wl = _tiny()
    wl.write(tmp_path)
    ratios = {}
    for tamper in (False, True):
        (tmp_path / "spec.json").write_text(
            json.dumps({"commands": [["run", "case.json"]]}))
        ran, _ = run.spawn(["workload", "spec.json"], tmp_path, 60)
        reference = _finals(wl, tmp_path)
        if tamper:
            stream = tmp_path / "case.jsonl"
            lines = stream.read_text().splitlines()
            rec = json.loads(lines[-1])
            assert rec["decay_ok"] is True
            rec["decay_ok"] = False
            lines[-1] = json.dumps(rec, sort_keys=True)
            stream.write_text("\n".join(lines) + "\n")
        (tmp_path / "spec.json").write_text(
            json.dumps({"commands": [["certify", "case.jsonl"]]}))
        certified, _ = run.spawn(["workload", "spec.json"], tmp_path, 60)
        rep = {"commands": ran["commands"] + certified["commands"]}
        attempted, problems, _ = run.check_rep(wl, rep, tmp_path, reference,
                                               None)
        ratios[tamper] = len(problems) / attempted
        if tamper:
            assert any(p.startswith("certify case.jsonl: exit 3")
                       for p in problems), problems
    assert ratios == {False: 0.0, True: pytest.approx(1 / 4)}


def test_wrong_verdict_raises_fail_ratio(tmp_path):
    results = []
    for i, wl in enumerate(
            (_tiny(), _tiny(certificates={"tail_threshold": 1e-30,
                                            "tail_warmup": 0.0}))):
        work = tmp_path / str(i)
        work.mkdir()
        wl.write(work)
        run.spawn(["workload", "spec.json"], work, 60)
        results.append(run.bench(wl, 0, False, work, _finals(wl, work),
                                 log=lambda line: None))
    ok, failing = results
    assert _fail_ratio(ok) == 0.0 and ok["correct"]
    assert _fail_ratio(failing) > 0.0 and not failing["correct"]


def test_digest_mismatch_is_a_failure(tmp_path):
    wl = _tiny()
    wl.write(tmp_path)
    rep, _ = run.spawn(["workload", "spec.json"], tmp_path, 60)
    ref = _finals(wl, tmp_path)
    _, clean, digest = run.check_rep(wl, rep, tmp_path, ref, None)
    assert clean == [] and run.check_rep(wl, rep, tmp_path, ref,
                                         digest)[1] == []
    _, problems, _ = run.check_rep(wl, rep, tmp_path, ref, "0" * 64)
    assert len(problems) == 1 and "digest" in problems[0]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        # two overlapping children on other threads: together they cover 6
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 7.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert run.self_times(spans) == {0: 4.0, 1: 3.0, 2: 4.0, 3: 1.0}
