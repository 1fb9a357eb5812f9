import csv
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvals as dense_eigvals

import ltne
import ltne.cli as cli
from ltne import (ConfigError, Domain, SpectralField, assemble_linear,
                  build_config, config_hash, load_config, write_snapshot)
from ltne.cli import _sweep_child, main
from ltne.config import _read_block
from ltne.spectral import Plan


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _base_doc(**over):
    doc = {"Ra": 10.0, "Pr": 1.0, "Da": 1.0, "C": 1.0, "alpha": 1.0,
           "gamma": 1.0, "lambda": 1.0, "Nx": 8, "Nz": 8, "dt": 0.01,
           "t_end": 1.0, "sample_every": 10,
           "ic": {"kind": "random", "seed": 11, "energy": 0.5, "decay": 1.0}}
    doc.update(over)
    return doc


def test_run_then_certify_roundtrip(tmp_path, capsys):
    cfg = _write(tmp_path / "case.json", _base_doc(
        output={"jsonl": "case.jsonl", "snapshot_at": [0.5],
                "plot_csv": "case.csv"}))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    jsonl = tmp_path / "case.jsonl"
    assert jsonl.exists()
    assert (tmp_path / "case_t0.5.snap").exists()
    with open(tmp_path / "case.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    lines = jsonl.read_text().splitlines()
    assert len(rows) - 1 == len(lines) - 1   # one plot row per record
    meta = json.loads(lines[0])
    assert set(meta) == {"meta", "config_hash", "rule"}

    # reruns are byte identical
    first = jsonl.read_bytes()
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert jsonl.read_bytes() == first

    assert main(["certify", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "decay" in out and "h1_absorb" in out


def _run_case(tmp_path, capsys, **over):
    cfg = _write(tmp_path / "case.json",
                 _base_doc(output={"jsonl": "case.jsonl"}, **over))
    code = main(["run", str(cfg)])
    capsys.readouterr()
    return code, tmp_path / "case.jsonl"


_FLAGS = ("decay_ok", "diss_ok", "psi_absorb_ok", "h1_absorb_ok",
          "ebal_ineq_ok", "tail_ok")

# Each edit makes the stored record disagree with what its stored scalars
# imply, so certify must re-derive the flags and refuse the file.
_TAMPER = {
    "theta_sq": lambda v: 1.5 * v,
    **{f: (lambda v: not v) for f in _FLAGS},
    "tail_frac_k2": lambda v: 1.0,      # over the 1e-3 threshold
    "R_mid": lambda v: 1e300,           # breaks the dissipation inequality
    "E_half_mid": lambda v: 1e300,
    "E_Y_mid": lambda v: -1e300,
}


def test_stream_on_the_earlier_default_grid_certifies(tmp_path, capsys):
    # earlier versions resolved Mx = Mz = 2N + 2 by default; a stream stores
    # its grid, so one written on that grid keeps that version's hash (the
    # literal) and certifies
    cfg = _write(tmp_path / "old.json", _base_doc(
        Nx=4, Nz=4, Mx=10, Mz=10, output={"jsonl": "old.jsonl"}))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    head = json.loads((tmp_path / "old.jsonl").read_text().splitlines()[0])
    assert head["config_hash"] == "c90789bc6c32ff4e"
    assert (head["meta"]["Mx"], head["meta"]["Mz"]) == (10, 10)
    assert main(["certify", str(tmp_path / "old.jsonl")]) == 0
    assert "hash c90789bc6c32ff4e" in capsys.readouterr().out


def test_usage_errors_exit_3_with_one_error_line(capsys):
    # exit 2 means a blowup; a missing or malformed argument is bad input
    for argv, said in ((["certify"], "required: timeseries"),
                       (["certify", "x.jsonl", "--mso", "abc"],
                        "invalid float value: 'abc'"),
                       ([], "required: command")):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ltne") and said in err
        assert len(err.splitlines()) == 1


def test_certify_rejects_tampering(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    lines = jsonl.read_text().splitlines()
    last = json.loads(lines[-1])      # t = t_end: every certificate applies
    assert all(last[f] is True for f in _FLAGS)
    accepted = []
    for field, tamper in _TAMPER.items():
        rec = dict(last, **{field: tamper(last[field])})
        jsonl.write_text("\n".join(lines[:-1] + [json.dumps(rec)]) + "\n")
        code = main(["certify", str(jsonl)])
        if code != 3 or "do not reproduce" not in capsys.readouterr().err:
            accepted.append((field, code))
    assert accepted == []


def test_certify_prints_nothing_until_the_last_line_passes(tmp_path,
                                                          capsys):
    # the stream is replayed as it is read, yet a refusal on the last line
    # leaves stdout empty, and a malformed line anywhere wins over a flag
    # that does not reproduce on an earlier line
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    lines = jsonl.read_text().splitlines()
    last, early = json.loads(lines[-1]), json.loads(lines[2])
    cases = [
        (lines[:-1] + ["{bad"], f":{len(lines)}: malformed JSON"),
        (lines[:-1] + [json.dumps(dict(last, decay_ok=False))],
         "1 stored flags do not reproduce"),
        (lines[:2] + [json.dumps(dict(early, decay_ok=False))]
         + lines[3:-1] + ["{bad"], f":{len(lines)}: malformed JSON"),
    ]
    for edited, message in cases:
        jsonl.write_text("\n".join(edited) + "\n")
        assert main(["certify", str(jsonl)]) == 3, message
        out, err = capsys.readouterr()
        assert out == "" and message in err, err
    assert "decay_ok stored" not in err     # the last case's early flip


def test_certify_refuses_non_finite_record_values(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    lines = jsonl.read_text().splitlines()
    last = json.loads(lines[-1])
    for field, value in (("E_Y", float("inf")), ("tail_frac_k2", math.nan),
                         ("decay_slack", math.nan)):
        edited = json.dumps(dict(last, **{field: value}))
        assert "Infinity" in edited or "NaN" in edited
        jsonl.write_text("\n".join(lines[:-1] + [edited]) + "\n")
        assert main(["certify", str(jsonl)]) == 3, field
        out, err = capsys.readouterr()
        assert out == "", field
        assert f"{jsonl}:{len(lines)}: field 'record.{field}'" in err, err
    # an infinite slack is what the certificates write for a zero state
    code, jsonl = _run_case(tmp_path, capsys, ic={"kind": "zero"})
    assert code == 0 and "Infinity" in jsonl.read_text()
    assert main(["certify", str(jsonl)]) == 0
    capsys.readouterr()


# VmHWM, not ru_maxrss: a child's ru_maxrss starts at the peak of the
# process it was forked from
_PEAK_RSS = """
import contextlib, io, json, sys
from ltne.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["run", sys.argv[1]]), main(["certify", sys.argv[2]])]
with open("/proc/self/status") as fh:
    peak = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(json.dumps([codes, peak]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS from /proc/self/status")
def test_run_and_certify_memory_does_not_grow_with_run_length(tmp_path):
    # records are streamed both ways: four times the records (1000 and
    # 4000, ~1 KB each) leave the peak RSS of one interpreter running
    # `run` then `certify` within 1 MiB
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(ltne.__file__).parents[1]))
    peaks = []
    for t_end in (1.0, 4.0):
        cfg = _write(tmp_path / f"t{t_end:g}.json", _base_doc(
            Nx=4, Nz=4, dt=1e-3, t_end=t_end, sample_every=1))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(cfg),
             str(cfg.with_suffix(".jsonl"))],
            env=env, capture_output=True, text=True, check=True)
        codes, peak_kib = json.loads(proc.stdout)
        # at t_end = 4 the tail check fails, and certify agrees
        assert codes in ([0, 0], [1, 1]), codes
        peaks.append(peak_kib / 1024.0)
    assert abs(peaks[1] - peaks[0]) < 1.0, peaks


def test_certify_rejects_meta_that_is_not_a_run_document(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    head, *records = jsonl.read_text().splitlines()
    meta = json.loads(head)["meta"]
    # the second document builds, but `run` refuses it: its c_tilde * alpha
    # is not below 1, so the certificate constants do not exist
    cases = [({}, "does not rebuild"),
             (dict(meta, alpha=2.0, certificates=dict(
                 meta["certificates"], ctilde=0.9)),
              f"{jsonl}: c_tilde=0.9 out of range")]
    for doc, message in cases:
        h = config_hash(doc)     # the meta line carries its own hash
        lines = [json.dumps(dict(json.loads(head), meta=doc, config_hash=h))]
        for ln in records:
            lines.append(json.dumps(dict(json.loads(ln), config_hash=h)))
        jsonl.write_text("\n".join(lines) + "\n")
        assert main(["certify", str(jsonl)]) == 3, message
        assert message in capsys.readouterr().err


def test_certify_refuses_a_stream_of_another_rule(tmp_path, capsys):
    # a header names the rule its records were certified by, and one
    # without names rule 1; only the current rule, 2, is certified
    code, jsonl = _run_case(tmp_path, capsys)
    head, *records = jsonl.read_text().splitlines()
    assert code == 0 and json.loads(head)["rule"] == 2
    for rule, named in ((None, 1), (3, 3)):
        doc = dict(json.loads(head), rule=rule)
        if rule is None:
            del doc["rule"]
        jsonl.write_text("\n".join([json.dumps(doc)] + records) + "\n")
        assert main(["certify", str(jsonl)]) == 3
        assert capsys.readouterr() == ("", (
            f"error: {jsonl}: written under rule {named}; this ltne "
            "certifies rule 2\n"))


def test_certify_rejects_mixed_hashes(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    lines = jsonl.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["config_hash"] = "deadbeefdeadbeef"
    lines[2] = json.dumps(rec, sort_keys=True)
    jsonl.write_text("\n".join(lines) + "\n")
    assert main(["certify", str(jsonl)]) == 3
    assert "mixed config hashes" in capsys.readouterr().err


def test_certify_rejects_truncation(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    text = jsonl.read_text()
    jsonl.write_text(text.rstrip("\n"))      # missing final newline
    assert main(["certify", str(jsonl)]) == 3
    assert "no final newline" in capsys.readouterr().err
    lines = text.splitlines()
    jsonl.write_text("\n".join(lines[:4]) + "\n")   # lost the later samples
    assert main(["certify", str(jsonl)]) == 3
    assert "truncated" in capsys.readouterr().err
    jsonl.write_text("not json\n" + "\n".join(lines[1:]) + "\n")
    assert main(["certify", str(jsonl)]) == 3
    assert ":1: not a meta line" in capsys.readouterr().err
    jsonl.write_text(lines[0] + "\n" + "{bad\n" + "\n".join(lines[2:]) + "\n")
    assert main(["certify", str(jsonl)]) == 3
    assert ":2: malformed JSON" in capsys.readouterr().err
    # an integer longer than Python parses (4300 digits) is malformed too
    huge = re.sub(r'"t": [^,]+', '"t": ' + "9" * 5001, lines[2], count=1)
    jsonl.write_text("\n".join(lines[:2] + [huge] + lines[3:]) + "\n")
    assert main(["certify", str(jsonl)]) == 3
    assert f"{jsonl}:3: malformed JSON" in capsys.readouterr().err


def test_certify_cuts_lines_only_at_newline(tmp_path, capsys):
    # `run` ends each line with "\n" and nothing else; two records joined
    # by another line break `str.splitlines` knows are one malformed line
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    lines = jsonl.read_text().splitlines()
    for sep in ("\f", "\v", "\x1c", "\x85", "\u2028"):
        joined = lines[:2] + [lines[2] + sep + lines[3]] + lines[4:]
        jsonl.write_text("\n".join(joined) + "\n", encoding="utf-8")
        assert main(["certify", str(jsonl)]) == 3, repr(sep)
        out, err = capsys.readouterr()
        assert out == "" and f"{jsonl}:3: malformed JSON" in err, err


def test_certify_refuses_a_line_after_the_blowup_marker(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    lines = jsonl.read_text().splitlines()
    marker = json.dumps({"blowup": {"t": 0.5, "field": "theta",
                                    "error": "overflow"},
                         "config_hash": json.loads(lines[0])["config_hash"]})
    # the marker is line len(lines), the last record follows it
    jsonl.write_text("\n".join(lines[:-1] + [marker, lines[-1]]) + "\n")
    assert main(["certify", str(jsonl)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: {jsonl}:{len(lines)}: blowup "
                                 "marker before end of file\n"), err


_BLOWUP_DOC = dict(Ra=100.0, dt=0.5, t_end=5.0, scheme="rk4_explicit",
                   ic={"kind": "random", "seed": 3, "energy": 10.0})


def test_certify_reads_each_record_line_once(tmp_path, capsys, monkeypatch):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    n = len(jsonl.read_text().splitlines()) - 1     # the records
    read = []

    class Counted:      # an open file that keeps the lines it yields
        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __iter__(self):
            return self

        def __next__(self):
            read.append(next(self.fh))
            return read[-1]

        def readline(self):
            read.append(self.fh.readline())
            return read[-1]

    monkeypatch.setattr(cli, "open", Counted, raising=False)
    assert main(["certify", str(jsonl)]) == 0
    capsys.readouterr()
    assert len(read) <= n + 2, (len(read), n)   # the header twice
    monkeypatch.undo()
    # the benchmark tracer's count: every line after the header, a blowup
    # marker included
    with np.errstate(over="ignore", invalid="ignore"):
        code, jsonl = _run_case(tmp_path, capsys, **_BLOWUP_DOC)
    assert code == 2
    lines = jsonl.read_text().splitlines()
    assert "blowup" in json.loads(lines[-1])
    assert len(cli._Records(jsonl)) == len(lines) - 1


def test_certify_refuses_in_file_order(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    text = jsonl.read_text()
    lines = text.splitlines()
    # a malformed line 3 comes before a last line cut short
    jsonl.write_text("\n".join(lines[:2] + ["{bad"] + lines[3:])[:-5])
    assert main(["certify", str(jsonl)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"{jsonl}:3: malformed JSON" in err, err
    # a byte that is not UTF-8 in the header, the first two records or the
    # last is refused naming its line, at its offset within that line
    for k in (0, 1, 2, len(lines) - 1):
        raw = [ln.encode() for ln in lines]
        raw[k] = raw[k][:10] + b"\xff" + raw[k][11:]
        jsonl.write_bytes(b"\n".join(raw) + b"\n")
        assert main(["certify", str(jsonl)]) == 3
        out, err = capsys.readouterr()
        what = "not a meta line" if k == 0 else "malformed JSON"
        assert out == "" and err == (
            f"error: {jsonl}:{k + 1}: {what} ('utf-8' codec can't decode "
            "byte 0xff in position 10: invalid start byte)\n"), err


def test_sigkilled_run_leaves_a_prefix_certify_calls_truncated(tmp_path):
    # a killed run leaves the header and the batches flushed so far, the
    # last line possibly cut; certify refuses that prefix as truncated
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(ltne.__file__).parents[1]))
    cfg = _write(tmp_path / "long.json", _base_doc(
        dt=1e-3, t_end=100.0, sample_every=1))
    jsonl = cfg.with_suffix(".jsonl")
    proc = subprocess.Popen([sys.executable, "-m", "ltne.cli", "run",
                             str(cfg)], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        # more than the header and one 64-record batch on disk
        while not jsonl.exists() or jsonl.read_bytes().count(b"\n") <= 65:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    head, *records = jsonl.read_text().split("\n")[:-1]   # whole lines
    assert set(json.loads(head)) == {"meta", "config_hash", "rule"}
    times = [json.loads(ln)["t"] for ln in records]
    assert len(times) > 64 and all(b > a for a, b in zip(times, times[1:]))
    code = subprocess.run([sys.executable, "-m", "ltne.cli", "certify",
                           str(jsonl)], env=env, capture_output=True,
                          text=True)
    assert code.returncode == 3 and code.stdout == ""
    assert "truncated" in code.stderr, code.stderr


class _DiskFull:
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_interrupted_run_keeps_the_records_it_certified(tmp_path, capsys,
                                                        monkeypatch):
    # an integration that raises (here KeyboardInterrupt, as Ctrl-C raises
    # it, after the 100th sample) leaves every record certified so far in
    # whole lines and no marker, a stream certify refuses as truncated.  An
    # error from that last write (the disk full after the first batch of 64)
    # does not replace the exception.
    cfg = _write(tmp_path / "long.json", _base_doc(
        dt=1e-3, sample_every=1, output={"jsonl": "long.jsonl"}))
    jsonl, on_sample = tmp_path / "long.jsonl", cli._Stream.on_sample
    for disk_full, kept in ((False, 100), (True, 64)):
        samples = []

        def interrupted(stream, t, *args):
            if len(samples) == 100:
                if disk_full:
                    stream.fh = _DiskFull()
                raise KeyboardInterrupt
            samples.append(t)
            on_sample(stream, t, *args)

        monkeypatch.setattr(cli._Stream, "on_sample", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(cfg)])
        assert capsys.readouterr().out == ""
        head, *lines = jsonl.read_text().split("\n")[:-1]
        assert set(json.loads(head)) == {"meta", "config_hash", "rule"}
        assert [json.loads(ln)["t"] for ln in lines] == samples[:kept]
        if not disk_full:
            assert main(["certify", str(jsonl)]) == 3
            assert capsys.readouterr() == ("", (
                f"error: {jsonl}: truncated: last sample t=0.099 but the run "
                "covers t_end=1\n"))


def test_certify_mso_override_loosens_only(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    assert main(["certify", str(jsonl), "--mso", "1000.0"]) == 0
    out = capsys.readouterr().out
    assert "M_so overridden to 1000" in out
    assert "verdict: PASS" in out
    for bad in ("-1", "nan"):     # the flag is at fault, not the stream
        assert main(["certify", str(jsonl), "--mso", bad]) == 3
        err = capsys.readouterr().err
        assert f"--mso {bad}: mso must be" in err
        assert "does not rebuild" not in err


def test_run_with_certificates_disabled(tmp_path, capsys):
    cfg = _write(tmp_path / "off.json", _base_doc(
        certificates={"enabled": False}, output={"jsonl": "off.jsonl"}))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    recs = [json.loads(ln) for ln
            in (tmp_path / "off.jsonl").read_text().splitlines()[1:]]
    assert all(r["decay_ok"] is None for r in recs)
    assert main(["certify", str(tmp_path / "off.jsonl")]) == 0
    capsys.readouterr()


def test_run_tail_violation_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "rough.json", _base_doc(
        t_end=0.2,
        ic={"kind": "named", "name": "single_mode", "field": "theta",
            "m": 7, "n": 7},
        certificates={"tail_warmup": 0.0},
        output={"jsonl": "rough.jsonl"}))
    assert main(["run", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "tail" in out and "FAIL" in out
    assert main(["certify", str(tmp_path / "rough.jsonl")]) == 1
    capsys.readouterr()


def test_run_blowup_exit_and_partial_stream(tmp_path, capsys):
    cfg = _write(tmp_path / "blow.json", _base_doc(
        output={"jsonl": "blow.jsonl"}, **_BLOWUP_DOC))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "BLOWUP" in out
    lines = (tmp_path / "blow.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    assert "blowup" in last
    assert main(["certify", str(tmp_path / "blow.jsonl")]) == 2
    assert "BLOWUP" in capsys.readouterr().out


def test_certify_rejects_mistyped_records(tmp_path, capsys):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    lines = jsonl.read_text().splitlines()
    rec = json.loads(lines[2])
    cases = [(dict(rec, E_half="1"), "E_half"),
             (dict(rec, theta_sq=None), "theta_sq"),
             (dict(rec, theta_sq=[1.0]), "theta_sq"),
             (dict(rec, theta_sq=True), "theta_sq"),
             (dict(rec, decay_ok="true"), "decay_ok"),
             (dict(rec, wavenumber=3), "wavenumber")]
    for bad, field in cases:
        edited = lines[:2] + [json.dumps(bad)] + lines[3:]
        jsonl.write_text("\n".join(edited) + "\n")
        assert main(["certify", str(jsonl)]) == 3, field
        err = capsys.readouterr().err
        assert ":3:" in err and field in err, err
    blowup = {"t": 0.5, "field": "theta", "error": "overflow"}
    markers = [({"blowup": 5}, "blowup"),
               ({"blowup": dict(blowup, t="0.5")}, "blowup.t"),
               ({"blowup": blowup, "extra": 1}, "extra"),
               ({"blowup": blowup, "config_hash": "deadbeefdeadbeef"},
                "mixed config hashes")]
    for bad, field in markers:
        marker = json.dumps(dict({"config_hash": rec["config_hash"]}, **bad))
        jsonl.write_text("\n".join(lines + [marker]) + "\n")
        assert main(["certify", str(jsonl)]) == 3, field
        err = capsys.readouterr().err
        assert f":{len(lines) + 1}:" in err and field in err, err
    head = json.dumps({"meta": 5, "config_hash": rec["config_hash"]})
    jsonl.write_text("\n".join([head] + lines[1:]) + "\n")
    assert main(["certify", str(jsonl)]) == 3
    err = capsys.readouterr().err
    assert ":1: not a meta line" in err and "'header.meta'" in err, err


def _int_valued(recs):
    base = [dict(r, E_Y=1.0) if i == 1 else r for i, r in enumerate(recs)]
    assert base[0]["t"] == 0.0
    return base, [dict(base[0], t=0), dict(base[1], E_Y=1)] + base[2:]


# Record lines `_Stream` does not write, each as (the stream as `_Stream`
# writes it, the stream with such lines), as a function of the records.
# Certified the same: an integral number in a float field, the keys in
# another order, an optional key left out.  Refused naming the first field
# at fault: `_read_block` types the whole line before any float is checked.
_ACCEPTED = {
    "int-valued floats": _int_valued,
    "reordered keys": lambda recs: (
        recs, [dict(reversed(r.items())) for r in recs]),
    "missing optional key": lambda recs: (
        recs, [{k: v for k, v in r.items() if i or k != "dEY_dt_disc"}
               for i, r in enumerate(recs)]),
}
_REFUSED = {
    "mistyped and NaN": (dict(E_Y=math.nan, tail_ok="true"),
                         "field 'record.tail_ok': expected bool, got 'true'"),
    "true in a float field": (dict(theta_sq=True), "field 'record.theta_sq': "
                              "expected float, got True"),
}


@pytest.mark.parametrize("case", [*_ACCEPTED, *_REFUSED])
def test_certify_types_lines_the_stream_does_not_write(tmp_path, capsys,
                                                       case):
    code, jsonl = _run_case(tmp_path, capsys)
    assert code == 0
    head, *lines = jsonl.read_text().splitlines()
    recs = [json.loads(ln) for ln in lines]

    def certify(records):
        jsonl.write_text("\n".join([head] + list(map(json.dumps, records)))
                         + "\n")
        return main(["certify", str(jsonl)]), capsys.readouterr(), \
            list(cli._Records(jsonl)) if case in _ACCEPTED else None

    if case in _ACCEPTED:
        written, edited = _ACCEPTED[case](recs)
        code, (out, err), typed = certify(written)
        assert (code, err) == (0, "") and "verdict: PASS" in out
        assert certify(edited) == (code, (out, err), typed)
    else:
        edit, refusal = _REFUSED[case]
        assert certify(recs[:1] + [dict(recs[1], **edit)] + recs[2:])[:2] \
            == (3, ("", f"error: {jsonl}:3: {refusal}\n"))


def test_records_yield_what_read_block_types(tmp_path, capsys):
    # every line `run` writes, a zero state's infinite slacks among them,
    # is yielded as its parsed dict, equal to the dict typing it gives
    for ic in ({"kind": "zero"}, _base_doc()["ic"]):
        code, jsonl = _run_case(tmp_path, capsys, ic=ic)
        assert code == 0
        recs = [json.loads(ln) for ln in jsonl.read_text().splitlines()[1:]]
        assert [cli._misfit(r) for r in recs] == [None] * len(recs)
        assert list(cli._Records(jsonl)) == [
            _read_block(r, cli._RECORD, "record") for r in recs]


def test_run_config_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"Ra": }\n')
    assert main(["run", str(bad)]) == 3
    assert ":1:" in capsys.readouterr().err
    unk = _write(tmp_path / "unk.json", _base_doc(wavenumber=3))
    assert main(["run", str(unk)]) == 3
    assert "wavenumber" in capsys.readouterr().err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}\n")
    for cmd in ("run", "sweep", "certify"):
        assert main([cmd, str(binary)]) == 3, cmd
        assert "binary.json" in capsys.readouterr().err, cmd
    # an integer longer than Python parses (4300 digits)
    huge = "9" * 5001
    (tmp_path / "huge.json").write_text('{"Ra": %s}\n' % huge)
    (tmp_path / "huge_sweep.json").write_text(
        '{"parameter": "Ra", "values": [%s], "base": {}}\n' % huge)
    for cmd, name in (("run", "huge.json"), ("sweep", "huge_sweep.json")):
        assert main([cmd, str(tmp_path / name)]) == 3, cmd
        assert f"{name}: " in capsys.readouterr().err, cmd
    # a decay that underflows the random field to zero, overflows it, or
    # leaves it too small to scale to the energy
    for ic in ({"decay": 1000}, {"decay": -1000},
               {"decay": 5, "energy": 1e300}):
        cfg = _write(tmp_path / "decay.json", _base_doc(
            ic={"kind": "random", "seed": 1, **ic}))
        assert main(["run", str(cfg)]) == 3, ic
        assert "ic.decay" in capsys.readouterr().err, ic


def test_h1_window_spans_an_interval_when_r_is_below_time_resolution(
        tmp_path, capsys):
    # r = 1e-20 puts the window's left edge at t itself; the window keeps
    # the last interval, exactly as an r below the sample spacing does
    h1 = {}
    for r in (1e-20, 0.05):
        code, jsonl = _run_case(tmp_path, capsys, certificates={"r": r})
        assert code == 0, r
        assert main(["certify", str(jsonl)]) == 0, r
        assert "h1_absorb   pass" in capsys.readouterr().out
        recs = [json.loads(ln) for ln in jsonl.read_text().splitlines()[1:]]
        h1[r] = [(d["h1_absorb_ok"], d["h1_absorb_slack"]) for d in recs]
    assert h1[1e-20] == h1[0.05]
    assert h1[0.05][0] == (None, None) and h1[0.05][1][0] is True


def test_certify_refuses_record_times_that_do_not_increase(tmp_path,
                                                           capsys):
    # at r = 1e-20 a repeated record would make an h1 window of length 0
    code, jsonl = _run_case(tmp_path, capsys, certificates={"r": 1e-20})
    assert code == 0
    lines = jsonl.read_text().splitlines()      # records at t = 0, 0.1, ...
    edits = {   # the edited stream, and the line and times the error names
        "duplicate": (lines[:3] + lines[2:], ":4: record t=0.1 does not "
                                             "follow t=0.1"),
        "swap": (lines[:2] + [lines[3], lines[2]] + lines[4:],
                 ":4: record t=0.1 does not follow t=0.2"),
    }
    for name, (edited, message) in edits.items():
        jsonl.write_text("\n".join(edited) + "\n")
        assert main(["certify", str(jsonl)]) == 3, name
        assert f"{jsonl}{message}" in capsys.readouterr().err, name


def test_run_refuses_outputs_that_share_a_file(tmp_path, capsys):
    cfg = _write(tmp_path / "same.json", _base_doc(
        t_end=0.1, output={"jsonl": "same.out", "plot_csv": "same.out"}))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "outputs jsonl and plot_csv would both write" in err
    assert str(tmp_path / "same.out") in err
    assert not (tmp_path / "same.out").exists()


def test_run_refuses_snapshots_that_share_a_file(tmp_path, capsys):
    # snapshot files are named `<prefix>_t<t:g>.snap` with t the time `run`
    # stamps them with, the initial state's t plus whole steps: from
    # t = 1000, 1e-4 and 2e-4 later are both `_t1000`
    ic = tmp_path / "late.snap"
    z = SpectralField(np.zeros((8, 8)), Domain(a=1.0, Nx=8, Nz=8))
    write_snapshot(ic, z, z, z, 1000.0)
    cases = [
        (_base_doc(dt=1e-4, t_end=2e-4, ic={"kind": "snapshot",
                                            "path": str(ic)},
                   output={"jsonl": "late.jsonl",
                           "snapshot_at": [1e-4, 2e-4]}),
         "snapshot_at 0.0001 and snapshot_at 0.0002", "late_t1000.snap"),
        # 1.2 million steps: refused before the first one
        (_base_doc(dt=1e-7, t_end=0.1234562, sample_every=10 ** 6,
                   output={"jsonl": "n4b.jsonl",
                           "snapshot_at": [0.1234561, 0.1234562]}),
         "snapshot_at 0.1234561 and snapshot_at 0.1234562",
         "n4b_t0.123456.snap"),
    ]
    for doc, names, snap in cases:
        assert main(["run", str(_write(tmp_path / "snaps.json", doc))]) == 3
        err = capsys.readouterr().err
        assert f"outputs {names} would both write {tmp_path / snap}" in err
        assert not (tmp_path / doc["output"]["jsonl"]).exists()


def test_unwritable_outputs_exit_3(tmp_path, capsys):
    nodir = tmp_path / "nodir" / "x.csv"
    (tmp_path / "dir.jsonl").mkdir()
    run_doc = _write(tmp_path / "dir.json", _base_doc(
        t_end=0.1, output={"jsonl": "dir.jsonl"}))
    cases = [   # (command line, the path its error must name)
        (["run", _write(tmp_path / "plot.json", _base_doc(
            t_end=0.1, output={"plot_csv": str(nodir)}))], nodir),
        (["run", run_doc], tmp_path / "dir.jsonl"),
        (["run", _write(tmp_path / "snap.json", _base_doc(
            t_end=0.1, output={"snapshot_at": [0.0],
                               "snapshot_prefix": str(nodir)}))], nodir),
        (["sweep", _write(tmp_path / "sw.json", {
            "parameter": "Ra", "values": [1.0],
            "base": _base_doc(t_end=0.1), "csv": str(nodir)})], nodir),
        (["linearize", run_doc, "--out", nodir], nodir),
    ]
    for argv, named in cases:
        assert main([str(a) for a in argv]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err, err
    # the sweep fails before its first row runs
    assert not (tmp_path / "sw_runs" / "Ra=1.jsonl").exists()


def test_tail_cutoff_range_applies_only_with_tail_check(tmp_path, capsys):
    # min(Nx, Nz) = 1 leaves no tail above any cutoff >= 1
    for i, cert in enumerate(({"checks": {"tail": False}},
                              {"enabled": False})):
        cfg = _write(tmp_path / f"col{i}.json", _base_doc(
            Nx=1, t_end=0.2, certificates=cert))
        assert main(["run", str(cfg)]) == 0
        assert main(["certify", str(cfg.with_suffix(".jsonl"))]) == 0
        out = capsys.readouterr().out
        assert "tail        skipped" in out and "verdict: PASS" in out
    cfg = _write(tmp_path / "col.json", _base_doc(Nx=1, t_end=0.2))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "certificates.tail_cutoff 1 out of range" in err
    assert "min(Nx, Nz) = 1" in err


def test_config_refused_before_integration_writes_no_stream(tmp_path,
                                                           capsys):
    # refused by the certificate suite, by `run` (a snapshot time off the
    # step grid) and by the IC builder (a snapshot whose header time is
    # NaN): no file opens before `integrate` accepts the run
    snap = tmp_path / "nan.snap"
    z = SpectralField(np.zeros((8, 8)), Domain(a=1.0, Nx=8, Nz=8))
    write_snapshot(snap, z, z, z, 0.0)
    head, rest = snap.read_text().split("\n", 1)
    snap.write_text(head.rsplit(" ", 1)[0] + " nan\n" + rest)
    cases = [(_base_doc(Nx=16, Nz=16, certificates={"tail_cutoff": 40}),
              "certificates.tail_cutoff 40 out of range"),
             (_base_doc(output={"snapshot_at": [0.005]}),
              "snapshot time 0.005 is not step-aligned"),
             (_base_doc(ic={"kind": "snapshot", "path": "nan.snap"}),
              f"{snap}: not a v1 snapshot (header 'LTNE-SNAP v1 8 8 1 nan')")]
    # a snapshot with a line after the last phi coefficient, and one with
    # a byte that is not UTF-8 in its first coefficient line
    write_snapshot(tmp_path / "ok.snap", z, z, z, 0.0)
    text = (tmp_path / "ok.snap").read_bytes()
    assert text.count(b"\n") == 1 + 3 * 65
    (tmp_path / "junk.snap").write_bytes(text + b"junk\n")
    ff = text.replace(b"1 1 0\n", b"1 1 0\xff\n", 1)
    (tmp_path / "ff.snap").write_bytes(ff)
    cases += [(_base_doc(ic={"kind": "snapshot", "path": "junk.snap"}),
               f"{tmp_path / 'junk.snap'}:197: line after the last "
               "coefficient"),
              (_base_doc(ic={"kind": "snapshot", "path": "ff.snap"}),
               f"{tmp_path / 'ff.snap'}:3: not UTF-8 ('utf-8' codec can't "
               "decode byte 0xff in position 5: invalid start byte)")]
    for i, (doc, message) in enumerate(cases):
        cfg = _write(tmp_path / f"refused{i}.json", doc)
        assert main(["run", str(cfg)]) == 3, message
        assert message in capsys.readouterr().err
        assert not cfg.with_suffix(".jsonl").exists()


def test_linearize_refusals_exit_3_with_one_error_line(tmp_path, capsys):
    cases = [(_base_doc(Nx=4, Nz=4, wavenumber=3),
              "unknown config keys: ['wavenumber']"),
             (_base_doc(Nx=16, Nz=17, conduction_coupling=True),
              "refusing at Nx*Nz = 272 > 256")]
    for i, (doc, message) in enumerate(cases):
        cfg = _write(tmp_path / f"lin{i}.json", doc)
        out_csv = tmp_path / f"lin{i}.csv"
        assert main(["linearize", str(cfg), "--out", str(out_csv)]) == 3
        out, err = capsys.readouterr()
        assert out == "", message
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not out_csv.exists()
        assert not cfg.with_suffix(".spectrum.csv").exists()


def test_run_too_large_to_allocate_exits_3(tmp_path, capsys):
    # the (3, Nx, Nz) initial stack needs 384 TB, beyond the 128 TiB user
    # address space, so its allocation fails at once whatever the overcommit
    # setting; no file is written
    cfg = _write(tmp_path / "huge.json", _base_doc(
        Nx=4000000, Nz=4000000, ic={"kind": "zero"}))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(3, 4000000, 4000000)" in err
    assert not (tmp_path / "huge.jsonl").exists()


def test_output_paths_with_a_null_byte_exit_3(tmp_path, capsys):
    # `open` and `mkdir` refuse such a path with a ValueError
    base = _base_doc(t_end=0.1)
    cases = [
        ["sweep", _write(tmp_path / "s1.json", {
            "parameter": "Ra", "values": [1.0], "base": base,
            "output_dir": "a\0b"})],
        ["sweep", _write(tmp_path / "s2.json", {
            "parameter": "Ra", "values": [1.0], "base": base,
            "csv": "a\0b.csv"})],
        ["linearize", _write(tmp_path / "lin.json", base), "--out", "a\0b"],
    ]
    for argv in cases:
        assert main([str(a) for a in argv]) == 3, argv
        assert capsys.readouterr().err == "error: embedded null byte\n"


def test_tail_k_whose_weight_overflows_is_refused(tmp_path, capsys):
    # |mu|^84 overflows at the largest mode of N=16 (|mu| = 2 (16 pi)^2),
    # which made every tail fraction NaN; 83 is still finite
    for k, code in ((83, 1), (84, 3), (90, 3)):
        cfg = _write(tmp_path / f"k{k}.json", _base_doc(
            Nx=16, Nz=16, certificates={"tail_k": k}))
        assert main(["run", str(cfg)]) == code, k
    err = capsys.readouterr().err
    assert "certificates.tail_k 90 out of range" in err
    assert "NaN" not in (tmp_path / "k83.jsonl").read_text()
    assert not (tmp_path / "k90.jsonl").exists()
    # with the tail check off the weight is never used
    cfg = _write(tmp_path / "off.json", _base_doc(
        Nx=16, Nz=16, certificates={"tail_k": 90, "checks": {"tail": False}}))
    assert main(["run", str(cfg)]) == 0
    assert "NaN" not in cfg.with_suffix(".jsonl").read_text()
    capsys.readouterr()


def test_run_builds_one_plan_and_certify_none(tmp_path, capsys, monkeypatch):
    # the matrices are built once per Domain, lazily: `certify` needs none,
    # and no kernel hashes the Domain to find them
    plans, hashes = [], []
    init, dom_hash = Plan.__init__, Domain.__hash__

    def counted_init(self, dom):
        plans.append(dom)
        init(self, dom)

    def counted_hash(self):
        hashes.append(self)
        return dom_hash(self)

    monkeypatch.setattr(Plan, "__init__", counted_init)
    monkeypatch.setattr(Domain, "__hash__", counted_hash)
    cfg = _write(tmp_path / "case.json", _base_doc(
        t_end=0.6, output={"snapshot_at": [0.5]}))
    assert main(["run", str(cfg)]) == 0
    assert len(plans) == 1 and hashes == []
    assert main(["certify", str(cfg.with_suffix(".jsonl"))]) == 0
    capsys.readouterr()
    assert len(plans) == 1 and hashes == []


def test_sweep_empty_values(tmp_path, capsys):
    spec = _write(tmp_path / "empty.json",
                  {"parameter": "Ra", "values": [], "base": _base_doc()})
    assert main(["sweep", str(spec)]) == 0
    capsys.readouterr()
    with open(tmp_path / "empty.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 and rows[0][0] == "parameter"


def test_sweep_alpha_family(tmp_path, capsys):
    base = _base_doc(t_end=0.5)
    spec = _write(tmp_path / "alpha.json",
                  {"parameter": "alpha", "values": [0.5, 1.0],
                   "base": base, "output_dir": "runs", "csv": "alpha.csv"})
    assert main(["sweep", str(spec)]) == 0
    capsys.readouterr()
    assert (tmp_path / "runs" / "alpha=0.5.jsonl").exists()
    assert (tmp_path / "runs" / "alpha=1.jsonl").exists()
    with open(tmp_path / "alpha.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["0.5", "1.0"]
    for r in rows:
        assert r["status"] == "ok"
        alpha = float(r["value"])
        want = 2 * np.pi ** 2 * min(1.0, 1.0 / alpha)
        assert float(r["M7"]) == pytest.approx(want, rel=1e-12)
        assert r["decay_ok"] == "True"
        assert float(r["spectral_abscissa"]) < 0.0
        assert float(r["max_ebal_resid"]) >= 0.0
        # each summary column is what the row's own stream gives
        stream = tmp_path / "runs" / f"alpha={alpha:g}.jsonl"
        recs = [json.loads(ln)
                for ln in stream.read_text().splitlines()[1:]]
        assert float(r["max_ebal_resid"]) == max(
            x["ebal_resid"] for x in recs if x["ebal_resid"] is not None)
        for flag in ("decay_ok", "psi_absorb_ok", "h1_absorb_ok"):
            given = [x[flag] for x in recs if x[flag] is not None]
            assert r[flag] == (str(all(given)) if given else ""), flag
        assert float(r["t_end"]) == recs[-1]["t"]
        for col in ("E_Y", "theta_sq", "phi_sq", "lap_psi_sq"):
            assert float(r[f"{col}_final"]) == recs[-1][col], col


def test_sweep_rows_name_plot_and_snapshot_files_after_their_stream(
        tmp_path, capsys):
    # a base plot_csv or snapshot_prefix would make every row write the
    # same file; each row writes next to its own stream instead
    base = _base_doc(t_end=0.2, output={
        "plot_csv": "plot.csv", "snapshot_at": [0.1],
        "snapshot_prefix": "snap"})
    spec = _write(tmp_path / "sw.json", {"parameter": "Ra",
                                         "values": [10.0, 20.0],
                                         "base": base, "output_dir": "rows"})
    assert main(["sweep", str(spec)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "rows").iterdir()) == [
        "Ra=10.csv", "Ra=10.jsonl", "Ra=10_t0.1.snap",
        "Ra=20.csv", "Ra=20.jsonl", "Ra=20_t0.1.snap"]
    assert not (tmp_path / "plot.csv").exists()
    assert not list(tmp_path.glob("snap*"))
    for tag in ("10", "20"):
        stream = (tmp_path / "rows" / f"Ra={tag}.jsonl").read_text()
        recs = [json.loads(ln) for ln in stream.splitlines()[1:]]
        with open(tmp_path / "rows" / f"Ra={tag}.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["E_Y"]) for r in rows] == [r["E_Y"] for r in recs]


def test_sweep_row_headers_name_the_files_the_row_writes(tmp_path, capsys):
    # a row's header names its own plot CSV and no base snapshot prefix; a
    # base output block that names neither is stored as the base gives it,
    # and a malformed one fails the row with the message `run` would give
    named = _base_doc(t_end=0.2, output={"plot_csv": "plot.csv",
                                         "snapshot_prefix": "snap"})
    plain = _base_doc(t_end=0.2, output={"snapshot_at": [0.1]})
    bad = [_base_doc(t_end=0.2, output=out)
           for out in (5, {"plot_csv": 5}, {"snapshot_prefix": ["snap"]})]
    for name, base, values in (("named", named, [10.0, 20.0]),
                               ("plain", plain, [10.0]),
                               *((f"bad{i}", b, [10.0])
                                 for i, b in enumerate(bad))):
        spec = _write(tmp_path / f"{name}.json", {
            "parameter": "Ra", "values": values, "base": base,
            "output_dir": name})
        assert main(["sweep", str(spec)]) == 0
    capsys.readouterr()

    def header(path):
        return json.loads(path.read_text().splitlines()[0])["meta"]

    rows = tmp_path.resolve() / "named"
    for tag in ("10", "20"):
        out = header(rows / f"Ra={tag}.jsonl")["output"]
        assert out["plot_csv"] == str(rows / f"Ra={tag}.csv")
        assert out["snapshot_prefix"] is None
        assert main(["certify", str(rows / f"Ra={tag}.jsonl")]) == 0
    assert header(tmp_path / "plain" / "Ra=10.jsonl")["output"] == \
        build_config(plain).resolved["output"]
    for i, base in enumerate(bad):
        with pytest.raises(ConfigError) as refused:
            build_config(base)
        with open(tmp_path / f"bad{i}.csv") as fh:
            row, = csv.DictReader(fh)
        assert row["status"] == f"error: {refused.value}"


def test_sweep_records_child_failure_and_continues(tmp_path, capsys):
    spec = _write(tmp_path / "mix.json",
                  {"parameter": "alpha", "values": [1.0, -2.0, 10 ** 400],
                   "base": _base_doc(t_end=0.2)})
    assert main(["sweep", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "alpha=-2.0" in out
    with open(tmp_path / "mix.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["E_Y_final"] == ""
    # an integer no float can hold is a malformed value like any other
    assert rows[2]["status"].startswith("error: field 'alpha'")


def test_sweep_row_without_a_dense_spectrum_stays_ok(tmp_path, capsys):
    # with conduction on, the abscissa needs a dense eigensolve, refused
    # at Nx*Nz = 289 > 256: the row's cell stays empty, the row ok
    spec = _write(tmp_path / "big.json", {
        "parameter": "Ra", "values": [10.0], "base": _base_doc(
            Nx=17, Nz=17, conduction_coupling=True, t_end=0.02,
            sample_every=1)})
    assert main(["sweep", str(spec)]) == 0
    capsys.readouterr()
    with open(tmp_path / "big.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "ok" and row["spectral_abscissa"] == ""
    assert row["M7"] != "" and row["config_hash"] != ""


def _cpus(monkeypatch, n):
    """Make the sweep see n CPUs, so it forks even on a 1-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_on_three_cpus_writes_what_one_cpu_writes(
        tmp_path, capsys, monkeypatch):
    # an ok row, an error row and a blowup row (RK4 beyond its stability
    # limit at Da 0.1); at 3 CPUs two rows run here and the rest in two
    # forked workers, one of them running two rows
    spec = _write(tmp_path / "par.json", {
        "parameter": "Da", "values": [1.0, -2.0, 0.1, 2.0, 0.5],
        "base": _base_doc(Nx=2, Nz=2, t_end=0.5, scheme="rk4_explicit",
                          output={"plot_csv": "p.csv", "snapshot_at": [0.2]}),
        "output_dir": "rows"})
    outputs = []
    for n in (1, 3):
        _cpus(monkeypatch, n)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", str(spec)]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / "rows").iterdir()}
        files["csv"] = (tmp_path / "par.csv").read_bytes()
        outputs.append((capsys.readouterr(), files))
        for p in (tmp_path / "rows").iterdir():
            p.unlink()
        _no_child_left()
    (serial, one), (forked, three) = outputs
    assert forked == serial and three == one
    statuses = [r["status"] for r in csv.DictReader(
        one["csv"].decode().splitlines())]
    assert statuses[0] == "ok" and statuses[1].startswith("error: ")
    assert statuses[2].startswith("blowup t=")
    assert "Da=2.jsonl" in one and "Da=0.1_t0.2.snap" not in one


def test_sweep_rows_of_a_dead_worker_read_error(tmp_path, capsys,
                                                monkeypatch):
    # a worker that dies (by os._exit, or by a signal as a kill for memory
    # would) leaves an error row naming its exit code or signal for each
    # row it had not sent, and the sweep goes on; no worker outlives `main`
    def dies_at_20_or_30(param, value, *args):
        if value == 20.0:
            os._exit(5)
        if value == 30.0:
            os.kill(os.getpid(), signal.SIGKILL)
        return _sweep_child(param, value, *args)

    _cpus(monkeypatch, 3)
    monkeypatch.setattr("ltne.cli._sweep_child", dies_at_20_or_30)
    spec = _write(tmp_path / "die.json", {
        "parameter": "Ra", "values": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        "base": _base_doc(t_end=0.2)})
    assert main(["sweep", str(spec)]) == 0
    _no_child_left()
    out = capsys.readouterr().out
    assert "Ra=20.0: error: worker died (exit 5)" in out
    with open(tmp_path / "die.csv") as fh:
        rows = list(csv.DictReader(fh))
    # rows 1 and 4 were the first worker's, 2 and 5 the second's; 0 and 3
    # ran here
    died = ("error: worker died (exit 5)",
            f"error: worker died (signal {int(signal.SIGKILL)})")
    assert [r["status"] for r in rows] == ["ok", *died, "ok", *died]
    assert rows[5]["parameter"] == "Ra" and rows[5]["value"] == "60.0"
    assert rows[5]["config_hash"] == ""


@pytest.mark.parametrize("where", ["row", "csv"])
def test_sweep_that_raises_kills_its_workers(tmp_path, capsys, monkeypatch,
                                             where):
    # the row run here, or the CSV write of its result, raises: the sweep
    # ends with exit 3, and the worker, still mid-row, is killed and
    # reaped before `main` returns
    def sleeps_but_at_10(param, value, *args):
        if value != 10.0:
            time.sleep(600)
        elif where == "row":
            raise OSError("disk full")
        return _sweep_child(param, value, *args)

    def writerow(self, r, header=csv.DictWriter.writerow):
        if r["parameter"] != "parameter":     # the header goes through
            raise OSError("disk full")
        return header(self, r)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr("ltne.cli._sweep_child", sleeps_but_at_10)
    if where == "csv":
        monkeypatch.setattr(csv.DictWriter, "writerow", writerow)
    spec = _write(tmp_path / "raise.json", {
        "parameter": "Ra", "values": [10.0, 20.0],
        "base": _base_doc(t_end=0.2)})
    t0 = time.monotonic()
    assert main(["sweep", str(spec)]) == 3
    assert time.monotonic() - t0 < 300.0     # not the worker's 600 s
    assert "error: disk full" in capsys.readouterr().err
    _no_child_left()


def _running(pid) -> bool:
    """Whether process `pid` exists and is not a zombie, from /proc."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_sigkilled_sweep_leaves_no_worker(tmp_path):
    # the worker runs rows 1 and 3; the sweep is killed while the worker is
    # in row 1, so the worker's send of that row fails and it exits before
    # row 3 starts
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(ltne.__file__).parents[1]))
    spec = _write(tmp_path / "kill.json", {
        "parameter": "Ra", "values": [10.0, 20.0, 30.0, 40.0],
        "base": _base_doc(dt=1e-3, t_end=10.0), "output_dir": "rows"})
    script = (
        "import os, sys\n"
        "from pathlib import Path\n"
        "import ltne.cli as cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "row = cli._sweep_child\n"
        "def announced(param, value, doc, path, base_dir):\n"
        "    Path(f'{path}.pid').write_text(str(os.getpid()))\n"
        "    return row(param, value, doc, path, base_dir)\n"
        "cli._sweep_child = announced\n"
        "raise SystemExit(cli.main(['sweep', sys.argv[1]]))\n")
    proc = subprocess.Popen([sys.executable, "-c", script, str(spec)],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    pid_file = tmp_path / "rows" / "Ra=20.jsonl.pid"
    try:
        deadline = time.monotonic() + 120.0
        while not pid_file.exists() or not pid_file.read_text():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    worker = int(pid_file.read_text())
    assert worker != proc.pid
    deadline = time.monotonic() + 120.0
    while _running(worker):
        assert time.monotonic() < deadline, "worker outlived its sweep"
        time.sleep(0.01)
    assert not (tmp_path / "rows" / "Ra=40.jsonl").exists()


def test_sweep_refuses_values_that_share_a_stream_file(tmp_path, capsys):
    # stream names keep six significant digits, so these two values would
    # write one file; the sweep stops before any row runs
    spec = _write(tmp_path / "near.json",
                  {"parameter": "Ra", "values": [1.0, 10.0, 10.0000001],
                   "base": _base_doc(t_end=0.2)})
    assert main(["sweep", str(spec)]) == 3
    err = capsys.readouterr().err
    assert "10.0 and 10.0000001" in err
    assert str(tmp_path / "near_runs" / "Ra=10.jsonl") in err
    assert not (tmp_path / "near.csv").exists()
    assert not (tmp_path / "near_runs").exists()


def test_sweep_spec_validation(tmp_path, capsys):
    doc = {"parameter": "Nx", "values": [8], "base": _base_doc()}
    assert main(["sweep", str(_write(tmp_path / "s1.json", doc))]) == 3
    capsys.readouterr()
    doc = {"parameter": "Ra", "values": [1.0], "base": _base_doc(),
           "base_path": "x.json"}
    assert main(["sweep", str(_write(tmp_path / "s2.json", doc))]) == 3
    assert "exactly one" in capsys.readouterr().err
    doc = {"parameter": "Ra", "values": 5, "base": _base_doc()}
    assert main(["sweep", str(_write(tmp_path / "s3.json", doc))]) == 3
    capsys.readouterr()
    _write(tmp_path / "five.json", 5)
    good = {"parameter": "Ra", "values": [1.0], "base": _base_doc()}
    bad_specs = [(5, "sweep must be a JSON object"),
                 (dict(good, base=5), "'sweep.base'"),
                 (dict(good, output_dir=5), "'sweep.output_dir'"),
                 (dict(good, csv=7), "'sweep.csv'"),
                 ({"parameter": "Ra", "values": [1.0], "base_path": 3},
                  "'sweep.base_path'"),
                 ({"parameter": "Ra", "values": [1.0],
                   "base_path": "five.json"}, "'base_path'")]
    for i, (doc, field) in enumerate(bad_specs):
        spec = _write(tmp_path / f"bad{i}.json", doc)
        assert main(["sweep", str(spec)]) == 3, field
        assert field in capsys.readouterr().err, field


def test_linearize_reports_abscissa_and_crosscheck(tmp_path, capsys):
    cfg = _write(tmp_path / "lin.json", _base_doc(Nx=4, Nz=4))
    out_csv = tmp_path / "spec.csv"
    assert main(["linearize", str(cfg), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    absc = float(out.split("spectral abscissa:")[1].splitlines()[0])
    assert absc == pytest.approx(-2 * np.pi ** 2, rel=1e-11)   # printed at %.12g
    mism = float(out.split("max eigenvalue mismatch")[1].splitlines()[0])
    assert mism < 1e-10
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    r11 = rows[0]
    assert float(r11["mu"]) == pytest.approx(-2 * np.pi ** 2, rel=1e-15)
    assert float(r11["block_eig1_im"]) == 0.0
    # with conduction the per-mode blocks are not the spectrum: no
    # cross-check, and the abscissa is the dense operator's
    doc = _base_doc(Nx=4, Nz=4, Ra=500.0, conduction_coupling=True)
    cfg = _write(tmp_path / "cond.json", doc)
    assert main(["linearize", str(cfg), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "mismatch" not in out
    absc = float(out.split("spectral abscissa:")[1].splitlines()[0])
    rc = load_config(cfg)
    L = assemble_linear(rc.p, rc.dom)
    want = float(np.max(dense_eigvals(L.dense()).real))
    assert absc == pytest.approx(want, rel=1e-11)
