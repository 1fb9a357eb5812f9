"""The names the benchmark uses must exist in the package.

`perfbench/child.py --trace` replaces attributes of `ltne.cli` and
`CertificateSuite.on_sample` by timed wrappers, and both `child.py` and
`perfbench/baselines.py` import from `ltne`; a refactor that renames or
deletes one of these names, or changes a signature they call, breaks the
benchmark, not the package.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import ltne.cli
from ltne import CertificateSuite

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
BASELINES = CHILD.with_name("baselines.py")
RUN = CHILD.with_name("run.py")


def _child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)     # imports the standard library only
    return child


def test_traced_names_exist():
    child = _child()
    for name in [*child.TRACED, "_execute", "main"]:
        assert callable(getattr(ltne.cli, name, None)), name
    assert callable(CertificateSuite.on_sample)


def test_imported_names_exist_and_calls_bind():
    for path in (CHILD, BASELINES):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "ltne":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        (path.name, node.module, alias.name)
    # bound as `baselines.py` calls them, positionally
    inspect.signature(CertificateSuite).bind("p", "dom", "cfg", "s0")
    inspect.signature(ltne.cli._sweep_child).bind(
        "Ra", 10.0, {}, Path("Ra=10.jsonl"), Path("."))


def test_sweep_writes_the_streams_the_benchmark_reads(tmp_path, monkeypatch,
                                                       capsys):
    # `run.py` certifies each row of the `sweep-n32` workload by the stream
    # name it expects; a tiny sweep over the same values, from the spec the
    # benchmark writes, must produce exactly those files
    monkeypatch.syspath_prepend(str(RUN.parent))    # run.py imports child
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)   # for @dataclass
    spec.loader.exec_module(bench)
    wl = bench.make_workload("sweep-n32", 1)
    tiny = bench.Workload(wl.name, dict(wl.config, Nx=4, Nz=4, t_end=0.01,
                                        sample_every=5), wl.sweep_values)
    tiny.write(tmp_path)
    argv = json.loads((tmp_path / "spec.json").read_text())["commands"][0]
    assert argv[0] == "sweep"
    assert ltne.cli.main([argv[0], str(tmp_path / argv[1])]) == 0
    capsys.readouterr()
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for p in (tmp_path / "rows").iterdir())
    assert written == sorted(tiny.streams) == sorted(wl.streams)


def test_traced_run_and_certify_feed_the_layer_probes(tmp_path, monkeypatch,
                                                      capsys):
    # the `--trace` path of the benchmark end to end, on a tiny run: the
    # wrappers see every layer, and the layer probes time the public calls
    # on the traced run's final state
    child = _child()
    for name in [*child.TRACED, "_execute"]:     # what `install` replaces
        monkeypatch.setattr(ltne.cli, name, getattr(ltne.cli, name))
    monkeypatch.setattr(CertificateSuite, "on_sample",
                        CertificateSuite.on_sample)
    tracer = child.Tracer()
    main = tracer.install()
    case = tmp_path / "case.json"
    case.write_text(json.dumps({
        "Ra": 100.0, "Pr": 1.0, "Da": 1.0, "C": 1.0, "lambda": 1.0,
        "gamma": 1.0, "alpha": 1.0, "a": 1.0, "Nx": 4, "Nz": 4, "dt": 1e-3,
        "t_end": 0.01, "sample_every": 1,
        "ic": {"kind": "random", "seed": 1, "energy": 1.0, "decay": 1.0}}))
    assert main(["run", str(case)]) == 0
    assert main(["certify", str(tmp_path / "case.jsonl")]) == 0
    capsys.readouterr()
    names = [span["name"] for span in tracer.spans]
    assert names.count("on_sample") == 11
    assert names.count("integrate") == 1
    assert names.count("replay_certificates") == 1
    assert [span["records"] for span in tracer.spans
            if span["name"] == "replay_certificates"] == [11]
    probes = child.probe_layers(*tracer.last_run)
    assert (probes["Nx"], probes["Nz"]) == (4, 4)
    timings = [v for k, v in probes.items() if k.endswith("_s")
               or "_s." in k]
    assert len(timings) == 4 + len(child.JACOBIAN_SIZES)
    assert all(0 < v < math.inf for v in timings)
