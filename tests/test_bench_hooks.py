"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/child.py --trace` replaces attributes of `ltne.cli` and
`CertificateSuite.on_sample` by timed wrappers; a refactor that renames or
deletes one of them breaks the per-layer benchmark, not the package.
"""

import importlib.util
from pathlib import Path

import ltne.cli
from ltne import CertificateSuite

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)     # imports the standard library only
    for name in [*child.TRACED, "_execute", "main"]:
        assert callable(getattr(ltne.cli, name, None)), name
    assert callable(CertificateSuite.on_sample)
