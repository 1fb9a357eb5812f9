import ast
import importlib
import re
from pathlib import Path

import ltne

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(ltne.__file__).parent


def test_all_exports_resolve_once():
    missing = [name for name in ltne.__all__ if not hasattr(ltne, name)]
    assert missing == []
    assert len(set(ltne.__all__)) == len(ltne.__all__)


def _names(tree) -> set:
    """Identifiers a module reads, and the names its imports bind."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _library_use() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_readme_surface_list_names_exactly_the_exports():
    # the README's list of the exported surface names every name in
    # `__all__`, and no other module-level name of any ltne module
    listed = _library_use().split("is the whole exported surface", 1)[1]
    modules = [importlib.import_module(f"ltne.{path.stem}")
               for path in PACKAGE.glob("*.py")]
    named = {name for name in re.findall(r"`(\w+)", listed)
             if any(hasattr(mod, name) for mod in modules)}
    assert sorted(named - set(ltne.__all__)) == []
    assert sorted(set(ltne.__all__) - named) == []


def test_every_export_has_a_user():
    # an exported name is used by another ltne module, imported by a
    # benchmark script, or named in the README's "Library use" section;
    # anything else is surface nobody calls
    used = {}
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used[path.stem] = _names(ast.parse(path.read_text()))
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "ltne":
                bench.update(alias.name for alias in node.names)
    section = _library_use()
    documented = set(re.findall(r"`(\w+)", section))
    for block in re.findall(r"```python\n(.*?)```", section, re.S):
        documented |= _names(ast.parse(block))
    orphans = []
    for name in ltne.__all__:
        home = getattr(ltne, name).__module__.rsplit(".", 1)[1]
        if not (any(name in names for mod, names in used.items()
                    if mod != home)
                or name in bench or name in documented):
            orphans.append(name)
    assert not orphans, f"exported with no user: {orphans}"
