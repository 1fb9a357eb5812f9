"""Count the code lines of Python modules.

    python tools/count_lines.py [DIR]        # default: src/ltne

A code line is a line that holds part of a code token: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count; each line of a statement
continued over several lines, or of a multi-line string that is not a
docstring, does.  Prints one `<module> <count>` line per `*.py` file in
DIR, in name order, then `total <count>`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count_source(src: str) -> int:
    """The number of code lines in the Python source `src`."""
    docs = _docstring_lines(ast.parse(src))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_tree(directory) -> dict[str, int]:
    """{module stem: code lines} for each `*.py` file in `directory`."""
    return {p.stem: count_source(p.read_text())
            for p in sorted(Path(directory).glob("*.py"))}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    counts = count_tree(args[0] if args else "src/ltne")
    for name, n in counts.items():
        print(f"{name} {n}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
