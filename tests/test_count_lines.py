import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code keeps its line

# a comment-only line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        y = (x +
             1)
        s = """a string that is not a docstring
spans two lines"""
        return y, s, os.sep
'''


def test_counter_rules_on_a_fixed_snippet():
    # import, class, def, both lines of the continued expression, both of
    # the string that is not a docstring, return: no blank, comment-only
    # or docstring line
    assert count_lines.count_source(SNIPPET) == 8


def test_counter_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("# only a comment\n\nx = 1\n")
    assert count_lines.count_tree(tmp_path) == {"a": 1, "b": 8}
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 8\ntotal 9\n"
