"""tools/src_lines.py counts physical lines as ``wc -l`` does, and code lines
without comments, blank lines or bare string statements."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """Docstring."""
    s = """a string argument
    over two lines"""
    return g(
        x,
        s,
    )
'''


def test_code_lines_skip_comments_blanks_and_bare_strings():
    # import; def; s = (two lines); return g( ... ) (four lines)
    assert src_lines.code_lines(SAMPLE) == 1 + 1 + 2 + 4


def test_totals_add_up_per_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "15", "8"], ["b.py", "2", "1"], ["total", "17", "9"]]
