"""Count the lines of the package source, per module and in total.

    python3 tools/src_lines.py [DIR]

DIR defaults to ``src/apamix`` next to this script's directory. For each
``*.py`` file it prints the physical lines (the ``wc -l`` count: newline
characters) and the code lines: the lines holding at least one token other
than a comment, a line break (NL, NEWLINE), INDENT, DEDENT or a string that
forms a statement by itself, as a docstring does. Standard library only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_BREAKS = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)


def code_lines(text: str) -> int:
    """Lines holding a token that is not layout, a comment or a bare string statement."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _BREAKS or tok.type == tokenize.ENDMARKER:
            continue
        # a string that both opens and ends a statement is a bare string statement
        opens = i == 0 or tokens[i - 1].type in _BREAKS
        if tok.type == tokenize.STRING and opens and tokens[i + 1].type == tokenize.NEWLINE:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "apamix"
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"no *.py files in {root}", file=sys.stderr)
        return 2
    print(f"{'module':<20} {'lines':>7} {'code':>7}")
    total_lines = total_code = 0
    for path in paths:
        text = path.read_text()
        lines, code = text.count("\n"), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{path.name:<20} {lines:>7,} {code:>7,}")
    print(f"{'total':<20} {total_lines:>7,} {total_code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
