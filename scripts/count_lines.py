"""Print the source lines and code lines of the schreier package.

Source lines are every line of every module under src/schreier.  Code
lines leave out blank lines, comment lines and docstrings (the string
that opens a module, class or function body).  One line per module
comes first, so a change that moves code between modules shows apart
from one that deletes it; the two package totals come last.

    python scripts/count_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schreier"


def count(text: str):
    """(source lines, code lines) of one module's text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main() -> int:
    source = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        s, c = count(path.read_text(encoding="utf-8"))
        print(f"{path.name}: {s} source, {c} code")
        source += s
        code += c
    print(f"source lines: {source}")
    print(f"code lines: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
