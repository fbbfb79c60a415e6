"""Every source file parses under the oldest supported grammar, Python 3.10.

This checks grammar only, not standard-library APIs: a 3.11-only call
such as ``tomllib`` or ``ExceptionGroup`` parses under 3.10 and would
still fail there at run time.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    assert any(p.name == "families.py" for p in SOURCES)
    assert any(p.parent.name == "demos" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
