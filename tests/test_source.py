"""Source-level rules for the package."""
import ast
from pathlib import Path

import acmchar

SOURCES = sorted(Path(acmchar.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Correctness guards must raise real errors: ``python -O`` strips
    ``assert``, so an assert in the package could change an answer."""
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
