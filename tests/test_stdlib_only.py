"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "galbench"


def _imported_top_levels(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_imports_only_the_standard_library_and_galbench():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        outside = _imported_top_levels(path) - set(sys.stdlib_module_names) - {"galbench"}
        assert not outside, (path.name, sorted(outside))
