"""Package shape: the library runs single-threaded on the standard library."""

import ast
from pathlib import Path

import blstate

FORBIDDEN = ("numpy", "concurrent.futures", "threading")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_numpy_or_threads():
    modules = sorted(Path(blstate.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_names(tree):
            for banned in FORBIDDEN:
                assert name != banned and not name.startswith(banned + "."), (
                    f"{path.name} imports {name}"
                )
