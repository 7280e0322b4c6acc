"""Package shape: the library runs single-threaded on the standard library,
the suite grades library cross-checks in one place, and its pointwise
laws go through the law engine."""

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


def test_suite_quantifies_pointwise_only_through_the_law_engine():
    # a pointwise law in the suite is ``algebra.Law`` data; an
    # ``itertools.product`` loop there would be a second scanner
    path = Path(blstate.__file__).parent / "suite.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert "itertools.product" not in set(_imported_names(tree))


def _may_catch(handler, name):
    """Whether an except clause can catch the exception class ``name``."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = {t.id for t in types if isinstance(t, ast.Name)}
    return bool(names & {name, "Exception", "BaseException"})


def test_suite_catches_cross_checks_only_in_its_graders():
    # claims let InternalCheckError through, so a failing library
    # cross-check gets one of the two witness forms the graders write
    path = Path(blstate.__file__).parent / "suite.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    catching = {
        getattr(node, "name", None)  # None: a handler outside any def or class
        for node in tree.body
        for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler) and _may_catch(handler, "InternalCheckError")
    }
    assert catching == {"_over_pool", "run_suite"}
