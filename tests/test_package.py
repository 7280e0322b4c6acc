"""Package shape: the library runs single-threaded on the standard library,
the suite grades library cross-checks and walks the operator pool in one
place, every check takes one subject, its pointwise laws go
through the law engine, it picks no mixture weights, and the benchmark's
layers name code that exists."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import blstate
from blstate import suite
from blstate.suite import CLAIM_IDS, REGISTRY

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


def test_only_over_pool_walks_an_operator_pool():
    # one grader for every per-operator claim: ``_pool`` alone reads an
    # instance's pool, and ``_over_pool`` alone calls ``_pool``
    path = Path(blstate.__file__).parent / "suite.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    callers = {"pool": set(), "_pool": set()}
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in callers:
                    callers[name].add(getattr(node, "name", None))
    assert callers == {"pool": {"_pool"}, "_pool": {"_over_pool"}}


def test_the_suite_picks_no_weights():
    # mixtures are built in states.py alone (``face_barycenters``): the
    # suite imports neither the mixer nor the rationals to weight one with
    path = Path(blstate.__file__).parent / "suite.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None), *(alias.name for alias in node.names))
    }
    assert not imported & {"mix_states", "Fraction", "fractions"}, imported


def test_every_check_takes_one_subject_and_the_suite_has_one_outcome_type():
    # a check takes the instance, or its operator, which carries its own
    # algebra; it returns None, a witness or a ``CheckOutcome``, and
    # ``run_suite`` alone turns that into a record
    for claim in REGISTRY:
        assert len(inspect.signature(claim.check).parameters) == 1, claim.claim_id
    assert not hasattr(suite, "CheckResult")


def _compares_with_256(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                if isinstance(operand, ast.Constant) and operand.value == 256:
                    yield node.lineno


def test_only_the_law_engine_picks_between_byte_rows_and_tuples():
    # algebra.holds is the one place that picks a route by carrier size: a
    # comparison with 256 anywhere else would be a second route
    modules = sorted(Path(blstate.__file__).parent.glob("*.py"))
    found = {
        f"{path.name}:{line}"
        for path in modules
        for line in _compares_with_256(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found and all(site.startswith("algebra.py:") for site in found), sorted(found)


def test_only_the_law_engine_pads_rows_to_translation_tables():
    # algebra.py owns the row kernels' byte format: ``translation`` pads a
    # row to 256 bytes, and a carrier's rows come padded in ``padded_rows``
    modules = sorted(Path(blstate.__file__).parent.glob("*.py"))
    padding = sorted(
        f"{path.name}:{number}"
        for path in modules
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "bytes(256" in line.replace(" ", "")
    )
    assert padding and all(site.startswith("algebra.py:") for site in padding), padding


LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"
FUNCTION_METRICS = ("calls", "self_s", "incl_s", "per_s", "distinct_ratio")


def test_every_traced_layer_names_a_function_or_claim_that_exists():
    # a layer that names a deleted function or claim would read 0, not fail
    names = [layer["name"] for layer in json.loads(LAYERS.read_text())["per_layer"]]
    functions = {name.rsplit(".", 1)[0] for name in names if name.endswith(FUNCTION_METRICS)}
    claims = {name[len("suite.claim."):-len("_s")] for name in names
              if name.startswith("suite.claim.")}
    assert len(functions) > 20 and len(claims) > 5
    for layer in functions:
        module, function = layer.split(".")
        defined = getattr(importlib.import_module(f"blstate.{module}"), function, None)
        assert not function.startswith("_") and inspect.isfunction(inspect.unwrap(defined)), layer
        assert defined.__module__ == f"blstate.{module}", layer
    assert claims <= set(CLAIM_IDS), sorted(claims - set(CLAIM_IDS))
