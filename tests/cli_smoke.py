"""A smoke run of every ``blstate`` subcommand under ``sys.setprofile``.

    python tests/cli_smoke.py OUT

Run with ``src`` on ``PYTHONPATH``.  It writes the input documents into
the empty directory OUT, then runs each command of ``COMMANDS`` through
``cli.main`` with OUT as the working directory, and writes one file per
command (its argv, exit code, stdout and stderr) and ``reach.json``:
every top-level function and class method whose code lives in the
package, the ones that were entered, and the exit codes.  The profile
hook is set before the package is imported, so code that runs at import
counts as entered.  Every output but ``reach.json`` is deterministic, so
two checkouts can be compared with ``diff -r -x reach.json``.

``tests/test_reachability.py`` runs this in a child process: the package
memoizes on algebras and laws, so in a process that has run other tests
a function may be skipped only because its value was cached.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import pkgutil
import shutil
import sys
from functools import cached_property
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_HALF_CHAIN = '"labels": ["0", "h", "1"], "tables": {"prod": [[0, 0, 0], [0, 0, 1], [0, 1, 2]]}'

# name -> text, written into OUT; those under corpus/ are a paper-suite corpus
DOCUMENTS = {
    # impl omitted: derived by residuation
    "corpus/derived.json": '{"format": "blstate/1", ' + _HALF_CHAIN
    + ', "operators": {"id": [0, 1, 2]}, "states": {"half": ["0", "1/2", "1"]}}',
    "rejected.json": '{"format": "blstate/1", ' + _HALF_CHAIN
    + ', "operators": {"drop": [0, 0, 0]}}',
    "nonstate.json": '{"format": "blstate/1", ' + _HALF_CHAIN
    + ', "states": {"flat": ["0", "0", "1"]}}',
    "malformed.json": '{"format": "blstate/1", "labels": ["0", "1"]',
    "unknown_field.json": '{"format": "blstate/1", "labels": ["0"], "tables": {}, "extra": 1}',
    # an MV prod with a constant impl: adjointness fails
    "not_bl.json": '{"format": "blstate/1", "labels": ["0", "h", "1"], "tables": {'
    '"prod": [[0, 0, 0], [0, 0, 1], [0, 1, 2]], "impl": [[2, 2, 2], [2, 2, 2], [2, 2, 2]]}}',
    # on the Boolean square, {z : a * z = 0} = {0, a, b} has no maximum
    "no_residuum.json": '{"format": "blstate/1", "labels": ["0", "a", "b", "1"], "tables": {'
    '"meet": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]], '
    '"join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]], '
    '"prod": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]}}',
    # the one-element carrier, where bottom and top coincide
    "one.json": '{"format": "blstate/1", "labels": ["0"], "tables": {"prod": [[0]]}}',
}

EXAMPLE = "corpus/example_3_4.json"
MV2 = "corpus/mv_chain_2.json"
DERIVED = "corpus/derived.json"
ONE = "one.json"

# (expected exit code, argv): 0 every check passed, 1 a check failed,
# 2 a usage or input error; a new command goes last, so that every
# earlier one keeps the number of its output file
COMMANDS = (
    (0, ("construct", "mv-chain", "3")),
    (0, ("construct", "godel-chain", "3")),
    (0, ("construct", "example-3-4", "--out", "example.json")),
    (0, ("construct", "product", "mv_chain(1)", "godel_chain(3)", "--out", "pair.json")),
    (0, ("construct", "product", "pair.json", "mv_chain(2)")),
    (0, ("construct", "ordinal-sum", "mv_chain(2)", "pair.json")),
    (2, ("construct", "ordinal-sum", "pair.json", "mv_chain(1)")),
    (2, ("construct", "mv-chain", "x")),
    (2, ("construct", "product")),
    (2, ("construct", "cube")),
    (0, ("verify", EXAMPLE)),
    (0, ("verify", MV2)),
    (0, ("verify", DERIVED)),
    (0, ("verify", "pair.json")),
    (1, ("verify", "rejected.json")),
    (1, ("verify", "nonstate.json")),
    (1, ("verify", "not_bl.json")),
    (1, ("verify", "no_residuum.json")),
    (2, ("verify", "malformed.json")),
    (2, ("verify", "unknown_field.json")),
    (2, ("verify", "missing.json")),
    *(
        (0, ("enumerate-operators", source, "--class", cls, "--stats"))
        for source in ("example-3-4", MV2, "godel_chain(4)")
        for cls in ("state", "strong", "morphism", "endomorphism")
    ),
    (2, ("enumerate-operators", "example-3-4", "--class", "mv")),
    (0, ("filters", "example-3-4")),
    (0, ("filters", "pair.json")),
    (0, ("filters", MV2)),
    (0, ("classify", "example-3-4", "--operator", "sigma")),
    (0, ("classify", "mv_chain(3)")),
    (0, ("classify", "pair.json")),
    (0, ("classify", DERIVED, "--operator", "id")),
    (1, ("classify", "rejected.json", "--operator", "drop")),
    (2, ("classify", "example-3-4", "--operator", "tau")),
    (2, ("classify", "not_bl.json")),
    (0, ("states", "example-3-4", "--operator", "sigma")),
    (0, ("states", "godel_chain(3)")),
    (0, ("states", "pair.json")),
    (0, ("states", DERIVED, "--operator", "id")),
    (1, ("states", "rejected.json", "--operator", "drop")),
    (0, ("search-nonstrong", "example-3-4")),
    (0, ("search-nonstrong", "godel_chain(3)")),
    (2, ("search-nonstrong", "mv_chain(10)")),
    (0, ("paper-suite",)),
    (0, ("paper-suite", "--format", "json", "--keep-going", "--out", "suite.json")),
    (0, ("paper-suite", "--corpus", "corpus", "--keep-going")),
    (0, ("paper-suite", "--corpus", "corpus", "--claims", "Prop-5.4,Thm-2.5", "--format", "json")),
    (2, ("paper-suite", "--claims", "Nope-1.2")),
    (2, ("paper-suite", "--corpus", "empty")),
    (2, ("no-such-command",)),
    (0, ("verify", ONE)),
    (0, ("filters", ONE)),
    (0, ("classify", ONE)),
    (0, ("states", ONE)),
    (2, ("states", ONE, "--operator", "x")),
    (0, ("enumerate-operators", ONE, "--stats")),
    # a carrier with factor swaps: the search keeps orbit leaders and expands them
    (0, ("construct", "product", "godel_chain(3)", "godel_chain(3)", "--out", "g3xg3.json")),
    (0, ("enumerate-operators", "g3xg3.json", "--stats")),
    (2, ("paper-suite", "--claims", ",")),
)


def package_functions(package) -> dict[str, object]:
    """Every top-level function and class method whose code is in ``package``.

    Keyed ``module.qualname`` (``__init__.qualname`` in the package
    itself); the values are code objects.  Decorators
    are unwrapped (``memoized``, ``lru_cache``, ``cached_property``,
    properties, static and class methods); dataclass-generated methods,
    whose code is compiled from a string, are skipped.
    """
    out = {}
    names = (f"{package.__name__}.{info.name}" for info in pkgutil.iter_modules(package.__path__))
    for module in (package, *map(sys.modules.get, names)):
        stem = Path(module.__file__).stem
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, cached_property):
                    member = member.func
                elif isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(member) if callable(member) else member
                code = getattr(member, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    out[f"{stem}.{code.co_qualname}"] = code
    return out


def main(out: Path) -> None:
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    out.mkdir(parents=True, exist_ok=True)
    for name, text in DOCUMENTS.items():
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text(text + "\n", encoding="utf-8")
    for golden in GOLDEN.glob("*.json"):
        shutil.copyfile(golden, out / "corpus" / golden.name)
    (out / "empty").mkdir(exist_ok=True)
    os.chdir(out)

    sys.setprofile(hook)
    import blstate
    from blstate import cli

    codes = []
    for k, (_, argv) in enumerate(COMMANDS):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        codes.append(code)
        Path(f"{k:02d}.txt").write_text(
            f"$ blstate {' '.join(argv)}\nexit {code}\n--- stdout\n{stdout.getvalue()}"
            f"--- stderr\n{stderr.getvalue()}",
            encoding="utf-8",
        )
    sys.setprofile(None)

    functions = package_functions(blstate)
    reach = {
        "exit_codes": codes,
        "functions": sorted(functions),
        "entered": sorted(name for name, code in functions.items() if code in entered),
    }
    Path("reach.json").write_text(json.dumps(reach, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
