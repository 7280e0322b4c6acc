"""Reachability guard: every function of the package is entered by a command.

``tests/cli_smoke.py`` runs every subcommand, on the ``tests/golden/``
documents, builtin specs, error inputs and the default corpus, through
``cli.main`` under ``sys.setprofile``, in a child process so that no
value cached by another test hides a call.  Every top-level function and
class method of ``src/blstate`` must be entered there, or be named in
``ALLOWLIST`` with one of the accepted reasons below.  An entry that
names a function that no longer exists, or one that the smoke entered,
is stale and fails too.  The profile hook is set before the package is
imported, so code that runs at import is entered and needs no entry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blstate

from .cli_smoke import COMMANDS

ERROR = "error path of a typed exception"
API = "public API that the README documents"
LAYER = "named by perfbench/layers.json"
REASONS = (ERROR, API, LAYER)

ALLOWLIST = {
    # a short repr, documented under "Value objects"
    "algebra.FiniteBLAlgebra.__repr__": API,
    # sigma_h_table compares tables only when a homomorphism's source or
    # target is another object, to raise NotAHomomorphismError
    "algebra.FiniteBLAlgebra.same_tables": ERROR,
    # the InternalCheckError message of a state-filter closure mismatch,
    # and the return value of the state_filter_generated wrapper below
    "filters.mask_members": ERROR,
    # op(x), documented under "Value objects"
    "operators.StateOperator.__call__": API,
    "operators.StateOperator.__repr__": API,
    # the one-seed wrapper of state_filter_closures, traced by perfbench
    "operators.state_filter_generated": LAYER,
    # s(x), hashing and repr, documented under "Value objects"
    "states.RationalState.__call__": API,
    "states.RationalState.__hash__": API,
    "states.RationalState.__repr__": API,
    # only the tests call it; perfbench traces its self time
    "states.solve_linear": LAYER,
}

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    src = str(Path(blstate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = Path(__file__).with_name("cli_smoke.py")
    run = subprocess.run(
        [sys.executable, str(script), str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads((out / "reach.json").read_text(encoding="utf-8"))


def test_the_smoke_commands_exit_as_documented(smoke):
    got = [(code, " ".join(argv)) for code, (_, argv) in zip(smoke["exit_codes"], COMMANDS)]
    assert got == [(code, " ".join(argv)) for code, argv in COMMANDS]


def test_every_function_is_entered_or_allowlisted(smoke):
    unreached = set(smoke["functions"]) - set(smoke["entered"])
    assert sorted(unreached - set(ALLOWLIST)) == [], "entered by no command"


def test_the_allowlist_has_no_stale_entry(smoke):
    assert sorted(set(ALLOWLIST) - set(smoke["functions"])) == [], "no such function"
    assert sorted(set(ALLOWLIST) & set(smoke["entered"])) == [], "entered by a command"


def test_every_allowlist_entry_gives_an_accepted_reason():
    layers = [layer["name"] for layer in json.loads(LAYERS.read_text())["per_layer"]]
    for name, reason in ALLOWLIST.items():
        assert reason in REASONS, name
        if reason == LAYER:
            assert any(layer.startswith(name + ".") for layer in layers), name
