"""Smoke tests: each script under scripts/ runs end to end through main()."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_operator_census(capsys):
    assert _script("operator_census").main(["--brute-limit", "4"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
    assert out.rstrip().endswith("(* = verified against unpruned brute force)")


def test_search_nonstrong(capsys):
    assert _script("search_nonstrong").main([]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("searched ")
    assert last.endswith(" 0 candidate(s) that are state but not strong")
