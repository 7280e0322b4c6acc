"""Smoke tests: each script under scripts/ runs end to end through main()."""

import importlib.util
import json
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


def test_run_suite(tmp_path, capsys):
    assert _script("run_suite").main(["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("all claims pass")
    payload = json.loads((tmp_path / "suite.json").read_text(encoding="utf-8"))
    assert payload["summary"]["fail"] == 0
    text = (tmp_path / "suite.txt").read_text(encoding="utf-8")
    assert text.splitlines()[-1].startswith(f"# {payload['summary']['records']} records:")
    assert (tmp_path / "suite_timed.txt").exists()
