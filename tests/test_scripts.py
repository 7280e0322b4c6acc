"""Smoke tests: each script under scripts/ runs end to end through main()."""

import hashlib
import importlib.util
import shutil
from pathlib import Path

from blstate import operators

from .test_operators import LADDER_SEARCH

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


def test_search_nonstrong_prints_each_candidate(capsys, monkeypatch):
    # no enumerated carrier separates the classes, so the gap is a stand-in;
    # mv_chain(1) is the one carrier of these bounds
    monkeypatch.setattr(operators, "state_strong_gap", lambda a: (3, 2, [((0, 1), (1, 1))]))
    assert _script("search_nonstrong").main(["--max-chain", "1", "--max-size", "2"]) == 0
    assert capsys.readouterr().out == (
        "n= 2 state=  3 strong=  2  <-- 1 candidate(s)\n"
        "    candidate (not a proof): (0, 1) strong axiom fails at (1, 1)\n"
        "searched 1 algebras, 3 state operators, 1 candidate(s) that are state but not strong\n"
    )


def test_bench_pairs_summary_and_durations(tmp_path):
    bench = _script("bench_pairs")

    def run(run_s):
        return {"metrics": dict.fromkeys(bench.METRICS, 1.0) | {"run_s": run_s}}

    pairs = [
        {"parent": run(p), "change": run(c)}
        for p, c in ((1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (0.9, 1.0), (1.0, 0.7))
    ]
    run_s = bench.summarize(pairs)["run_s"]
    assert run_s["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert run_s["change"]["median"] == 0.9
    assert (run_s["change_better_pairs"], run_s["ties"], run_s["pairs"]) == (3, 1, 5)
    assert run_s["median_change_pct"] == -10.0
    assert bench.summarize(pairs)["setup_s"]["ties"] == 5
    output = (
        "...\n============ slowest 5 durations ============\n"
        "5.32s call     tests/test_a.py::test_slow\n"
        "0.50s setup    tests/test_b.py::test_fixture\n"
        "210 passed in 14.3s\n"
    )
    assert bench.slowest_tests(output) == [
        {"seconds": 5.32, "phase": "call", "test": "tests/test_a.py::test_slow"},
        {"seconds": 0.5, "phase": "setup", "test": "tests/test_b.py::test_fixture"},
    ]
    # a checkout without the benchmark is refused before anything runs
    assert bench.main([str(tmp_path), str(tmp_path), "--seeds", "1"]) == 2


def test_bench_pairs_names_a_tree_without_git(tmp_path):
    bench = _script("bench_pairs")
    package = tmp_path / "src" / "blstate"
    package.mkdir(parents=True)
    (package / "b.py").write_text("B = 2\n")
    (package / "a.py").write_text("A = 1\n")
    (package / "notes.txt").write_text("not source\n")
    digest = hashlib.sha256(b"a.py\0A = 1\n\0b.py\0B = 2\n\0").hexdigest()[:16]
    assert bench.describe(tmp_path) == f"commit unknown, src/blstate sha256 {digest}"
    (package / "b.py").write_text("B = 3\n")
    assert bench.describe(tmp_path) != f"commit unknown, src/blstate sha256 {digest}"


def test_bench_pairs_compares_traced_layers():
    bench = _script("bench_pairs")
    layers = bench.compare_layers(
        {"suite.claim.Prop-5.4_s": 0.02, "a.calls": 0.0, "gone_s": 1.0},
        {"suite.claim.Prop-5.4_s": 0.005, "a.calls": 3.0, "new_s": 2.0},
    )
    assert layers == {
        "a.calls": {"parent": 0.0, "change": 3.0, "change_pct": None},
        "gone_s": {"parent": 1.0, "change": None, "change_pct": None},
        "new_s": {"parent": None, "change": 2.0, "change_pct": None},
        "suite.claim.Prop-5.4_s": {"parent": 0.02, "change": 0.005, "change_pct": -75.0},
    }


def test_bench_pairs_counts_the_same_work_in_two_copies_of_one_tree(tmp_path):
    """Two copies of the package report equal enumerator counts, and they
    are the counts that the ladder test pins."""
    bench = _script("bench_pairs")
    package = Path(operators.__file__).parent
    roots = {}
    for side in bench.SIDES:
        shutil.copytree(package, tmp_path / side / "src" / "blstate",
                        ignore=shutil.ignore_patterns("__pycache__"))
        roots[side] = tmp_path / side
    counts = bench.compare_counts(roots)
    assert counts["equal"] and counts["parent"] == counts["change"]
    assert counts["change"] == {
        f"{rung}.{cls}": list(search)
        for rung, searches in LADDER_SEARCH.items()
        for cls, search in zip(("state", "endomorphism"), searches)
    }
