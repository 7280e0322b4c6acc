"""CLI surface: exit codes, determinism, goldens."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from blstate import cli
from blstate.algebra import verify_bl_axioms
from blstate.cli import main
from blstate.constructors import four_element_example, mv_chain
from blstate.document import document_from_algebra, serialize_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_mv_chain(capsys, tmp_path):
    out_file = tmp_path / "mv3.json"
    code, _, _ = run(capsys, "construct", "mv-chain", "3", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["labels"] == ["x0", "x1", "x2", "x3"]
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    assert "OK BL-algebra with 4 elements" in out
    assert "mv=True" in out


@pytest.mark.parametrize(
    "argv, golden", [(("example-3-4",), "example_3_4.json"), (("mv-chain", "2"), "mv_chain_2.json")]
)
def test_construct_writes_the_golden_bytes(capsys, argv, golden):
    code, out, _ = run(capsys, "construct", *argv)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")


def test_construct_example_includes_sigma(capsys):
    code, out, _ = run(capsys, "construct", "example-3-4")
    assert code == 0
    doc = json.loads(out)
    assert doc["operators"]["sigma"] == [0, 1, 3, 3]


def test_construct_product_and_ordinal_sum(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "product", "mv_chain(1)", "mv_chain(1)")
    assert code == 0
    assert len(json.loads(out)["labels"]) == 4
    code, out, _ = run(capsys, "construct", "ordinal-sum", "mv_chain(2)", "mv_chain(1)")
    assert code == 0
    assert len(json.loads(out)["labels"]) == 4


def test_construct_product_takes_one_or_more_sources(capsys, tmp_path):
    code, _, err = run(capsys, "construct", "product")
    assert code == 2 and "at least one source" in err
    assert run(capsys, "construct", "product", "mv_chain(2)") == run(
        capsys, "construct", "mv-chain", "2")
    pair = tmp_path / "pair.json"
    assert run(capsys, "construct", "product", "mv_chain(1)", "godel_chain(3)",
               "--out", str(pair))[0] == 0
    code, folded, _ = run(capsys, "construct", "product", str(pair), "mv_chain(2)")
    assert code == 0
    code, out, _ = run(capsys, "construct", "product", "mv_chain(1)", "godel_chain(3)",
                       "mv_chain(2)")
    assert code == 0 and out == folded
    assert len(json.loads(out)["labels"]) == 18


def test_verify_rejects_mutated_tables(capsys, tmp_path):
    a, _ = four_element_example()
    prod = [list(r) for r in a.prod]
    prod[1][2] = prod[2][1] = 0
    doc = document_from_algebra(a)
    doc.prod = tuple(map(tuple, prod))
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_algebra(doc))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL adjointness" in out


def test_verify_grades_document_states(capsys, tmp_path):
    doc = document_from_algebra(mv_chain(2), states={"s": (0, Fraction(1, 2), 1)})
    good = tmp_path / "good.json"
    good.write_text(serialize_algebra(doc))
    code, out, _ = run(capsys, "verify", str(good))
    assert code == 0
    assert "state s: extremal=True" in out
    doc.states["m"] = (Fraction(1, 2), Fraction(1, 2), 1)  # m(0) != 0
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_algebra(doc))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert out.splitlines()[-1] == "FAIL state m is not a state (bosbach at ('bottom',))"


def test_states_on_the_one_element_algebra(capsys, tmp_path):
    one = verify_bl_axioms(["0"], [[0]], [[0]], [[0]], [[0]], 0, 0)
    path = tmp_path / "one.json"
    path.write_text(serialize_algebra(document_from_algebra(one, operators={"sigma": (0,)})))
    code, out, _ = run(capsys, "states", str(path))
    assert (code, out) == (0, "0 extremal state(s)\n")
    code, out, _ = run(capsys, "states", str(path), "--operator", "sigma")
    assert (code, out) == (0, "0 extremal state(s)\n")
    code, out, _ = run(capsys, "states", str(path), "--operator", "nope")
    assert (code, out) == (2, "")


def test_verify_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "verify", str(missing))
    assert code == 2
    code, _, err = run(capsys, "verify", str(tmp_path))  # a directory
    assert code == 2 and err.startswith("error: ")


def test_enumerate_operators_identity_only(capsys):
    code, out, _ = run(capsys, "enumerate-operators", "mv_chain(3)", "--class", "state")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1 operator(s)")
    assert lines[1] == "x0->x0, x1->x1, x2->x2, x3->x3"


def test_enumerate_operators_stats_leave_stdout_unchanged(capsys):
    for cls in ("state", "endomorphism"):
        args = ("enumerate-operators", "godel_chain(4)", "--class", cls)
        code, plain_out, plain_err = run(capsys, *args)
        assert code == 0 and plain_err == ""
        code, out, err = run(capsys, *args, "--stats")
        assert code == 0
        assert out == plain_out
        assert len(err.splitlines()) == 1
        stats = json.loads(err)
        assert set(stats) == {"nodes", "leaves", "rejected", "tried", "orbits"}
        # a chain has no automorphism but the identity: each table is its own orbit
        assert stats["leaves"] - stats["rejected"] == stats["orbits"] == int(out.split()[0])
        assert stats["nodes"] > stats["leaves"]


def test_filters_command(capsys):
    code, out, _ = run(capsys, "filters", "example-3-4")
    assert code == 0
    assert "3 filter(s)" in out
    assert "radical: {b, 1}" in out


def test_classify_with_operator(capsys):
    code, out, _ = run(capsys, "classify", "example-3-4", "--operator", "sigma")
    assert code == 0
    assert "local=True" in out
    assert "simple=False" in out and "perfect=False" in out
    assert "ssbl_simple=True" in out
    assert "kernel: {b, 1}" in out


def test_classify_unknown_operator(capsys):
    code, _, err = run(capsys, "classify", "example-3-4", "--operator", "nope")
    assert code == 2
    assert "unknown operator" in err


@pytest.mark.parametrize("command", ["classify", "states"])
def test_an_unknown_operator_is_looked_up_before_any_output(capsys, command):
    # the message is printed as it is, not as the repr a KeyError would give
    code, out, err = run(capsys, command, "example-3-4", "--operator", "nope")
    assert (code, out, err) == (2, "", "error: unknown operator 'nope'; available: sigma\n")
    code, out, err = run(capsys, command, "mv_chain(2)", "--operator", "nope")
    assert (code, out, err) == (2, "", "error: unknown operator 'nope'; available: (none)\n")


def test_states_command(capsys):
    code, out, _ = run(capsys, "states", "example-3-4", "--operator", "sigma")
    assert code == 0
    assert "1 extremal state(s)" in out
    assert "0, 1/2, 1, 1" in out
    assert "bijection with image states: ok" in out


def test_search_nonstrong(capsys):
    code, out, _ = run(capsys, "search-nonstrong", "godel_chain(3)")
    assert code == 0
    assert "0 candidate(s)" in out


def test_search_nonstrong_refuses_carriers_over_10_elements(capsys):
    code, out, err = run(capsys, "search-nonstrong", "mv_chain(10)")
    assert (code, out) == (2, "")
    assert err == "carrier too large for exhaustive search (limit 10)\n"


def test_search_nonstrong_prints_each_candidate(capsys, monkeypatch):
    # no enumerated carrier separates the classes, so the gap is a stand-in
    gap = [((0, 2, 2), (1, 1))]
    monkeypatch.setattr(cli, "state_strong_gap", lambda algebra: (3, 2, gap))
    code, out, _ = run(capsys, "search-nonstrong", "mv_chain(2)")
    assert code == 0
    assert out == (
        "3 state operator(s), 2 strong; 1 candidate(s) that are state but not strong\n"
        "candidate (not a proof): x0->x0, x1->x2, x2->x2; strong axiom fails at (1, 1)\n"
    )


def test_paper_suite_claim_filter(capsys, tmp_path):
    code, out, _ = run(capsys, "paper-suite", "--claims", "Lemma-4.3", "--keep-going")
    assert code == 0
    assert "Lemma-4.3 @ s1_plus_s1xs1" in out
    assert "0 fail" in out.splitlines()[-1]
    report = tmp_path / "suite.json"
    args = ("paper-suite", "--claims", "Lemma-4.3", "--format", "json", "--out", str(report))
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == ""
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["summary"]["fail"] == 0
    assert all("elapsed" not in r for r in payload["records"])
    code, _, _ = run(capsys, *args, "--timings")
    assert code == 0
    timed = json.loads(report.read_text(encoding="utf-8"))
    assert all("elapsed" in r for r in timed["records"])


def test_paper_suite_unknown_claim(capsys):
    code, _, err = run(capsys, "paper-suite", "--claims", "Nope-1.2")
    assert code == 2


@pytest.mark.parametrize("claims", [",", ""])
def test_paper_suite_claims_that_name_no_claim_id(capsys, claims):
    # "," once ran no claim and "" every claim, both with exit 0
    code, out, err = run(capsys, "paper-suite", "--claims", claims)
    assert (code, out) == (2, "")
    assert "names no claim id" in err


@pytest.mark.parametrize(
    "argv", [("--claims", ","), ("--claims", "Nope-0.0"), ("--corpus", "D", "--claims", "Nope-0.0")]
)
def test_paper_suite_checks_claims_before_it_builds_a_corpus(capsys, monkeypatch, argv):
    def unbuilt(*args):
        raise AssertionError("a corpus was built")

    monkeypatch.setattr(cli, "default_corpus", unbuilt)
    monkeypatch.setattr(cli, "load_corpus_dir", unbuilt)
    code, out, _ = run(capsys, "paper-suite", *argv)
    assert (code, out) == (2, "")


def test_paper_suite_empty_corpus_dir(capsys, tmp_path):
    code, _, err = run(capsys, "paper-suite", "--corpus", str(tmp_path))
    assert code == 2


def test_paper_suite_corpus_dir(capsys, tmp_path):
    a, sigma = four_element_example()
    doc = document_from_algebra(a, operators={"sigma": sigma})
    (tmp_path / "example.json").write_text(serialize_algebra(doc))
    code, out, _ = run(
        capsys, "paper-suite", "--corpus", str(tmp_path), "--claims",
        "Prop-2.2-6,Thm-7.3", "--keep-going",
    )
    assert code == 0
    assert "Prop-2.2-6 @ example" in out
    assert "Thm-7.3 @ example" in out


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["paper-suite", "--workers", "2"]) == 2
