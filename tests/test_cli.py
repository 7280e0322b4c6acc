"""CLI surface: exit codes, determinism, goldens."""

import json

from blstate.cli import main
from blstate.constructors import four_element_example
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
        assert set(stats) == {"nodes", "leaves", "rejected"}
        assert stats["leaves"] - stats["rejected"] == int(out.split()[0])
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


def test_paper_suite_claim_filter(capsys):
    code, out, _ = run(capsys, "paper-suite", "--claims", "Lemma-4.3", "--keep-going")
    assert code == 0
    assert "Lemma-4.3 @ s1_plus_s1xs1" in out
    assert "0 fail" in out.splitlines()[-1]


def test_paper_suite_unknown_claim(capsys):
    code, _, err = run(capsys, "paper-suite", "--claims", "Nope-1.2")
    assert code == 2


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
