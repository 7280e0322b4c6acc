"""Benchmark inputs and outcome checks: generator, metric names, mismatches."""

import json
import re
from pathlib import Path

import corpus_gen
import run
import worker

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*.json"))}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = corpus_gen.write_corpus("7", tmp_path / "a")
    b = corpus_gen.write_corpus("7", tmp_path / "b")
    c = corpus_gen.write_corpus("8", tmp_path / "c")
    assert [vid for vid, _ in a] == [vid for vid, _ in b]
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_generated_corpus_shape(tmp_path):
    docs = corpus_gen.write_corpus("3", tmp_path)
    assert len(docs) == len(corpus_gen.slots()) + 1
    assert sum(vid == corpus_gen.ONE_ELEMENT for vid, _ in docs) == 1
    texts = [json.loads(p.read_text()) for _, d in docs for p in d.glob("*.json")]
    sizes = sorted(len(t["labels"]) for t in texts)
    assert sizes[0] == 1 and sizes[-1] == 32
    generated = [t for t in texts if len(t["labels"]) > 1]
    assert sum("impl" not in t["tables"] for t in generated) == len(generated) // 2
    expected = worker.load_expected("user-corpus")
    assert set(corpus_gen.catalog()) | {corpus_gen.ONE_ELEMENT} == set(expected)


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = run.layer_metrics()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_perturbed_suite_report_is_caught():
    expected = worker.load_expected("paper-suite")
    assert worker.compare_suite_report(expected, expected)[1] == []
    payload = json.loads(expected)
    payload["records"][3]["verdict"] = "fail"
    del payload["records"][10]
    perturbed = json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
    attempted, bad, notes = worker.compare_suite_report(perturbed, expected)
    assert attempted == len(json.loads(expected)["records"])
    assert len(bad) == 2 and len(notes) == 2
    # same records, different bytes: the report itself counts once
    assert len(worker.compare_suite_report(expected.replace("\n", "\r\n"), expected)[1]) == 1


def test_user_corpus_mismatch_and_raise_are_counted():
    expected = {"a": {"outcome": "raised", "exception": "ValueError"}, "b": {"outcome": "ok"}}
    segments = [{"key": k, "wall": 0.1, "cpu": 0.1, "scale": 1.0} for k in "ab"]
    out = {"segments": segments, "records": {}}
    worker.check_user_corpus(None, [ValueError("x"), KeyError("y")], expected, out)
    # "a" raised as captured: not failed, but an op failure; "b" differs
    assert (out["attempted"], out["failed"], out["op_failures"]) == (2, 1, 2)
