"""Suite runner: claim coverage, verdicts, deterministic reports."""

import pytest

from blstate.suite import (
    CLAIM_IDS,
    REGISTRY,
    render_json,
    render_text,
    run_suite,
)


@pytest.fixture(scope="module")
def report(corpus):
    return run_suite(corpus)


def test_every_claim_id_appears_at_least_once(report):
    covered = {r.claim_id for r in report.records}
    assert covered == set(CLAIM_IDS)


def test_no_failures_on_default_corpus(report):
    assert report.failures == []
    assert report.discrepancies == []


def test_claim_ids_are_unique():
    assert len(CLAIM_IDS) == len(set(CLAIM_IDS))


def test_records_are_sorted(report):
    keys = [(r.claim_id, r.instance) for r in report.records]
    assert keys == sorted(keys)


def test_worker_counts_produce_identical_reports(corpus):
    ids = ["Lemma-3.5-a", "Prop-2.10", "Thm-7.3", "Rem-4.5"]
    r1 = run_suite(corpus, ids, workers=1)
    r3 = run_suite(corpus, ids, workers=3)
    assert render_text(r1) == render_text(r3)
    assert render_json(r1) == render_json(r3)


def test_unknown_claim_rejected(corpus):
    with pytest.raises(KeyError):
        run_suite(corpus, ["Nope-0.0"])


def test_negative_claim_passes_on_negative_instance(corpus_by_name, corpus):
    r = run_suite([corpus_by_name["s4xs4"]], ["Rem-4.5"])
    assert len(r.records) == 1 and r.records[0].verdict == "pass"


def test_render_text_summary_line(report):
    text = render_text(report)
    assert text.endswith("discrepancy\n")
    first = text.splitlines()[0]
    assert first.startswith("PASS")


def test_render_json_is_valid(report):
    import json

    payload = json.loads(render_json(report))
    assert payload["format"] == "blstate-suite/1"
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["records"] == len(report.records)


def test_fail_fast_rendering():
    from blstate.suite import SuiteRecord, SuiteReport

    records = [
        SuiteRecord("A", "x", "pass", "", 0.0),
        SuiteRecord("B", "x", "fail", "boom", 0.0),
        SuiteRecord("C", "x", "pass", "", 0.0),
    ]
    rep = SuiteReport(records)
    text = render_text(rep, keep_going=False)
    assert "C @ x" not in text
    assert "stopped at first failure" in text
    full = render_text(rep, keep_going=True)
    assert "C @ x" in full

    import json

    payload = json.loads(render_json(rep, keep_going=False))
    assert [r["claim"] for r in payload["records"]] == ["A", "B"]
    summary = payload["summary"]
    assert summary["stopped_early"] is True
    assert (summary["records"], summary["pass"], summary["fail"]) == (2, 1, 1)
    full = json.loads(render_json(rep, keep_going=True))
    assert [r["claim"] for r in full["records"]] == ["A", "B", "C"]
    assert full["summary"]["stopped_early"] is False


def test_descriptions_present():
    for claim in REGISTRY:
        assert claim.description
