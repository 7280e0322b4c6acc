"""Suite runner: claim coverage, verdicts, deterministic reports."""

import dataclasses
import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from blstate import algebra, filters, operators, states, suite
from blstate.constructors import direct_product, godel_chain, mv_chain, quotient_by_filter
from blstate.corpus import CorpusInstance, _mv_instance, default_corpus, load_corpus_dir
from blstate.document import (
    document_from_algebra,
    parse_algebra,
    realize_document,
    serialize_algebra,
)
from blstate.operators import enumerate_operator_tables, enumerate_state_operators
from blstate.suite import (
    CLAIM_IDS,
    REGISTRY,
    render_json,
    render_text,
    run_suite,
)

from .test_constructors import RELABELED_CARRIERS, relabel, shuffled_order


@pytest.fixture(scope="module")
def report(corpus):
    return run_suite(corpus)


def test_every_claim_id_appears_at_least_once(report):
    covered = {r.claim_id for r in report.records}
    assert covered == set(CLAIM_IDS)


def test_no_failures_on_default_corpus(report):
    assert report.failures == []
    assert suite.DISCREPANCY not in {r.verdict for r in report.records}


def test_claim_ids_are_unique():
    assert len(CLAIM_IDS) == len(set(CLAIM_IDS))


def test_records_are_sorted(report):
    keys = [(r.claim_id, r.instance) for r in report.records]
    assert keys == sorted(keys)


def test_runs_produce_identical_reports(corpus):
    ids = ["Lemma-3.5-a", "Prop-2.10", "Thm-7.3", "Rem-4.5"]
    r1 = run_suite(corpus, ids)
    r2 = run_suite(default_corpus(), ids)  # fresh instances: every memo is cold
    assert render_text(r1) == render_text(r2)
    assert render_json(r1) == render_json(r2)


def test_more_than_one_worker_is_rejected(corpus):
    with pytest.raises(ValueError):
        run_suite(corpus, workers=2)
    with pytest.raises(ValueError):
        enumerate_operator_tables(corpus[0].algebra, "state", workers=2)


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


# sha256 of the canonical default-corpus report, ``blstate paper-suite
# --format json --keep-going``; perfbench's paper-suite check pins the same bytes
DEFAULT_REPORT_SHA256 = "c21e471d0f2dc0aebac64d81fdb46ee1a1f332d2d3d586370853075bf115f035"


def test_the_default_report_bytes_are_pinned(report):
    text = render_json(report, keep_going=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


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


@pytest.mark.parametrize(
    "claim_id, module, name, broken, prefix",
    [
        ("Prop-2.6", filters, "is_maximal_by_power_criterion", lambda *args: False,
         "internal cross-check: "),
        ("Prop-2.10", filters, "radical_by_formula", lambda a: frozenset(),
         "internal cross-check: "),
        ("Prop-2.7", filters, "is_primary", lambda a, f: False,
         "internal cross-check: local flag disagrees with the primary-filter criterion"),
        ("Rem-2.15", states, "luk_mult_witness", lambda a, p, d: (0, 0),
         "internal cross-check: "),
        # a per-operator claim names the operator whose cross-check failed
        ("Prop-5.4", operators, "filter_generated_masks",
         lambda a, seeds, sigma=None: [(1 << a.size) - 1 for _ in seeds],
         "identity: internal cross-check: state-filter closure mismatch"),
        # the applies filter of Prop-4.12 is the first to classify the carrier
        ("Prop-4.12", filters, "radical_by_formula", lambda a: frozenset(),
         "internal cross-check: radical mismatch"),
        # a claim that reads classify_state_algebra is graded per operator too
        ("Thm-7.3", operators, "state_filters", lambda a, sigma=None: (),
         "identity: internal cross-check: operator kernel is not a state-filter"),
    ],
)
def test_claim_fails_through_its_library_cross_check(
    monkeypatch, claim_id, module, name, broken, prefix
):
    # these claims only call the library function that asserts their law;
    # a fresh instance has no memo, so the broken check is reached
    monkeypatch.setattr(module, name, broken)
    inst = _mv_instance(3)  # carries the identity and its enumeration
    report = run_suite([inst], [claim_id, "Prop-2.2-1"])
    verdicts = {r.claim_id: (r.verdict, r.witness) for r in report.records}
    verdict, witness = verdicts[claim_id]
    assert verdict == "fail"
    assert witness.startswith(prefix)
    assert verdicts["Prop-2.2-1"] == ("pass", "")


# each outcome of classify_state_algebra and the claim that grades it
OUTCOME_CLAIMS = {
    "radical-image-inclusion": "Prop-5.7",
    "radical-image-equality-strong": "Prop-5.7",
    "radical-sigma-identity": "Prop-5.10",
    "simple-iff-kernel-maximal": "Thm-7.3",
    "semisimple-iff-radical-in-kernel": "Thm-7.5",
    "perfect-iff-radical-faithful-and-image-perfect": "Thm-7.6",
    "local-iff-image-local": "Thm-7.8",
    "simple-iff-local-and-kernel-radical": "Thm-7.9",
}


def _graded_with(monkeypatch, change):
    """The records of the classification claims on mv_chain(3) when each
    outcome of the identity's real classification goes through ``change``."""
    inst = _mv_instance(3)
    [(_, op)] = inst.pool()
    real = suite.classify_state_algebra(op)
    # a radical-faithful morphism: the classification emits every outcome
    assert sorted(c.claim for c in real.checks) == sorted(OUTCOME_CLAIMS)
    forged = dataclasses.replace(real, checks=tuple(map(change, real.checks)))
    monkeypatch.setattr(suite, "classify_state_algebra", lambda op: forged)
    report = run_suite([inst], set(OUTCOME_CLAIMS.values()))
    return {r.claim_id: (r.verdict, r.witness) for r in report.records}


@pytest.mark.parametrize("holds, verdict", [(False, "fail"), (None, "discrepancy")])
def test_every_classification_claim_grades_the_outcomes_it_names(monkeypatch, holds, verdict):
    got = _graded_with(monkeypatch, lambda c: dataclasses.replace(c, holds=holds))
    assert {cid: v for cid, (v, _) in got.items()} == dict.fromkeys(OUTCOME_CLAIMS.values(), verdict)


@pytest.mark.parametrize("outcome", OUTCOME_CLAIMS)
def test_an_outcome_that_fails_fails_only_the_claim_that_names_it(monkeypatch, outcome):
    # a misspelt name in the registry would leave its outcome ungraded
    got = _graded_with(
        monkeypatch, lambda c: dataclasses.replace(c, holds=False) if c.claim == outcome else c
    )
    failed = {cid: witness for cid, (verdict, witness) in got.items() if verdict != "pass"}
    assert list(failed) == [OUTCOME_CLAIMS[outcome]]
    assert failed[OUTCOME_CLAIMS[outcome]].startswith(f"identity: {outcome} (")


def test_rem_2_11_fails_through_classify_algebra(monkeypatch):
    # on an MV carrier x-- = x, so the check can trip only off MV: on the
    # Goedel chain 0 < 1 < 2, Rad = {1} gives Rad- = {0} and 0- = 2
    real = filters.radical
    monkeypatch.setattr(
        filters, "radical", lambda a, sigma=None: frozenset({1}) if sigma is None else real(a, sigma)
    )
    inst = CorpusInstance(name="g3", algebra=godel_chain(3))
    [record] = run_suite([inst], ["Rem-2.11"]).records
    assert (record.verdict, record.witness) == (
        "fail",
        "internal cross-check: x in Rad- does not give x- in Rad",
    )


def test_extremal_claims_do_not_recheck_states(monkeypatch):
    # extremal states and their pull-backs are checked once, when built;
    # a second run over the same corpus finds them memoized
    corpus = default_corpus()
    ids = ["Rem-2.15", "Prop-6.2"]
    run_suite(corpus, ids)
    calls = []
    real = states.check_state

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(states, "check_state", counting)
    monkeypatch.setattr(suite, "check_state", counting)
    report = run_suite(corpus, ids)
    assert {r.verdict for r in report.records} == {"pass"}
    assert {r.claim_id for r in report.records} == set(ids)
    assert calls == []


def test_a_cold_run_checks_states_seals_images_and_walks_powers_once(monkeypatch):
    # upper bounds measured on the default corpus, built inside the count,
    # where each state object is scanned once, only its documents and
    # constructors are sealed (quotients and images go by certificate) and
    # is_primary walks each element's powers once per filter
    counted = {states: "bosbach_witness", algebra: "find_axiom_violation",
               filters: "has_power_negation_in"}
    counts = dict.fromkeys(counted.values(), 0)
    for module, name in counted.items():

        def counting(*args, _real=getattr(module, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    report = run_suite(default_corpus())
    assert report.failures == []
    assert counts["bosbach_witness"] <= 70
    assert counts["find_axiom_violation"] <= 30
    assert counts["has_power_negation_in"] <= 1820


def test_a_cold_run_decides_every_large_law_with_a_kernel_on_rows(monkeypatch):
    # every law with a row kernel (the BL laws, Prop-2.2-1, 2, 5 and 6, the
    # operator axioms and preservation) is decided by its kernel on every carrier of
    # at most 256 elements, which every default carrier is; the per-tuple
    # evaluator decides the others and names the witness of a failing law only
    decisions, scans = [], []
    real_holds, real_witness = algebra.holds, algebra.witness

    def deciding(law, a, table=None):
        ran, kernel = [], law.rows
        if kernel is not None:  # Law is frozen: swap in a kernel that reports its call
            object.__setattr__(law, "rows", lambda b, t: ran.append(b) or kernel(b, t))
        try:
            verdict = real_holds(law, a, table)
        finally:
            object.__setattr__(law, "rows", kernel)
        decisions.append((law, verdict, bool(ran), a.size <= 256))
        return verdict

    def scanning(law, *args):
        found = real_witness(law, *args)
        scans.append((law, found))
        return found

    for module in (algebra, operators, suite):
        monkeypatch.setattr(module, "holds", deciding)
    monkeypatch.setattr(algebra, "witness", scanning)
    monkeypatch.setattr(operators, "witness", scanning)
    report = run_suite(default_corpus())
    assert report.failures == []
    assert [law.text for law, _, rows, small in decisions
            if rows != (small and law.rows is not None)] == []
    # the fifteen BL laws of sealing (adjointness, divisibility and
    # prelinearity share the empty text), the four Prop-2.2 kernels, and all
    # ten of the operator laws
    assert len({law.text for law, _, rows, _ in decisions if rows}) == 27
    # Prop-3.13 decides every MV law through holds, and names no witness for one
    mv_laws = [*operators.MV_LAWS.values(), operators.ADDITIVITY]
    decided = {law for law, _, _, _ in decisions}
    assert [law.text for law in mv_laws if law not in decided] == []
    assert [law.text for law, _ in scans if law in mv_laws] == []
    assert [law.text for law, found in scans if found is None] == []


@pytest.mark.parametrize("enumerated", [True, False])
def test_prop_3_13_fails_when_the_mv_and_state_tables_differ(monkeypatch, enumerated):
    inst = _mv_instance(2)
    if not enumerated:  # as on a carrier above the enumeration limit
        inst = dataclasses.replace(inst, enumerated=None)
    real = suite.enumerate_operator_tables
    [identity] = real(inst.algebra, "state")
    assert run_suite([inst], ["Prop-3.13"]).failures == []
    for mv, witness in (([(0, 2, 2)], "(0, 1, 2) is only in the state tables"),
                        ([identity, (0, 2, 2)], "(0, 2, 2) is only in the mv tables")):
        monkeypatch.setattr(suite, "enumerate_operator_tables",
                            lambda a, cls, _mv=mv: _mv if cls == "mv" else real(a, cls))
        [record] = run_suite([inst], ["Prop-3.13"]).records
        assert (record.verdict, record.witness) == ("fail", witness)


@pytest.mark.parametrize("enumerated", [True, False])
def test_prop_3_13_fails_on_a_state_operator_that_is_not_strong(monkeypatch, enumerated):
    inst = _mv_instance(2)
    [op] = enumerate_state_operators(inst.algebra)
    weak = dataclasses.replace(op, failed=("3s",))  # a state operator that is not strong
    assert weak.is_state and not weak.is_strong
    if enumerated:
        inst = dataclasses.replace(inst, enumerated=(weak,))
    else:  # as on a carrier above the enumeration limit
        inst = dataclasses.replace(inst, enumerated=None)
        monkeypatch.setattr(suite, "enumerate_state_operators", lambda a: [weak])
    [record] = run_suite([inst], ["Prop-3.13"]).records
    assert (record.verdict, record.witness) == (
        "fail", f"{op.table} is a state operator that is not strong")


def test_a_cold_run_checks_prop_5_4_in_one_kernel_call_per_operator(monkeypatch):
    # every seed of an operator goes through one state_filter_closures call;
    # the per-seed wrappers are for library users only
    corpus = default_corpus()
    calls = []
    real = suite.state_filter_closures

    def counting(op, *args):
        calls.append(id(op))
        return real(op, *args)

    monkeypatch.setattr(suite, "state_filter_closures", counting)
    monkeypatch.setattr(operators, "state_filter_generated", lambda *args: calls.append("one seed"))
    report = run_suite(corpus)
    assert report.failures == []
    pooled = [id(op) for inst in corpus for _, op in suite._pool(inst, "state")]
    assert sorted(calls) == sorted(pooled)
    assert len(calls) == len(set(calls)) == 48


def test_pool_is_built_once_and_never_stale():
    [inst] = [i for i in default_corpus() if i.name == "godel3xgodel3"]

    def fresh(instance):  # the pool of an equal instance that never built one
        return dataclasses.replace(instance).pool()

    def replaced(instance, **operators_and_enumerated):
        ops = operators_and_enumerated.pop("operators", instance.operators)
        changed = dataclasses.replace(
            instance, operators=MappingProxyType(ops), **operators_and_enumerated
        )
        assert changed.pool() is not instance.pool()  # its own pool
        return changed

    first = inst.pool()
    assert inst.pool() is first and first == fresh(inst)
    names = [name for name, _ in first]
    assert names[:4] == list(inst.operators) and "enum_2" in names
    assert len({op.table for _, op in first}) == len(first)  # deduplicated
    a = inst.algebra
    top = operators.verify_operator(a, [a.top] * a.size)  # not a state
    # an instance is a value: editing a field or one of its maps raises
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.enumerated = None
    for mapping in (inst.operators, inst.rejected, inst.states):
        with pytest.raises(TypeError):
            mapping["top"] = top
    with pytest.raises(TypeError):
        del inst.operators["identity"]
    assert inst.pool() is first and list(inst.operators) == names[:4]
    # a replaced instance builds its own pool from its own fields
    built, inst = inst, replaced(inst, operators={**inst.operators, "top": top})
    assert inst.pool() == first
    extra = operators.verify_operator(a, operators.identity_table(a))
    inst = replaced(inst, operators={**inst.operators, "identity": extra})  # a new equal object
    assert inst.pool()[0][1] is extra and inst.pool() == fresh(inst)
    inst = replaced(inst, operators={**inst.operators, "copy": extra})
    assert ("copy", extra) in inst.pool() and inst.pool() == fresh(inst)
    inst = replaced(inst, enumerated=inst.enumerated[:3])
    assert inst.pool() == fresh(inst) and len(inst.pool()) < len(first)
    ops = {name: op for name, op in inst.operators.items() if name != "identity"}
    inst = replaced(inst, operators=ops, enumerated=None)
    assert inst.pool() == fresh(inst)
    assert [name for name, _ in inst.pool()][-1] == "copy"
    assert built.pool() is first and first == fresh(built)


def test_an_instance_keeps_copies_of_the_maps_it_is_given():
    a = godel_chain(3)
    ops = {"floor": operators.verify_operator(a, operators.godel_floor_table(a, 1))}
    doc_states = {"top": states.extremal_states(a)[0]}
    inst = CorpusInstance("g3", a, operators=ops, states=doc_states)
    first = inst.pool()
    ops["floor"] = ops["identity"] = operators.verify_operator(a, operators.identity_table(a))
    doc_states.clear()
    assert dict(inst.operators) != ops and list(inst.states) == ["top"]
    assert inst.pool() is first and [name for name, _ in first][0] == "floor"
    assert first == dataclasses.replace(inst).pool()


def test_thm_2_5_scans_the_barycenter_of_every_face_once(monkeypatch):
    # three extremal states on a fresh carrier: three vertices, scanned
    # when built, and four faces; a second run finds every verdict cached
    a = direct_product(mv_chain(1), mv_chain(1), mv_chain(1))
    scanned = []
    real = states.check_state
    monkeypatch.setattr(states, "check_state", lambda st: scanned.append(st) or real(st))
    inst = CorpusInstance("mv1^3", a)
    assert run_suite([inst], ["Thm-2.5"]).failures == []
    faces = states.face_barycenters(states.extremal_states(a))
    assert scanned == [*states.extremal_states(a), *(st for _, st in faces)]
    assert run_suite([inst], ["Thm-2.5"]).failures == [] and len(scanned) == 7


def test_thm_2_5_names_the_face_whose_barycenter_fails(monkeypatch):
    a = mv_chain(2)
    not_a_state = states._state(a, (0, 1, 1), 2)  # s(1) != 1
    monkeypatch.setattr(suite, "face_barycenters", lambda ext: (((0, 2), not_a_state),))
    [record] = run_suite([CorpusInstance("mv2", a)], ["Thm-2.5"]).records
    assert (record.verdict, record.witness) == (
        "fail", "state face (0, 2) is not a state (bosbach at ('top',))",
    )


def test_classification_claims_do_not_apply_to_the_one_element_algebra():
    # classify_algebra's flags are degenerate at n = 1 and it skips the
    # equivalences there, so the claims that read them skip it too
    a = mv_chain(2)
    one, _ = quotient_by_filter(a, frozenset(range(a.size)))
    assert one.size == 1
    inst = CorpusInstance(name="one", algebra=one)
    report = run_suite([inst], ["Prop-2.7", "Prop-2.8", "Lemma-2.14", "Prop-2.6"])
    assert [(r.claim_id, r.verdict) for r in report.records] == [("Prop-2.6", "pass")]


def test_thm_2_5_fails_a_document_map_that_is_not_a_state(tmp_path):
    doc = document_from_algebra(mv_chain(2), states={"m": (Fraction(1, 2), Fraction(1, 2), 1)})
    (tmp_path / "m.json").write_text(serialize_algebra(doc))
    [record] = run_suite(load_corpus_dir(tmp_path), ["Thm-2.5"]).records
    assert (record.verdict, record.witness) == (
        "fail",
        "state m is not a state (bosbach at ('bottom',))",
    )


# the names, in order, of each default instance's operators, rejected
# operators and pool; a passing record's witness is empty, so the report
# hash cannot see them
DEFAULT_NAMES = {
    **{f"mv_chain({n})": (["identity"], [], ["identity"]) for n in range(1, 6)},
    **{
        f"godel_chain({n})": (floors, [], floors)
        for n in range(3, 6)
        for floors in [["identity", *(f"sigma_le_g{x}" for x in range(n - 2))]]
    },
    "example_3_4": (["identity", "sigma"], [], ["identity", "sigma"]),
    **{
        name: (diag, [], diag)
        for name in ("s1xs1", "mv2xmv2")
        for diag in [["identity", "sigma_diag_left", "sigma_diag_right"]]
    },
    "s1_plus_s1xs1": (
        shaped := ["identity", "sigma_J_none", "sigma_J_1", "sigma_J_2", "sigma_J_12",
                   "sigma_cut_s1.(x0,x1)", "sigma_cut_s1.(x1,x0)"],
        [],
        shaped,
    ),
    "s1_plus_s2xs1": (shaped[:-1], [], shaped[:-1]),
    "s4xs4": (["identity"], ["sigma_cut_(x0,x4)"], ["identity"]),
    "godel3xgodel3": (
        named := ["identity", "sigma_h_collapse", "sigma_diag_left", "sigma_diag_right"],
        [],
        [*named, *(f"enum_{i}" for i in (2, 4, 5, 6, 8, 9))],
    ),
    "godel3xgodel4_h": (["identity", "sigma_h"], [], ["identity", "sigma_h"]),
}


def test_the_default_instances_keep_their_operator_and_pool_names(corpus):
    got = {
        inst.name: (list(inst.operators), list(inst.rejected), [name for name, _ in inst.pool()])
        for inst in corpus
    }
    assert list(got) == list(DEFAULT_NAMES) and got == DEFAULT_NAMES


def _verdicts(corpus_dir):
    """Per document of the directory, the multiset of its (claim, verdict)
    records; witnesses name elements, so they are left out."""
    report = run_suite(load_corpus_dir(corpus_dir))
    out = {}
    for r in report.records:
        out.setdefault(r.instance, Counter())[r.claim_id, r.verdict] += 1
    return out


def test_suite_verdicts_do_not_depend_on_the_element_numbering(tmp_path):
    """A document and the same document renumbered, by one fixed
    renumbering that is no linear extension of the order, get the same
    verdicts: three constructor carriers and the example, whose operator
    is renumbered with its carrier."""
    golden = Path(__file__).parent / "golden" / "example_3_4.json"
    example, named, _ = realize_document(parse_algebra(golden.read_text(encoding="utf-8")))
    documents = {"example_3_4": (example, {name: op.table for name, op in named.items()})}
    for name in ("mv2 x g3", "g3 x g3", "mv2 + (mv1 x mv1)"):
        documents[name.replace(" ", "")] = (RELABELED_CARRIERS[name], {})
    for side in ("plain", "renumbered"):
        (tmp_path / side).mkdir()
    for stem, (a, tables) in documents.items():
        perm = shuffled_order(a, random.Random(stem))
        back = sorted(range(a.size), key=perm.__getitem__)  # back[perm[x]] == x
        moved = {name: tuple(perm[t[x]] for x in back) for name, t in tables.items()}
        for side, b, ops in (("plain", a, tables), ("renumbered", relabel(a, perm), moved)):
            text = serialize_algebra(document_from_algebra(b, ops))
            (tmp_path / side / f"{stem}.json").write_text(text, encoding="utf-8")
    plain = _verdicts(tmp_path / "plain")
    assert set(plain) == set(documents) and plain["example_3_4"]["Prop-5.4", "pass"] == 1
    assert _verdicts(tmp_path / "renumbered") == plain


def test_a_long_run_keeps_blstate_memory_flat(tmp_path):
    """Rounds of the default corpus and a small user corpus in one
    process: from the second round on, the memory that blstate's own
    code holds does not grow, so every memo (an instance's pool, an
    operator's image, an algebra's filters) is freed with its object.
    Only allocations made in ``src/blstate`` count: the standard library
    keeps caches of its own (``io.open`` behind ``Path.read_text``)."""
    for golden in (Path(__file__).parent / "golden").glob("*.json"):
        (tmp_path / golden.name).write_text(golden.read_text(encoding="utf-8"), encoding="utf-8")
    product = document_from_algebra(direct_product(mv_chain(1), godel_chain(3)))
    (tmp_path / "product.json").write_text(serialize_algebra(product), encoding="utf-8")
    package = [tracemalloc.Filter(True, str(Path(algebra.__file__).parent / "*"))]
    held = []
    tracemalloc.start()
    try:
        for _ in range(3):
            for corpus in (default_corpus(), load_corpus_dir(tmp_path)):
                assert run_suite(corpus).failures == []
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(package)
            held.append(sum(stat.size for stat in snapshot.statistics("filename")))
    finally:
        tracemalloc.stop()
    assert held[0] > 0 and max(held[1:]) <= held[1], held
