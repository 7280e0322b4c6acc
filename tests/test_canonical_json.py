"""The canonical writers against ``json.dumps(indent=2, ensure_ascii=True)``.

``suite.render_json`` and ``document.serialize_algebra`` assemble their
text directly; the oracles in ``tests/oracles.py`` build the same
payloads as dicts and write them with ``json.dumps``.  Strings are drawn
with quotes, backslashes, control characters, non-ASCII and astral
characters and a lone surrogate, all of which ``ensure_ascii`` escapes.
"""

from hypothesis import given, settings, strategies as st

from blstate.document import AlgebraDocument, serialize_algebra
from blstate.suite import DISCREPANCY, FAIL, PASS, SuiteRecord, SuiteReport, render_json

from .oracles import document_by_json_dumps, report_by_json_dumps

texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\xe9 \ud800\U0001f600'),
    ),
    max_size=12,
)

records = st.builds(
    SuiteRecord,
    claim_id=texts,
    instance=texts,
    verdict=st.sampled_from([PASS, FAIL, DISCREPANCY]),
    witness=texts,
    elapsed=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(records, max_size=6), st.booleans(), st.booleans())
def test_render_json_equals_json_dumps(drawn, keep_going, timings):
    report = SuiteReport(drawn)
    assert render_json(report, keep_going, timings) == report_by_json_dumps(
        report, keep_going, timings
    )


@st.composite
def documents(draw):
    n = draw(st.integers(0, 4))  # no carrier is empty, but the writer keeps [] as json does
    entries = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n).map(tuple)
    table = st.lists(entries, min_size=n, max_size=n).map(tuple)
    rationals = st.fractions(0, 1, max_denominator=12)
    return AlgebraDocument(
        labels=tuple(draw(st.lists(texts, min_size=n, max_size=n, unique=True))),
        prod=draw(table),
        meet=draw(st.none() | table),
        join=draw(st.none() | table),
        impl=draw(st.none() | table),
        operators=draw(st.dictionaries(texts, entries, max_size=3)),
        states=draw(st.dictionaries(
            texts, st.lists(rationals, min_size=n, max_size=n).map(tuple), max_size=3
        )),
    )


@settings(max_examples=50, deadline=None)
@given(documents())
def test_serialize_algebra_equals_json_dumps(doc):
    assert serialize_algebra(doc) == document_by_json_dumps(doc)


def test_the_empty_report_equals_json_dumps():
    assert render_json(SuiteReport([])) == report_by_json_dumps(SuiteReport([]))
