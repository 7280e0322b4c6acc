"""Document format: strict parsing, canonical serialization, derivation."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from blstate.algebra import NoResiduumError, residuum_from_monoid
from blstate.constructors import four_element_example, mv_chain
from blstate.document import (
    AlgebraDocument,
    ParseError,
    ValidationError,
    document_from_algebra,
    parse_algebra,
    realize_algebra,
    realize_document,
    serialize_algebra,
)


def canonical_example_text() -> str:
    a, sigma = four_element_example()
    return serialize_algebra(document_from_algebra(a, operators={"sigma": sigma}))


def test_round_trip_is_byte_identical():
    text = canonical_example_text()
    doc = parse_algebra(text)
    assert serialize_algebra(doc) == text
    algebra, operators, _ = realize_document(doc)
    assert algebra.same_tables(four_element_example()[0])
    assert operators["sigma"].verified_class == "morphism"


def test_parse_rejects_unknown_fields():
    text = canonical_example_text()
    raw = json.loads(text)
    raw["extra"] = 1
    with pytest.raises(ParseError, match="unknown field"):
        parse_algebra(json.dumps(raw))
    raw = json.loads(text)
    raw["tables"]["bogus"] = raw["tables"]["prod"]
    with pytest.raises(ParseError, match="unknown field"):
        parse_algebra(json.dumps(raw))


def test_parse_rejects_malformed_tables():
    text = canonical_example_text()
    raw = json.loads(text)
    raw["tables"]["prod"] = []
    with pytest.raises(ParseError, match="nonempty"):
        parse_algebra(json.dumps(raw))
    raw = json.loads(text)
    raw["tables"]["prod"][0] = [0, 0, 0]
    with pytest.raises(ParseError, match="row 0"):
        parse_algebra(json.dumps(raw))
    raw = json.loads(text)
    raw["tables"]["prod"][0][0] = 99
    with pytest.raises(ParseError, match="integer in"):
        parse_algebra(json.dumps(raw))


def test_parse_error_carries_position_for_bad_json():
    with pytest.raises(ParseError) as err:
        parse_algebra("{ not json }")
    assert err.value.line == 1


def test_chain_document_with_prod_only():
    # meet/join omitted: labels order is the chain order; impl derived
    m3 = mv_chain(3)
    doc = AlgebraDocument(labels=m3.labels, prod=m3.prod)
    algebra = realize_algebra(doc)
    assert algebra.same_tables(m3)


def test_operator_and_state_fields():
    a, sigma = four_element_example()
    doc = document_from_algebra(
        a, operators={"sigma": sigma}, states={"s": (0, "1/2", 1, 1)}
    )
    from fractions import Fraction

    doc.states["s"] = tuple(Fraction(v) for v in (0, Fraction(1, 2), 1, 1))
    text = serialize_algebra(doc)
    parsed = parse_algebra(text)
    assert parsed.states["s"] == (0, Fraction(1, 2), 1, 1)
    algebra, operators, states = realize_document(parsed)
    assert states["s"].values == (0, Fraction(1, 2), 1, 1)


def test_validation_error_for_non_algebra():
    a, _ = four_element_example()
    prod = [list(r) for r in a.prod]
    prod[1][2] = prod[2][1] = 0
    doc = AlgebraDocument(labels=a.labels, prod=tuple(map(tuple, prod)),
                          meet=a.meet, join=a.join, impl=a.impl)
    with pytest.raises(ValidationError) as err:
        realize_algebra(doc)
    assert err.value.violation is not None
    assert err.value.violation.axiom == "adjointness"


def test_operators_must_be_an_object():
    text = canonical_example_text()
    raw = json.loads(text)
    raw["operators"] = [[0, 1, 3, 3]]
    with pytest.raises(ParseError, match="operators must be an object"):
        parse_algebra(json.dumps(raw))
    raw = json.loads(text)
    raw["states"] = ["0", "1", "1", "1"]
    with pytest.raises(ParseError, match="states must be an object"):
        parse_algebra(json.dumps(raw))


def test_bad_rational_in_state():
    text = canonical_example_text()
    raw = json.loads(text)
    raw["states"] = {"s": ["0", "x", "1", "1"]}
    with pytest.raises(ParseError, match="bad rational"):
        parse_algebra(json.dumps(raw))
    raw["states"] = {"s": ["0", "3/2", "1", "1"]}
    with pytest.raises(ParseError, match="outside"):
        parse_algebra(json.dumps(raw))


def _derive(derive, leq, prod):
    """``("impl", table)``, or ``("none at", pair)`` for the first pair
    without a residuum."""
    try:
        return "impl", derive(leq, prod)
    except NoResiduumError as exc:
        return "none at", exc.pair


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derived_impl_matches_the_scan_oracle(data):
    """On an order, impl read from C-level candidate sets equals the
    element scan, or both name the same pair without a residuum; the
    products are drawn from sealed algebras, with entries perturbed."""
    from .oracles import residuum_by_scan
    from .strategies import algebras

    a = data.draw(algebras)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    prods = [a.prod]
    for changes in (1, 1, 2, 3):
        prod = [list(row) for row in a.prod]
        for _ in range(changes):
            prod[rng.randrange(a.size)][rng.randrange(a.size)] = rng.randrange(a.size)
        prods.append(prod)
    for prod in prods:
        assert _derive(residuum_from_monoid, a.leq, prod) == _derive(residuum_by_scan, a.leq, prod)


def test_a_relation_that_is_no_order_has_a_residuum_exactly_when_the_scan_finds_one():
    """With a relation that is not antisymmetric two candidates can both
    lie above every candidate, and the routes may pick different ones;
    they agree on where no residuum exists, and each pick is above every
    candidate."""
    from .oracles import residuum_by_scan

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 6)
        leq = [[x == y or rng.random() < 0.5 for y in range(n)] for x in range(n)]
        prod = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        kind, fast = _derive(residuum_from_monoid, leq, prod)
        scan_kind, scan = _derive(residuum_by_scan, leq, prod)
        assert kind == scan_kind
        if kind == "none at":
            assert fast == scan
        else:
            for x, y in ((x, y) for x in range(n) for y in range(n)):
                candidates = [z for z in range(n) if leq[prod[x][z]][y]]
                assert fast[x][y] in candidates
                assert all(leq[w][fast[x][y]] for w in candidates)
