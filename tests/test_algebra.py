"""Core algebra: axioms, residuation, derived operations, variety flags."""

import threading
import time
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from blstate.algebra import (
    BLAxiomError,
    INFINITE_ORDER,
    NoResiduumError,
    classify_variety,
    find_axiom_violation,
    memoized,
    residuum_from_monoid,
    verify_bl_axioms,
)
from blstate.constructors import four_element_example, godel_chain, mv_chain

from .strategies import algebras


def test_two_element_boolean_verifies():
    a = mv_chain(1)
    assert a.size == 2
    assert a.bottom == 0 and a.top == 1
    assert a.neg(0) == 1 and a.neg(1) == 0


def test_equality_and_hash_stay_structural():
    a, b = mv_chain(3), mv_chain(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, godel_chain(4)}) == 2
    renamed = a.relabeled(["z", "y", "x", "w"])
    assert renamed != a and renamed.same_tables(a)


def test_memoized_stores_values_not_exceptions_and_one_value_per_race():
    calls = []

    @memoized
    def fresh(owner, key):
        calls.append(key)
        time.sleep(0.01)  # every racing thread starts computing before any stores
        if key < 0:
            raise ValueError(key)
        return object()

    owner = SimpleNamespace()
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(fresh(owner, 1))) for _ in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(g is got[0] for g in got)
    assert fresh(owner, 1) is got[0] and fresh(owner, 2) is not got[0]
    for _ in range(2):
        with pytest.raises(ValueError):
            fresh(owner, -1)
    assert calls.count(-1) == 2


def test_four_element_example_is_bl_but_not_mv():
    a, _sigma = four_element_example()
    flags = classify_variety(a)
    assert not flags.is_mv
    # b is the double-negation witness: b-- = 1 != b
    assert flags.witness("is_mv") == (2,)
    assert a.neg(a.neg(2)) == 3
    assert flags.is_linear and not flags.is_godel


def test_residuum_from_monoid_matches_printed_table():
    a, _ = four_element_example()
    derived = residuum_from_monoid(a.leq, a.prod)
    assert derived == a.impl
    assert a.impl[2][1] == 1  # b->a = a


def test_residuum_mv_chain_formula():
    a = mv_chain(4)
    derived = residuum_from_monoid(a.leq, a.prod)
    assert derived == a.impl
    assert a.impl[3][1] == 2  # x3 -> x1 = x2 = x_{(4-3+1)^4}
    for b in range(a.size):
        assert a.impl[a.bottom][b] == a.top


def test_residuum_error_when_not_residuated():
    # meet on the 4-element Boolean lattice 0 < p,q < 1 is a commutative
    # monoid with unit top, but {z : p^z <= q} = {0,q} has no maximum
    # under the flat order... use a modified non-residuated table instead:
    # prod with prod(p,q)=0, prod(p,p)=p, prod(q,q)=q on the diamond.
    n = 4
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    leq = [[meet[a][b] == a for b in range(n)] for a in range(n)]
    prod = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]]
    with pytest.raises(NoResiduumError):
        residuum_from_monoid(leq, prod)


def test_mutated_example_first_violation_is_deterministic():
    """Mutating prod(a,b), prod(b,a) from a to 0 must be caught.

    Oracle: re-evaluate the axiom groups in the documented scan order on
    the mutated tables.  Divisibility indeed fails (at (b,a)), but an
    adjointness failure at (a, 0, b) precedes it in scan order, so that
    is the required first witness.
    """
    a, _ = four_element_example()
    prod = [list(r) for r in a.prod]
    prod[1][2] = prod[2][1] = 0

    # independent oracle for the two groups in question
    def le(x, y):
        return a.meet[x][y] == x

    adj = [
        (x, y, z)
        for x, y, z in iproduct(range(4), repeat=3)
        if le(z, a.impl[x][y]) != le(prod[x][z], y)
    ]
    div = [
        (x, y)
        for x, y in iproduct(range(4), repeat=2)
        if a.meet[x][y] != prod[x][a.impl[x][y]]
    ]
    assert adj and div
    assert adj[0] == (1, 0, 2)
    assert (2, 1) in div

    violation = find_axiom_violation(a.meet, a.join, tuple(map(tuple, prod)), a.impl, 0, 3)
    assert violation is not None
    assert violation.axiom == "adjointness"
    assert violation.witness == (1, 0, 2)
    with pytest.raises(BLAxiomError):
        verify_bl_axioms(a.labels, a.meet, a.join, prod, a.impl, 0, 3)


def test_shape_errors():
    a, _ = four_element_example()
    with pytest.raises(ValueError):
        verify_bl_axioms(["0", "0", "b", "1"], a.meet, a.join, a.prod, a.impl, 0, 3)
    with pytest.raises(ValueError):
        verify_bl_axioms(a.labels, a.meet, a.join, a.prod, [[9] * 4] * 4, 0, 3)


def test_derived_operations_on_example():
    a, _ = four_element_example()
    assert a.oplus(1, 1) == 3  # a + a = 1
    assert a.dist(2, 2) == 3
    assert a.ominus(2, 1) == a.prod[2][a.neg(1)]
    assert a.ord_of(1) == 2
    assert a.ord_of(2) == INFINITE_ORDER
    assert a.power(1, 0) == a.top and a.power(1, 2) == a.bottom


def test_variety_flags():
    assert classify_variety(mv_chain(4)).is_mv
    g = classify_variety(godel_chain(4))
    assert g.is_godel and g.is_linear
    assert classify_variety(mv_chain(3)).mv_or_product_identity
    assert classify_variety(godel_chain(3)).is_linear


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_residuum_recomputation_round_trips(a):
    # residuum_from_monoid followed by the axiom scan never reports
    # an adjointness violation
    derived = residuum_from_monoid(a.leq, a.prod)
    assert derived == a.impl
    assert find_axiom_violation(a.meet, a.join, a.prod, derived, a.bottom, a.top) is None


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_standard_laws_hold_on_sealed_algebras(a):
    n = a.size
    for x, y in iproduct(range(n), repeat=2):
        assert a.impl[x][a.neg(y)] == a.neg(a.prod[x][y])
        assert a.impl[x][a.meet[x][y]] == a.impl[x][y]
    for x, y, z in iproduct(range(n), repeat=3):
        assert a.impl[x][a.impl[y][z]] == a.impl[a.prod[x][y]][z]


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_orthogonality_forms_agree(a):
    for x, y in iproduct(range(a.size), repeat=2):
        c1 = a.le(a.neg(a.neg(x)), a.neg(y))
        c2 = a.le(x, a.neg(y))
        c3 = a.prod[x][y] == a.bottom
        assert c1 == c2 == c3
        if c3:
            assert a.partial_sum(x, y) == a.partial_sum(y, x)
