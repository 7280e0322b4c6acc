"""Core algebra: axioms, residuation, derived operations, variety flags."""

import dataclasses
import threading
import time
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from blstate.algebra import (
    BLAxiomError,
    INFINITE_ORDER,
    NoResiduumError,
    as_table,
    classify_variety,
    find_axiom_violation,
    memoized,
    residuum_from_monoid,
    verify_bl_axioms,
)
from blstate.constructors import (
    direct_product,
    four_element_example,
    godel_chain,
    mv_chain,
    pair_index,
)

from .oracles import first_violation
from .strategies import algebras
from .test_operators import LADDER, ladder_carrier


def test_two_element_boolean_verifies():
    a = mv_chain(1)
    assert a.size == 2
    assert a.bottom == 0 and a.top == 1
    assert a.neg(0) == 1 and a.neg(1) == 0


def test_equality_and_hash_stay_structural():
    a, b = mv_chain(3), mv_chain(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, godel_chain(4)}) == 2
    renamed = dataclasses.replace(a, labels=("z", "y", "x", "w"))
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
    assert dict(flags.witnesses)["is_mv"] == (2,)
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
    assert a.oplus_table[1][1] == 3  # a + a = 1
    assert a.dist(2, 2) == 3
    assert a.ord_of(1) == 2
    assert a.ord_of(2) == INFINITE_ORDER
    assert a.power_values(1) == (1, a.bottom) and a.power_values(a.top) == (a.top,)


def test_variety_flags():
    assert classify_variety(mv_chain(4)).is_mv
    g = classify_variety(godel_chain(4))
    assert g.is_godel and g.is_linear
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
            # the partial sum x + y = y- -> x-- is symmetric
            assert a.impl[a.neg(y)][a.neg(a.neg(x))] == a.impl[a.neg(x)][a.neg(a.neg(y))]


# The enumeration-ladder carriers, mv7xg4 (32 elements) and the
# one-element carrier.
SEAL_CARRIERS = (
    *map(ladder_carrier, LADDER),
    direct_product(mv_chain(7), godel_chain(4)),
    verify_bl_axioms(["0"], [[0]], [[0]], [[0]], [[0]], 0, 0),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(algebras, st.sampled_from(SEAL_CARRIERS)), st.data())
def test_table_check_agrees_with_element_scan(a, data):
    tables = [a.meet, a.join, a.prod, a.impl]
    sealed = (*tables, a.bottom, a.top)
    assert find_axiom_violation(*sealed) is None and first_violation(*sealed) is None

    # change 1-2 entries of one table, mirrored across the diagonal on
    # request so that commutativity holds and later laws are reached
    which = data.draw(st.integers(0, 3))
    rows = [list(r) for r in tables[which]]
    entry = st.integers(0, a.size - 1)
    for _ in range(data.draw(st.integers(1, 2))):
        x, y, v = data.draw(entry), data.draw(entry), data.draw(entry)
        rows[x][y] = v
        if data.draw(st.booleans()):
            rows[y][x] = v
    tables[which] = as_table(rows)
    perturbed = (*tables, a.bottom, a.top)
    assert find_axiom_violation(*perturbed) == first_violation(*perturbed)


def lattice_tables(leq):
    """Meet and join tables of a finite lattice given by its order."""
    n = len(leq)

    def best(common, le):
        return next(z for z in common if all(le(w, z) for w in common))

    def meet(x, y):
        return best([z for z in range(n) if leq[z][x] and leq[z][y]], lambda w, z: leq[w][z])

    def join(x, y):
        return best([z for z in range(n) if leq[x][z] and leq[y][z]], lambda w, z: leq[z][w])

    rng = range(n)
    return as_table([[meet(x, y) for y in rng] for x in rng]), as_table(
        [[join(x, y) for y in rng] for x in rng]
    )


def test_table_check_catches_a_law_that_fails_alone():
    # join associativity alone: one mirrored join entry of mv1 x g3
    a = direct_product(mv_chain(1), godel_chain(3))
    join = [list(r) for r in a.join]
    join[1][3] = join[3][1] = 5
    join_assoc = (a.meet, as_table(join), a.prod, a.impl, a.bottom, a.top)

    # prod associativity alone: a commutative, residuated, divisible but
    # not associative product on the chain 0 < 1 < 2 < 3
    chain = [[x <= y for y in range(4)] for x in range(4)]
    groupoid = as_table([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 2], [0, 1, 2, 3]])
    prod_assoc = (
        *lattice_tables(chain), groupoid, residuum_from_monoid(chain, groupoid), 0, 3
    )

    # adjointness alone: on the Boolean square, 0 -> (0,1) := (0,1) keeps
    # divisibility (0 * z = 0) and prelinearity ((0,1) v (1,0) = 1)
    b = mv_chain(1)
    sq = direct_product(b, b)
    impl = [list(r) for r in sq.impl]
    impl[sq.bottom][pair_index(b, b, 0, 1)] = pair_index(b, b, 0, 1)
    adjointness = (sq.meet, sq.join, sq.prod, as_table(impl), sq.bottom, sq.top)

    # divisibility alone: the nilpotent minimum on the chain
    neg = (3, 2, 1, 0)
    nm = as_table(
        [[0 if x <= neg[y] else min(x, y) for y in range(4)] for x in range(4)]
    )
    divisibility = (*lattice_tables(chain), nm, residuum_from_monoid(chain, nm), 0, 3)

    # prelinearity alone: the Heyting algebra 0 < a, b < c < 1, a and b
    # incomparable, where (a -> b) v (b -> a) = b v a = c
    up = ({0, 1, 2, 3, 4}, {1, 3, 4}, {2, 3, 4}, {3, 4}, {4})
    heyting = [[y in up[x] for y in range(5)] for x in range(5)]
    meet, join = lattice_tables(heyting)
    prelinearity = (meet, join, meet, residuum_from_monoid(heyting, meet), 0, 4)

    # the bottom bound alone: a sealed chain given a wrong bottom
    ex, _ = four_element_example()
    wrong_bottom = (ex.meet, ex.join, ex.prod, ex.impl, 1, ex.top)

    for axiom, detail, tables in (
        ("lattice", "join not associative", join_assoc),
        ("lattice", "bottom is not the least element", wrong_bottom),
        ("monoid", "prod not associative", prod_assoc),
        ("adjointness", "", adjointness),
        ("divisibility", "", divisibility),
        ("prelinearity", "", prelinearity),
    ):
        violation = find_axiom_violation(*tables)
        assert violation == first_violation(*tables)
        assert (violation.axiom, violation.detail) == (axiom, detail)
