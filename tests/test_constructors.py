"""Constructors: chains, products, ordinal sums, quotients, operator builders."""

import hashlib
import json
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blstate.algebra import (
    FiniteBLAlgebra,
    InternalCheckError,
    classify_variety,
    verify_bl_axioms,
)
from blstate.constructors import (
    NonLinearSummandError,
    NotAFilterError,
    NotAHomomorphismError,
    _preservation_scan,
    diagonal_operator_table,
    direct_product,
    four_element_example,
    godel_chain,
    homomorphism,
    mv_chain,
    ordinal_sum,
    pair_index,
    quotient_by_filter,
    sigma_h_table,
    swap_table,
)
from blstate.document import parse_algebra, realize_algebra
from blstate.filters import all_filters, classify_algebra, maximal_filters, radical
from blstate.operators import (
    EnumerationStats,
    chain_product_sum,
    enumerate_operator_tables,
    verify_operator,
)
from blstate.states import extremal_states

from .oracles import brute_force_operator_tables
from .strategies import _small_chain

OPERATOR_CLASSES = ("state", "strong", "morphism", "endomorphism")


def test_mv_chain_formulas():
    a = mv_chain(4)
    assert a.prod[2][3] == 1  # (2+3-4) v 0
    assert a.impl[3][1] == 2  # (4-3+1) ^ 4
    assert classify_variety(a).is_mv
    assert mv_chain(1).size == 2


def test_godel_chain_basics():
    g = godel_chain(3)
    assert g.prod[1][1] == 1
    assert g.impl[1][0] == 0
    assert godel_chain(2).same_tables(mv_chain(1))
    with pytest.raises(ValueError):
        godel_chain(1)


def test_direct_product_componentwise():
    a = direct_product(mv_chain(1), mv_chain(1))
    assert a.size == 4
    # (0,1) ^ (1,0) = (0,0)
    assert a.meet[1][2] == 0
    s4 = mv_chain(4)
    p = direct_product(s4, s4)
    x = pair_index(s4, s4, 3, 1)
    assert p.prod[x][x] == pair_index(s4, s4, 2, 0)
    # a product of nontrivial algebras is never linear
    assert not p.is_linear and not a.is_linear


def test_ordinal_sum_case_table():
    s = ordinal_sum([mv_chain(1), mv_chain(1)])
    # 3-element chain 0 < c < 1 where c is the bottom of the top summand
    assert s.size == 3
    assert s.prod[1][1] == 1
    assert s.impl[0][1] == 2  # low -> high = top
    assert s.impl[1][0] == 0  # high -> low = low
    a, _ = four_element_example()
    assert ordinal_sum([mv_chain(2), mv_chain(1)]).same_tables(a)


def test_ordinal_sum_rejects_nonlinear_prefix():
    square = direct_product(mv_chain(1), mv_chain(1))
    with pytest.raises(NonLinearSummandError):
        ordinal_sum([square, mv_chain(1)])
    # non-linear final summand is allowed
    s = ordinal_sum([godel_chain(2), square])
    assert s.size == 2 + 4 - 1


def test_ordinal_sum_associative_up_to_relabeling():
    parts = [mv_chain(1), mv_chain(2), godel_chain(3)]
    left = ordinal_sum([ordinal_sum(parts[:2]), parts[2]])
    right = ordinal_sum([parts[0], ordinal_sum(parts[1:])])
    flat = ordinal_sum(parts)
    assert left.same_tables(right) and left.same_tables(flat)


@settings(max_examples=25, deadline=None)
@given(st.lists(_small_chain, min_size=3, max_size=3))
def test_ordinal_sum_associativity_property(chains):
    left = ordinal_sum([ordinal_sum(chains[:2]), chains[2]])
    right = ordinal_sum([chains[0], ordinal_sum(chains[1:])])
    assert left.same_tables(right)


def _one_element() -> FiniteBLAlgebra:
    return realize_algebra(
        parse_algebra('{"format": "blstate/1", "labels": ["e"], "tables": {"prod": [[0]]}}')
    )


def _summand_lists() -> dict[str, list[FiniteBLAlgebra]]:
    one = _one_element()
    return {
        "mv2 + g3": [mv_chain(2), godel_chain(3)],
        "g3 + mv1 + mv3": [godel_chain(3), mv_chain(1), mv_chain(3)],
        "mv1 + example + g2 + mv2": [
            mv_chain(1), four_element_example()[0], godel_chain(2), mv_chain(2),
        ],
        "mv2 + one + mv1": [mv_chain(2), one, mv_chain(1)],
        "one + g3": [one, godel_chain(3)],
        "mv1 + g3 + (mv1 x g3)": [
            mv_chain(1), godel_chain(3), direct_product(mv_chain(1), godel_chain(3)),
        ],
        # summands whose top is element 0
        "mv1 + rev mv2 + rev g3": [
            mv_chain(1), relabel(mv_chain(2), [2, 1, 0]), relabel(godel_chain(3), [2, 1, 0]),
        ],
    }


# sha256 of the JSON of labels, the four tables, bottom and top, pinned
# from the earlier left fold of a binary ordinal sum
ORDINAL_SUM_SHA256 = {
    "mv2 + g3":
        "1cad0c039725179b9d915e79143ba9beebd4e5fe47b5e93b3fdd1bfb3e41bdb6",
    "g3 + mv1 + mv3":
        "3c08367009ca5e9d00491632952027beb053b4a96c0a475c595f6f0e4031bc20",
    "mv1 + example + g2 + mv2":
        "66350da504d196b6f67eb8d13ee74345883f0f700a14dd678e5a584351ede282",
    "mv2 + one + mv1":
        "27cebfce52c393ab6fafc5d993c04eb435775cf2652412e684680046e7ef6e34",
    "one + g3":
        "fb56e735a6ac7c5050c477b9e5703af5674da8a3f8026f73a7befb53eae3bdc8",
    "mv1 + g3 + (mv1 x g3)":
        "86fb7dd7d3838f26a61d45dabebd0b4a749543448c734cff895fa974889445db",
    "mv1 + rev mv2 + rev g3":
        "0d2b68469acd183170fe7b48cedc16ad5d4221c621b5e5f99d9cee6156cc898d",
}


def _digest(a: FiniteBLAlgebra) -> str:
    blob = json.dumps([a.labels, a.meet, a.join, a.prod, a.impl, a.bottom, a.top])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", ORDINAL_SUM_SHA256)
def test_ordinal_sum_tables_and_labels_are_pinned(name):
    assert _digest(ordinal_sum(_summand_lists()[name])) == ORDINAL_SUM_SHA256[name]


def _factor_lists() -> dict[str, list[FiniteBLAlgebra]]:
    one = _one_element()
    return {
        "mv2 x g3": [mv_chain(2), godel_chain(3)],
        "g3 x mv1 x mv2": [godel_chain(3), mv_chain(1), mv_chain(2)],
        "mv1 x g2 x example x mv1": [
            mv_chain(1), godel_chain(2), four_element_example()[0], mv_chain(1),
        ],
        "one x mv2 x g3": [one, mv_chain(2), godel_chain(3)],
        "mv1 x one x g3": [mv_chain(1), one, godel_chain(3)],
        # factors whose top is element 0
        "rev mv2 x g3 x rev g3": [
            relabel(mv_chain(2), [2, 1, 0]), godel_chain(3), relabel(godel_chain(3), [2, 1, 0]),
        ],
        "g3 x g3 x g3 x g3": [godel_chain(3)] * 4,
    }


# sha256 of the JSON of labels, the four tables, bottom and top, pinned
# from the earlier left fold of a binary direct product
PRODUCT_SHA256 = {
    "mv2 x g3":
        "a9cf680c5f3e68a4aa131352eff689d9bb1b3109cf9ae40f455121c59fb5e184",
    "g3 x mv1 x mv2":
        "6f25078495e5229b77cc434289b936e9838a95e66b4d37ba2e97fb7210cccdac",
    "mv1 x g2 x example x mv1":
        "83da697c5f203391436d8529aa8c69934e3242a84a2b1488d5dfb826ed6a5b3a",
    "one x mv2 x g3":
        "51de67d265d1b4bd752d313be3c8b997f220f6a8a0e0bb851888a443413e5b19",
    "mv1 x one x g3":
        "67f124467d0428965440db6a87bdaa5b69b433f461b6d33b7b82b6339bea5cca",
    "rev mv2 x g3 x rev g3":
        "68c28914daecba781d15386ca01d2c2461bbbb2d713ae2b05357c332b6fa3641",
    "g3 x g3 x g3 x g3":
        "c4c0431adda15c694bf8a26339feac7198eb7444cd6823dcdb7a6ca9c8e668fd",
}


@pytest.mark.parametrize("name", PRODUCT_SHA256)
def test_direct_product_tables_and_labels_are_pinned(name):
    assert _digest(direct_product(*_factor_lists()[name])) == PRODUCT_SHA256[name]


def test_a_direct_product_of_one_factor_is_that_factor():
    a = godel_chain(3)
    assert direct_product(a) is a
    with pytest.raises(ValueError, match="at least one factor"):
        direct_product()


def test_an_ordinal_sum_takes_its_bottom_from_the_first_nontrivial_summand():
    # the reversed chain lists its top first and its bottom last
    rev = relabel(mv_chain(2), [2, 1, 0])
    s = ordinal_sum([rev, mv_chain(1)])
    assert s.bottom == 1
    assert s.same_tables(relabel(ordinal_sum([mv_chain(2), mv_chain(1)]), [1, 0, 2, 3]))
    one, _ = quotient_by_filter(mv_chain(1), frozenset({0, 1}))
    assert ordinal_sum([one, rev]).bottom == 1


def test_an_ordinal_sum_of_one_summand_is_that_summand():
    a = direct_product(mv_chain(1), mv_chain(1))
    assert ordinal_sum([a]) is a


def _count_seals(monkeypatch) -> list:
    import blstate.constructors as constructors

    seals = []

    def counting(*args):
        seals.append(args[0])
        return verify_bl_axioms(*args)

    monkeypatch.setattr(constructors, "verify_bl_axioms", counting)
    return seals


@pytest.mark.parametrize("k", [2, 3, 4])
def test_an_ordinal_sum_is_sealed_once(monkeypatch, k):
    summands = [mv_chain(1), godel_chain(3), mv_chain(2), mv_chain(1)][:k]
    seals = _count_seals(monkeypatch)
    s = ordinal_sum(summands)
    assert len(seals) == 1 and tuple(seals[0]) == s.labels


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_direct_product_is_sealed_once(monkeypatch, k):
    factors = [mv_chain(1), godel_chain(3), mv_chain(2), mv_chain(1)][:k]
    seals = _count_seals(monkeypatch)
    p = direct_product(*factors)
    assert len(seals) == 1 and tuple(seals[0]) == p.labels


def test_a_chain_product_sum_seals_each_chain_its_product_and_its_sum(monkeypatch):
    seals = _count_seals(monkeypatch)
    chain_product_sum(2, [1, 2, 1])
    # mv_chain(2), mv_chain(1), mv_chain(2), mv_chain(1), the product, the sum
    assert len(seals) == 6


def test_a_nonlinear_prefix_is_rejected_before_any_seal(monkeypatch):
    square = direct_product(mv_chain(1), mv_chain(1))
    summands = [mv_chain(1), square, mv_chain(1)]
    seals = _count_seals(monkeypatch)
    with pytest.raises(NonLinearSummandError, match="must be linearly ordered"):
        ordinal_sum(summands)
    assert seals == []


@pytest.mark.parametrize("size", [2.0, "3", None])
def test_mv_chain_rejects_a_non_integral_size(size):
    with pytest.raises(ValueError, match=f"chain size {size!r} is not an integer"):
        mv_chain(size)


@pytest.mark.parametrize("size", [3.0, "3"])
def test_godel_chain_rejects_a_non_integral_size(size):
    with pytest.raises(ValueError, match=f"chain size {size!r} is not an integer"):
        godel_chain(size)


def test_four_element_example_tables():
    a, sigma = four_element_example()
    assert a.prod[2][1] == 1  # b * a = a
    assert sigma == (0, 1, 3, 3)
    op = verify_operator(a, sigma)
    assert op.verified_class == "morphism" and op.preserves_impl
    assert set(op.table) == {0, 1, 3}


def test_quotient_by_filter():
    a, _ = four_element_example()
    q, proj = quotient_by_filter(a, frozenset({2, 3}))
    assert q.size == 3
    assert proj == (0, 1, 2, 2)
    assert q.same_tables(mv_chain(2))
    # A / {top} is A itself; A / A is the one-element algebra
    q_id, proj_id = quotient_by_filter(a, frozenset({3}))
    assert q_id.size == 4 and proj_id == (0, 1, 2, 3)
    q_triv, _ = quotient_by_filter(a, frozenset(range(4)))
    assert q_triv.size == 1
    # one filter, no proper one, no element besides the top
    cls = classify_algebra(q_triv)
    flags = (cls.simple, cls.semisimple, cls.local, cls.perfect, cls.locally_finite)
    assert flags == (False, True, False, True, True)
    with pytest.raises(NotAFilterError):
        quotient_by_filter(a, frozenset({1, 3}))  # not prod-closed (a*a=0)


def test_quotient_classes_by_direct_computation():
    # oracle: explicit classes of d(x,y) in F for F={b,1}
    a, _ = four_element_example()
    f = frozenset({2, 3})
    classes = []
    for x in range(4):
        placed = False
        for cls in classes:
            if a.dist(x, cls[0]) in f:
                cls.append(x)
                placed = True
                break
        if not placed:
            classes.append([x])
    assert classes == [[0], [1], [2, 3]]


def test_diagonal_operators():
    b = mv_chain(2)
    a = direct_product(b, b)
    t1 = diagonal_operator_table(b, 1)
    t2 = diagonal_operator_table(b, 2)
    op1, op2 = verify_operator(a, t1), verify_operator(a, t2)
    assert op1.is_morphism and op1.preserves_impl
    assert op2.is_morphism and op2.preserves_impl
    for i, j in iproduct(range(3), repeat=2):
        assert t1[pair_index(b, b, i, j)] == pair_index(b, b, i, i)
        assert t2[pair_index(b, b, i, j)] == pair_index(b, b, j, j)
    # restricted to the diagonal both are the identity
    for i in range(3):
        d = pair_index(b, b, i, i)
        assert t1[d] == d and t2[d] == d
    # kernels: sigma_1 pins the first coordinate to top
    assert op1.kernel == frozenset(pair_index(b, b, b.top, j) for j in range(3))
    assert op2.kernel == frozenset(pair_index(b, b, i, b.top) for i in range(3))
    # the swap map interchanges the two operators
    swap = swap_table(b)
    assert tuple(swap[t1[swap[x]]] for x in range(a.size)) == t2


def test_homomorphism_verification():
    g3 = godel_chain(3)
    h = homomorphism(g3, g3, (0, 2, 2))
    assert h.table == (0, 2, 2)
    with pytest.raises(NotAHomomorphismError):
        homomorphism(g3, g3, (0, 0, 2))  # impl not preserved
    with pytest.raises(NotAHomomorphismError):
        homomorphism(g3, g3, (0, 2, 1))


def test_homomorphism_rejects_a_non_integral_entry():
    g3 = godel_chain(3)
    for table in ([0.4, 2.7, "2"], [0, 2.0, 2], [0, "2", 2]):
        with pytest.raises(NotAHomomorphismError, match="non-integral entry"):
            homomorphism(g3, g3, table)
    numpy = pytest.importorskip("numpy")
    assert homomorphism(g3, g3, numpy.array([0, 2, 2])).table == (0, 2, 2)


def test_sigma_h():
    g3, g4 = godel_chain(3), godel_chain(4)
    h = homomorphism(g3, g4, (0, 1, 3))
    a = direct_product(g3, g4)
    t = sigma_h_table(g3, g4, h)
    for i, j in iproduct(range(3), range(4)):
        assert t[pair_index(g3, g4, i, j)] == pair_index(g3, g4, i, h.table[i])
    op = verify_operator(a, t)
    assert op.is_morphism
    assert op.kernel == frozenset(pair_index(g3, g4, 2, j) for j in range(4))
    # identity hom degenerates to the left diagonal operator
    hid = homomorphism(g3, g3, (0, 1, 2))
    assert sigma_h_table(g3, g3, hid) == diagonal_operator_table(g3, 1)


def test_mv_chain_filters_are_trivial(corpus_by_name):
    for n in range(1, 6):
        a = mv_chain(n)
        assert len(all_filters(a)) == 2


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_quotients_are_algebras(data):
    from .strategies import algebras

    a = data.draw(algebras)
    if a.size > 9:
        return
    for f in all_filters(a):
        quotient, proj = quotient_by_filter(a, f)  # sealed by its certificate or raises
        # the certificate agrees with the full seal of the BL laws
        tables = (quotient.meet, quotient.join, quotient.prod, quotient.impl)
        resealed = verify_bl_axioms(quotient.labels, *tables, quotient.bottom, quotient.top)
        assert resealed.same_tables(quotient)
        # and the element scan: proj carries each operation onto the quotient's
        for op, table in zip((a.meet, a.join, a.prod, a.impl), tables):
            assert _preservation_scan(proj, op, table) is None
        assert set(proj) == set(range(quotient.size))
        classes = {c: [x for x in range(a.size) if proj[x] == c] for c in set(proj)}
        assert sum(len(v) for v in classes.values()) == a.size


def relabel(a: FiniteBLAlgebra, perm: list[int]) -> FiniteBLAlgebra:
    """``a`` with element x renumbered ``perm[x]``, sealed anew."""
    back = sorted(range(a.size), key=perm.__getitem__)  # back[perm[x]] == x

    def table(t):
        return [[perm[t[back[i]][back[j]]] for j in range(a.size)] for i in range(a.size)]

    tables = (table(a.meet), table(a.join), table(a.prod), table(a.impl))
    labels = [a.labels[x] for x in back]
    return verify_bl_axioms(labels, *tables, perm[a.bottom], perm[a.top])


def shuffled_order(a: FiniteBLAlgebra, rng: random.Random) -> list[int]:
    """A random renumbering that is no linear extension of the order:
    some x < y gets the larger number."""
    while True:
        perm = rng.sample(range(a.size), a.size)
        if any(perm[x] > perm[y] for x in range(a.size) for y in a.upset(x)):
            return perm


RELABELED_CARRIERS = {
    "example-3-4": four_element_example()[0],
    "mv2 x g3": direct_product(mv_chain(2), godel_chain(3)),
    "g3 x g3": direct_product(godel_chain(3), godel_chain(3)),
    "mv2 + (mv1 x mv1)": ordinal_sum([mv_chain(2), direct_product(mv_chain(1), mv_chain(1))]),
}


@pytest.mark.parametrize("name", RELABELED_CARRIERS)
def test_quotients_of_a_relabeled_carrier_match_up_to_the_relabeling(name):
    """Every carrier the constructors build is numbered along a linear
    extension of its order; a renumbering that is not one must change
    each quotient only by the renumbering."""
    a = RELABELED_CARRIERS[name]
    rng = random.Random(name)
    for _ in range(10):
        perm = shuffled_order(a, rng)
        b = relabel(a, perm)
        assert set(all_filters(b)) == {frozenset(perm[x] for x in f) for f in all_filters(a)}
        for f in all_filters(a):
            q, proj = quotient_by_filter(a, f)
            qb, proj_b = quotient_by_filter(b, frozenset(perm[x] for x in f))
            # the class of x in A/F is the class of perm[x] in B/perm(F)
            match: dict[int, int] = {}
            for x in range(a.size):
                assert match.setdefault(proj[x], proj_b[perm[x]]) == proj_b[perm[x]], (f, perm)
            assert len(set(match.values())) == q.size == qb.size
            for op in ("meet", "join", "prod", "impl"):
                t, tb = getattr(q, op), getattr(qb, op)
                assert all(tb[match[i]][match[j]] == match[t[i][j]] for i in match for j in match)
            assert (match[q.bottom], match[q.top]) == (qb.bottom, qb.top)


@pytest.mark.parametrize("name", RELABELED_CARRIERS)
def test_filters_operators_and_states_of_a_relabeled_carrier_match_up_to_the_relabeling(name):
    """The radical, the maximal filters, the operators of each class and
    the extremal states of a renumbered carrier are those of the carrier,
    renumbered; on at most 6 elements the enumerated operators are also
    those of the unpruned oracle."""
    a = RELABELED_CARRIERS[name]
    operators = {cls: enumerate_operator_tables(a, cls) for cls in OPERATOR_CLASSES}
    extremal = [s.values for s in extremal_states(a)]
    rng = random.Random(f"verdicts {name}")
    for _ in range(10):
        perm = shuffled_order(a, rng)
        back = sorted(range(a.size), key=perm.__getitem__)  # back[perm[x]] == x
        b = relabel(a, perm)

        def renumbered(xs):
            return frozenset(perm[x] for x in xs)

        assert radical(b) == renumbered(radical(a))
        assert set(maximal_filters(b)) == set(map(renumbered, maximal_filters(a)))
        # sigma on A is perm . sigma . back on B, and a state s is s . back
        for cls, tables in operators.items():
            found = enumerate_operator_tables(b, cls)
            assert set(found) == {tuple(perm[t[x]] for x in back) for t in tables}, cls
            if b.size <= 6:
                assert found == brute_force_operator_tables(b, cls), cls
        moved = {tuple(v[x] for x in back) for v in extremal}
        assert {s.values for s in extremal_states(b)} == moved


def test_operators_of_a_relabeled_ladder_rung_match_up_to_the_relabeling():
    """The g3xg4 and g3xg3xg3 rungs of the enumeration ladder are
    numbered along their order; renumbered, their state and endomorphism
    tables are the conjugated tables, listed in lexicographic order.  The
    search keeps the least table of each automorphism orbit of g3xg3xg3
    (the factor swaps), and a renumbering changes which table that is."""
    rungs = {
        "g3xg4": direct_product(godel_chain(3), godel_chain(4)),
        "g3xg3xg3": direct_product(godel_chain(3), godel_chain(3), godel_chain(3)),
    }
    for rung, a in rungs.items():
        operators = {cls: enumerate_operator_tables(a, cls) for cls in ("state", "endomorphism")}
        rng = random.Random(f"ladder {rung}")
        for _ in range(3):
            perm = shuffled_order(a, rng)
            back = sorted(range(a.size), key=perm.__getitem__)
            b = relabel(a, perm)
            for cls, tables in operators.items():
                found = enumerate_operator_tables(b, cls)
                assert found == sorted(tuple(perm[t[x]] for x in back) for t in tables), (rung, cls)


# (nodes, leaves, rejected, tried, orbits) of the state and endomorphism
# search on two ladder rungs numbered top-down: every earlier element
# comparable with a node's element lies above it, so only the upper
# monotone bound, the meet over the minimal ones, prunes
REVERSED_SEARCH = {
    "g3xg4": ((191, 15, 0, 321, 15), (276, 28, 0, 472, 28)),
    "mv2xmv2xmv1": ((112, 4, 0, 397, 4), (120, 6, 0, 471, 6)),
}


@pytest.mark.parametrize("rung", REVERSED_SEARCH)
def test_the_search_on_a_top_down_numbering_does_the_pinned_work(rung):
    chains = {"g3xg4": (godel_chain(3), godel_chain(4)),
              "mv2xmv2xmv1": (mv_chain(2), mv_chain(2), mv_chain(1))}[rung]
    a = direct_product(*chains)
    b = relabel(a, [a.size - 1 - x for x in range(a.size)])
    searches = []
    for cls in ("state", "endomorphism"):
        stats = EnumerationStats()
        enumerate_operator_tables(b, cls, stats=stats)
        searches.append((stats.nodes, stats.leaves, stats.rejected, stats.tried, stats.orbits))
    assert tuple(searches) == REVERSED_SEARCH[rung]


def test_the_certificate_rejects_a_one_sided_congruence(monkeypatch):
    """Grouping x with r where x -> r lies in F (not dist(x, r)) is no
    congruence on a renumbered carrier; the projection check rejects it."""
    a = RELABELED_CARRIERS["example-3-4"]
    rng = random.Random("one-sided")
    carriers = [relabel(a, shuffled_order(a, rng)) for _ in range(10)]
    monkeypatch.setattr(FiniteBLAlgebra, "dist", lambda self, x, y: self.impl[x][y])
    rejected = []
    for b in carriers:
        for f in all_filters(b):
            try:
                quotient_by_filter(b, f)
            except InternalCheckError as exc:
                rejected.append(str(exc))
    assert any("not preserved at" in text for text in rejected)
