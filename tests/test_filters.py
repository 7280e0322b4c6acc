"""Filters, radical, classification predicates, subdirect irreducibility."""
import gc
import weakref

import pytest
from hypothesis import given, settings

from blstate.algebra import INFINITE_ORDER, classify_variety
from blstate.constructors import (
    NotAFilterError,
    direct_product,
    four_element_example,
    godel_chain,
    mv_chain,
    ordinal_sum,
    quotient_by_filter,
)
from blstate import filters
from blstate.filters import (
    all_filters,
    classify_algebra,
    filter_generated_masks,
    is_primary,
    mask_members,
    maximal_filters,
    radical,
    radical_by_formula,
    state_filters,
    subdirectly_irreducible,
    subset_mask,
)
from blstate import states
from blstate.corpus import default_corpus
from blstate.operators import enumerate_operator_tables, identity_table, verify_operator
from blstate.constructors import diagonal_operator_table
from blstate.states import (
    extremal_states,
    pulled_back_extremal_states,
    sigma_compatible_correspondence,
)
from blstate.suite import run_suite

from .oracles import all_pairs_is_primary, brute_force_filters
from .strategies import algebras
from .test_operators import constructor_carriers


def test_filters_of_example_3_4():
    a, _ = four_element_example()
    expected = brute_force_filters(a)
    assert list(all_filters(a)) == expected
    assert [sorted(f) for f in expected] == [[3], [2, 3], [0, 1, 2, 3]]


def test_filters_of_two_element_algebra():
    a = mv_chain(1)
    assert [sorted(f) for f in all_filters(a)] == [[1], [0, 1]]


@settings(max_examples=30, deadline=None)
@given(algebras)
def test_subset_scan_equals_idempotent_route(a):
    if a.size > 12:
        return
    assert list(all_filters(a)) == brute_force_filters(a)


@settings(max_examples=30, deadline=None)
@given(algebras)
def test_sigma_maximal_filters_and_radical_match_subset_scan(a):
    if a.size > 12:
        return
    everything = frozenset(range(a.size))
    filters = brute_force_filters(a)
    for t in enumerate_operator_tables(a, "state"):
        proper = [f for f in filters if f != everything and all(t[x] in f for x in f)]
        maxes = [f for f in proper if not any(f < g for g in proper)]
        assert list(maximal_filters(a, t)) == maxes
        assert radical(a, t) == everything.intersection(*maxes)
    assert maximal_filters(a, identity_table(a)) == maximal_filters(a)


def test_idempotent_route_on_corpus_carriers(corpus):
    small = [inst.algebra for inst in corpus if inst.algebra.size <= 16]
    assert small
    for a in small:
        assert list(all_filters(a)) == brute_force_filters(a)


def test_a_quotient_is_refused_exactly_for_the_sets_that_are_not_filters():
    """quotient_by_filter reads filter-ness off all_filters; the subset
    scan decides it on every subset, an out-of-range set and the empty
    set."""
    for a in constructor_carriers(6):
        n = a.size
        scanned = set(brute_force_filters(a))
        subsets = [frozenset(x for x in range(n) if mask >> x & 1) for mask in range(1 << n)]
        for s in [*subsets, frozenset({a.top, n})]:
            if s in scanned:
                quotient_by_filter(a, s)
            else:
                with pytest.raises(NotAFilterError):
                    quotient_by_filter(a, s)


def test_derived_structure_dies_with_its_algebra():
    a = direct_product(mv_chain(2), godel_chain(3))
    all_filters(a)
    radical(a)
    quotient_by_filter(a, maximal_filters(a)[0])
    extremal_states(a)
    op = verify_operator(a, enumerate_operator_tables(a, "state")[0])
    sigma_compatible_correspondence(op)
    pulled_back_extremal_states(op)
    refs = (weakref.ref(a), weakref.ref(op))
    del a, op
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_quotients_and_extremal_states_are_built_once():
    a = direct_product(mv_chain(2), godel_chain(3))
    for f in all_filters(a):
        assert quotient_by_filter(a, f) is quotient_by_filter(a, set(f))
    assert extremal_states(a) is extremal_states(a)
    assert isinstance(extremal_states(a), tuple)
    assert classify_variety(a) is classify_variety(a)
    assert classify_algebra(a) is classify_algebra(a)
    assert all(a.upsets[x] is a.upset(x) for x in range(a.size))
    for t in enumerate_operator_tables(a, "state"):
        op = verify_operator(a, t)
        report = sigma_compatible_correspondence(op)
        assert sigma_compatible_correspondence(op) is report
        assert pulled_back_extremal_states(op) is pulled_back_extremal_states(op)
        assert report.compatible_extremal is pulled_back_extremal_states(op)
    one, _ = quotient_by_filter(a, frozenset(range(a.size)))
    for _ in range(2):  # the error is raised again, not remembered
        with pytest.raises(ValueError):
            extremal_states(one)


def test_correspondence_is_built_once_per_operator_in_a_suite_run(monkeypatch):
    corpus = default_corpus()  # fresh operators, so no memo is filled yet
    built = []
    real = states.CorrespondenceReport

    def counting(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(states, "CorrespondenceReport", counting)
    report = run_suite(corpus, ["Thm-6.4", "Cor-6.5"])
    assert {r.verdict for r in report.records} == {"pass"}
    ran = {r.instance for r in report.records}
    ops = {id(op) for inst in corpus if inst.name in ran for _, op in inst.pool()}
    assert len(built) == len(ops) > 0


def generated(a, seed, sigma=None):
    """The least (state-)filter containing ``seed``, as an element set."""
    [mask] = filter_generated_masks(a, [subset_mask(seed)], sigma)
    return mask_members(mask)


def test_filter_generated():
    a, _ = four_element_example()
    assert generated(a, {a.top}) == frozenset({3})
    assert generated(a, {2}) == frozenset({2, 3})
    assert generated(a, {1}) == frozenset({0, 1, 2, 3})  # a*a = 0


def filter_by_definition(a, seed, sigma=None):
    """Add every pairwise product and every upper bound until nothing
    changes; with an operator table ``sigma`` also every sigma-image."""
    members = set(seed)
    while True:
        grown = members | {a.prod[x][y] for x in members for y in members}
        grown |= {y for x in members for y in range(a.size) if a.le(x, y)}
        if sigma is not None:
            grown |= {sigma[x] for x in members}
        if grown == members:
            return frozenset(members)
        members = grown


def small_seeds(a):
    rng = range(a.size)
    return [{x} for x in rng] + [{x, y} for x in rng for y in rng if x < y]


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_filter_generated_matches_the_definition(a):
    tables = enumerate_operator_tables(a, "state")
    for seed in small_seeds(a):
        assert generated(a, seed) == filter_by_definition(a, seed)
        for t in tables:
            assert generated(a, seed, t) == filter_by_definition(a, seed, t)


def test_filter_generated_matches_the_definition_on_mv7xg4():
    a = direct_product(mv_chain(7), godel_chain(4))
    for seed in small_seeds(a):
        assert generated(a, seed) == filter_by_definition(a, seed)


def test_maximal_filters_and_radical():
    a, _ = four_element_example()
    assert [sorted(f) for f in maximal_filters(a)] == [[2, 3]]
    assert sorted(radical(a)) == [2, 3]
    # b is co-infinitesimal: (b^n)- = 0 <= b
    assert radical_by_formula(a) == frozenset({2, 3})
    for n in range(1, 5):
        assert radical(mv_chain(n)) == frozenset({mv_chain(n).top})
    square = direct_product(mv_chain(1), mv_chain(1))
    assert len(maximal_filters(square)) == 2
    assert radical(square) == frozenset({square.top})


def test_classification_flags():
    a, _ = four_element_example()
    cls = classify_algebra(a)
    assert cls.local and not cls.perfect and not cls.simple
    # a is in neither Rad nor Rad-
    assert 1 not in cls.radical and 1 not in {a.neg(x) for x in cls.radical}

    for n in range(1, 5):
        c = classify_algebra(mv_chain(n))
        assert c.simple and c.semisimple and c.locally_finite and c.local

    three = ordinal_sum([mv_chain(1), mv_chain(1)])
    c3 = classify_algebra(three)
    assert c3.perfect and c3.local and not c3.simple
    assert sorted(c3.radical) == [1, 2]


def test_primary_and_quotient_local():
    a, _ = four_element_example()
    everything = frozenset(range(a.size))
    for f in all_filters(a):
        if f == everything:
            continue
        quotient, _ = quotient_by_filter(a, f)
        assert is_primary(a, f) == (len(maximal_filters(quotient)) == 1)


@settings(max_examples=60, deadline=None)
@given(algebras)
def test_is_primary_matches_the_all_pairs_oracle(a):
    for f in all_filters(a):
        assert is_primary(a, f) == all_pairs_is_primary(a, f), sorted(f)


def test_is_primary_matches_the_all_pairs_oracle_on_the_corpus(corpus):
    verdicts = set()
    for inst in corpus:
        a = inst.algebra
        for f in all_filters(a):
            verdict = is_primary(a, f)
            assert verdict == all_pairs_is_primary(a, f), (inst.name, sorted(f))
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_primary_walks_powers_once_per_element(monkeypatch):
    a = direct_product(mv_chain(2), godel_chain(3))
    walks = []
    real = filters.has_power_negation_in

    def counting(algebra, members, y):
        walks.append(y)
        return real(algebra, members, y)

    monkeypatch.setattr(filters, "has_power_negation_in", counting)
    for f in all_filters(a):
        walks.clear()
        is_primary(a, f)
        assert sorted(walks) == list(range(a.size))


def test_ord_criterion_matches_local():
    for a in (four_element_example()[0], mv_chain(3), godel_chain(4)):
        local = len(maximal_filters(a)) == 1
        crit = all(
            a.ord_of(x) != INFINITE_ORDER or a.ord_of(a.neg(x)) != INFINITE_ORDER
            for x in range(a.size)
        )
        assert local == crit


def test_subdirectly_irreducible_plain():
    b = mv_chain(2)
    a = direct_product(b, b)
    irr, least = subdirectly_irreducible(a)
    assert not irr and least is None  # two incomparable minimal filters
    irr, least = subdirectly_irreducible(b)
    assert irr and least == frozenset(range(3))  # simple: the whole algebra
    g = godel_chain(4)
    irr, least = subdirectly_irreducible(g)
    assert irr and least == frozenset({2, 3})


def test_subdirectly_irreducible_with_operator():
    b = mv_chain(2)
    a = direct_product(b, b)
    sigma = diagonal_operator_table(b, 1)
    irr, least = subdirectly_irreducible(a, sigma)
    op = verify_operator(a, sigma)
    assert irr and least == op.kernel
    # with the identity operator the plain verdict is recovered
    irr_id, _ = subdirectly_irreducible(a, identity_table(a))
    assert not irr_id


def test_state_filters():
    a, sigma = four_element_example()
    fams = state_filters(a, sigma)
    assert [sorted(f) for f in fams] == [[3], [2, 3], [0, 1, 2, 3]]


def test_plain_irreducible_corpus_algebras_are_linear(corpus):
    """Subdirectly irreducible plain algebras in the corpus are chains;
    state algebras need not be (the diagonal instances)."""
    for inst in corpus:
        irr, _ = subdirectly_irreducible(inst.algebra)
        if irr:
            assert inst.algebra.is_linear
    # contrast: a non-linear state algebra that is irreducible
    b = mv_chain(2)
    square = direct_product(b, b)
    assert not subdirectly_irreducible(square)[0]
    assert subdirectly_irreducible(square, diagonal_operator_table(b, 1))[0]
