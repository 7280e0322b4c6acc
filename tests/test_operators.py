"""Operators: grading, enumeration vs brute force, families, theorems."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings

from blstate.algebra import verify_bl_axioms
from blstate.constructors import (
    diagonal_operator_table,
    direct_product,
    four_element_example,
    godel_chain,
    mv_chain,
    pair_index,
)
from blstate.filters import maximal_filters, radical, state_filters
from blstate.operators import (
    chain_product_sum,
    classify_state_algebra,
    enumerate_operator_tables,
    godel_floor_table,
    godel_strict_floor_table,
    identity_table,
    interval_collapse_table,
    kernel_and_faithfulness,
    mv_equivalence_check,
    operator_image,
    sigma_j_table,
    state_filter_generated,
    state_filter_generated_ext,
    verify_operator,
    NotMVError,
    ShapeMismatchError,
)

from .oracles import brute_force_filters, brute_force_operator_tables
from .strategies import algebras, linear_algebras


def test_verify_example_sigma():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    assert op.verified_class == "morphism"
    assert op.preserves_impl
    assert op.is_strong and op.is_state
    assert op.kernel == frozenset({2, 3})
    assert not op.is_faithful


def test_identity_is_always_a_morphism_operator():
    for a in (mv_chain(3), godel_chain(4), four_element_example()[0]):
        op = verify_operator(a, identity_table(a))
        assert op.verified_class == "morphism" and op.preserves_impl
        assert op.is_faithful


def test_rejected_operator_carries_witnesses():
    a, _ = four_element_example()
    bad = verify_operator(a, (0, 3, 1, 3))  # not monotone, breaks axioms
    assert bad.verified_class == "none"
    assert bad.witnesses
    ax, w = bad.witnesses[0]
    assert ax in {"1", "2", "3", "3s", "4", "5", "6", "7"}


def test_remark_4_5_rejection():
    s4 = mv_chain(4)
    a = direct_product(s4, s4)
    cut = pair_index(s4, s4, 0, 4)
    table, covered = interval_collapse_table(a, cut, a.bottom)
    assert not covered
    op = verify_operator(a, table)
    assert op.verified_class == "none"
    x = pair_index(s4, s4, 3, 1)
    xx = a.prod[x][x]
    assert table[xx] == pair_index(s4, s4, 0, 0)
    assert a.prod[table[x]][table[x]] == pair_index(s4, s4, 2, 0)
    assert table[xx] != a.prod[table[x]][table[x]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_brute_force_on_mv_chains(n):
    a = mv_chain(n)
    for cls in ("state", "strong", "morphism"):
        assert enumerate_operator_tables(a, cls) == brute_force_operator_tables(a, cls)


def test_enumeration_matches_brute_force_on_godel_chains():
    for n in (3, 4):
        a = godel_chain(n)
        assert enumerate_operator_tables(a, "state") == brute_force_operator_tables(a, "state")
    g3 = godel_chain(3)
    assert enumerate_operator_tables(g3, "state") == [(0, 1, 2), (0, 2, 2)]


def test_enumeration_matches_brute_force_on_products_and_example():
    a, _ = four_element_example()
    assert enumerate_operator_tables(a, "state") == brute_force_operator_tables(a, "state")
    square = direct_product(mv_chain(1), mv_chain(1))
    for cls in ("state", "strong", "morphism", "endomorphism"):
        assert enumerate_operator_tables(square, cls) == brute_force_operator_tables(square, cls)


def test_state_operator_enumeration_is_lexicographic():
    g3 = godel_chain(3)
    tables = enumerate_operator_tables(g3, "state")
    assert tables == sorted(tables)


def test_endomorphism_enumeration():
    square = direct_product(mv_chain(1), mv_chain(1))
    endos = enumerate_operator_tables(square, "endomorphism")
    # 2^2 endomorphisms: identity, swap, and the two diagonal collapses
    assert len(endos) == 4
    swap_present = any(
        t[1] == 2 and t[2] == 1 for t in endos
    )
    assert swap_present
    # the swap is an endomorphism but not idempotent, hence not a state op
    states = enumerate_operator_tables(square, "state")
    assert len(states) == 3


def test_sigma_j_family_on_shaped_algebra():
    shape = chain_product_sum(1, (1, 1))
    a = shape.algebra
    tables = set()
    for js in (frozenset(), {0}, {1}, {0, 1}):
        t = sigma_j_table(shape, frozenset(js))
        op = verify_operator(a, t)
        assert op.is_morphism and op.preserves_impl
        tables.add(t)
        complement = frozenset(range(2)) - frozenset(js)
        assert op.kernel == a.upset(shape.idempotent_of_subset(complement))
    assert len(tables) == 4
    all_states = enumerate_operator_tables(a, "state")
    assert tables <= set(all_states)
    assert len(all_states) == 6  # four sigma_J plus the two covered collapses


def test_interval_collapse_coverage_cases():
    shape = chain_product_sum(1, (1, 1))
    a = shape.algebra
    full = sigma_j_table(shape, frozenset({0, 1}))
    low, covered = interval_collapse_table(a, shape.local_zero, shape.local_zero)
    assert covered and low == full
    # at the global top the collapse is the identity (coverage fails,
    # but the operator is still valid: it equals sigma_J over nothing)
    ident, covered_top = interval_collapse_table(a, a.top, shape.local_zero)
    assert not covered_top and ident == identity_table(a)
    with pytest.raises(ShapeMismatchError):
        interval_collapse_table(a, shape.upper_ids[0], a.top)


def test_lemma_4_2_structure_on_shaped_instances():
    for args in ((1, (1, 1)), (1, (2, 1)), (2, (1, 1))):
        shape = chain_product_sum(*args)
        upper = set(shape.upper_ids)
        for t in enumerate_operator_tables(shape.algebra, "state"):
            for c in shape.chain_ids:
                assert t[c] == c
            for u in shape.upper_ids:
                assert t[u] in upper


def test_kernel_and_faithfulness():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    ker, faithful, rad_faithful = kernel_and_faithfulness(op)
    assert ker == frozenset({2, 3}) and not faithful and rad_faithful
    ident = verify_operator(a, identity_table(a))
    ker, faithful, rad_faithful = kernel_and_faithfulness(ident)
    assert ker == frozenset({3}) and faithful and rad_faithful


def test_state_filter_generation():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    assert state_filter_generated(a, op, {a.top}) == frozenset({3})
    assert state_filter_generated(a, op, {2}) == frozenset({2, 3})
    assert state_filter_generated(a, op, {1}) == frozenset(range(4))
    ext = state_filter_generated_ext(a, op, frozenset({3}), 2)
    assert ext == frozenset({2, 3})


@settings(max_examples=30, deadline=None)
@given(algebras)
def test_state_filter_closures_match_subset_scan(a):
    if a.size > 12:
        return
    everything = frozenset(range(a.size))
    filters = brute_force_filters(a)

    def least_closed(closed, seed):
        containing = [f for f in closed if seed <= f]
        assert all(containing[0] <= f for f in containing)
        return containing[0]

    for t in enumerate_operator_tables(a, "state"):
        op = verify_operator(a, t)
        closed = [f for f in filters if all(t[x] in f for x in f)]
        for x in range(a.size):
            seed = frozenset({x})
            assert state_filter_generated(a, op, seed) == least_closed(closed, seed)
            for y in range(x + 1, a.size):
                seed = frozenset({x, y})
                assert state_filter_generated(a, op, seed) == least_closed(closed, seed)
        for f in closed:
            if f == everything:
                continue
            for elem in everything - f:
                expected = least_closed(closed, f | {elem})
                assert state_filter_generated_ext(a, op, f, elem) == expected


def test_sigma_maximal_filters_and_radical():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    assert [sorted(f) for f in maximal_filters(a, op.table)] == [[2, 3]]
    assert radical(a, op.table) == frozenset({2, 3})
    # identity: state data equals plain data
    ident = verify_operator(a, identity_table(a))
    assert set(maximal_filters(a, ident.table)) == set(maximal_filters(a))
    assert radical(a, ident.table) == radical(a)


def test_operator_image_and_classification():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    image, pos, fixed = operator_image(op)
    assert fixed == (0, 1, 3)
    assert image.same_tables(mv_chain(2).relabeled(image.labels))
    report = classify_state_algebra(a, op)
    assert report.ssbl_simple and report.sssbl_semisimple and report.radical_faithful
    assert report.ker == frozenset({2, 3})
    assert not report.failed()
    # kernel is maximal: positive instance of the simple<->kernel-maximal law
    assert report.ker in maximal_filters(a)


def test_operator_image_is_sealed_once(monkeypatch):
    import blstate.operators as operators

    seals = []

    def counting_verify(*args, **kwargs):
        seals.append(args[0])
        return verify_bl_axioms(*args, **kwargs)

    monkeypatch.setattr(operators, "verify_bl_axioms", counting_verify)
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    first = operator_image(op)
    assert operator_image(op) is first and operator_image(op) is first
    assert len(seals) == 1
    image, pos, fixed = first
    assert dict(pos) == {0: 0, 1: 1, 3: 2}
    with pytest.raises(TypeError):
        pos[2] = 0
    not_state = verify_operator(a, [a.top] * a.size)
    assert not not_state.is_state
    for _ in range(2):
        with pytest.raises(ValueError):
            operator_image(not_state)


def test_identity_on_product_is_not_simple():
    square = direct_product(mv_chain(1), mv_chain(1))
    ident = verify_operator(square, identity_table(square))
    report = classify_state_algebra(square, ident)
    assert not report.ssbl_simple
    assert report.ker not in maximal_filters(square)
    assert not report.failed()


def test_prop_5_9_instance_on_diagonal():
    b = mv_chain(1)
    square = direct_product(b, b)
    op = verify_operator(square, diagonal_operator_table(b, 1))
    image, pos, fixed = operator_image(op)
    for i_filter in state_filters(square, op.table):
        sig = frozenset(op.table[x] for x in i_filter)
        assert sig == i_filter & frozenset(fixed)


def test_mv_equivalence_on_chains_and_products():
    a = mv_chain(4)
    report = mv_equivalence_check(a, identity_table(a))
    assert report.bl_state and report.mv_state and report.strong
    b = mv_chain(2)
    square = direct_product(b, b)
    rep = mv_equivalence_check(square, diagonal_operator_table(b, 1))
    assert rep.bl_state and rep.strong and rep.additive_on_orthogonal
    with pytest.raises(NotMVError):
        mv_equivalence_check(four_element_example()[0], (0, 1, 3, 3))


def test_mv_equivalence_exhaustive_small():
    """Verdict sets coincide map-for-map on a small MV carrier."""
    a = mv_chain(2)
    n = a.size
    for raw in iproduct(range(n), repeat=n):
        mv_equivalence_check(a, raw)  # raises InternalCheckError on mismatch


def test_mv_equivalence_exhaustive_product():
    """Map-for-map verdict agreement over ALL maps on an 8-element MV carrier.

    The 8^8 map space splits exactly:
      - sigma(top) != top: both verdicts are false (BL axiom 2 at
        (top, top) forces sigma(top)=top; MV axiom 1 is sigma(top)=top);
      - sigma(top) = top, sigma(bottom) != bottom: both false (BL axiom 1;
        MV axiom 2 at x=top);
      - the remaining 8^6 maps are compared by full vectorized evaluation
        of both axiom sets.
    The two case reductions are themselves verified below by direct
    evaluation over every possible image value.
    """
    import numpy as np

    a = direct_product(mv_chain(3), mv_chain(1))
    n = a.size
    top, bottom = a.top, a.bottom

    # case checks: the pinned axiom instances depend only on sigma(top)
    # resp. sigma(bottom)
    for v in range(n):
        # BL axiom 2 at (top, top): sigma(top) == impl(sigma(top), sigma(top))
        assert (v == a.impl[v][v]) == (v == top)
        # MV axiom 2 at x=top given sigma(top)=top: sigma(bottom) == neg(top)
        assert (v == a.neg(top)) == (v == bottom)

    meet = np.array(a.meet, dtype=np.int16)
    join = np.array(a.join, dtype=np.int16)
    prod = np.array(a.prod, dtype=np.int16)
    impl = np.array(a.impl, dtype=np.int16)
    neg = np.array(a.neg_table, dtype=np.int16)
    oplus = np.array(
        [[a.oplus(x, y) for y in range(n)] for x in range(n)], dtype=np.int16
    )
    ominus = np.array(
        [[a.ominus(x, y) for y in range(n)] for x in range(n)], dtype=np.int16
    )

    # all maps with sigma(bottom)=bottom and sigma(top)=top
    free = [i for i in range(n) if i not in (bottom, top)]
    total = n ** len(free)
    ks = np.arange(total, dtype=np.int64)
    maps = np.empty((total, n), dtype=np.int16)
    maps[:, bottom] = bottom
    maps[:, top] = top
    for pos, elem in enumerate(free):
        maps[:, elem] = (ks // (n ** (len(free) - 1 - pos))) % n

    def gather(idx):
        return np.take_along_axis(maps, idx[:, None].astype(np.int64), axis=1)[:, 0]

    bl_ok = np.ones(total, dtype=bool)
    mv_ok = np.ones(total, dtype=bool)
    for x in range(n):
        mv_ok &= maps[:, a.neg(x)] == neg[maps[:, x]]
    for x, y in iproduct(range(n), repeat=2):
        sx, sy = maps[:, x], maps[:, y]
        bl_ok &= maps[:, a.impl[x][y]] == impl[sx, maps[:, a.meet[x][y]]]
        bl_ok &= maps[:, a.prod[x][y]] == prod[sx, maps[:, a.impl[x][a.prod[x][y]]]]
        t4 = prod[sx, sy]
        bl_ok &= gather(t4) == t4
        t5 = impl[sx, sy]
        bl_ok &= gather(t5) == t5
        mv_ok &= maps[:, a.oplus(x, y)] == oplus[sx, maps[:, a.ominus(y, a.prod[x][y])]]
        t_mv4 = oplus[sx, sy]
        mv_ok &= gather(t_mv4) == t_mv4
    assert np.array_equal(bl_ok, mv_ok)
    assert int(bl_ok.sum()) >= 1  # the identity map is among them


@settings(max_examples=20, deadline=None)
@given(linear_algebras)
def test_linear_state_operators_are_idempotent_endomorphisms(a):
    if a.size > 7:
        return
    for t in enumerate_operator_tables(a, "state"):
        op = verify_operator(a, t)
        assert op.is_morphism and op.preserves_impl
        assert all(t[t[x]] == t[x] for x in range(a.size))


def test_operator_class_containments():
    """morphism tables <= strong tables <= state tables, as sets."""
    shaped = chain_product_sum(1, (1, 1)).algebra
    for a in (mv_chain(3), godel_chain(4), four_element_example()[0], shaped):
        state = set(enumerate_operator_tables(a, "state"))
        strong = set(enumerate_operator_tables(a, "strong"))
        morphism = set(enumerate_operator_tables(a, "morphism"))
        assert morphism <= strong <= state
        idem_endos = {
            t
            for t in enumerate_operator_tables(a, "endomorphism")
            if all(t[t[x]] == t[x] for x in range(a.size))
        }
        assert morphism <= set(enumerate_operator_tables(a, "endomorphism"))
        # impl-preserving state operators are exactly idempotent endomorphisms
        pres7 = {t for t in state if verify_operator(a, t).preserves_impl}
        assert pres7 == idem_endos & state


def test_pruned_matches_brute_for_all_classes_on_shaped():
    a = chain_product_sum(1, (1, 1)).algebra
    for cls in ("state", "strong", "morphism", "endomorphism"):
        assert enumerate_operator_tables(a, cls) == brute_force_operator_tables(a, cls)


@settings(max_examples=25, deadline=None)
@given(algebras.filter(lambda a: a.size <= 7))
def test_pruned_matches_brute_force_on_constructor_algebras(a):
    for cls in ("state", "strong", "morphism", "endomorphism"):
        assert enumerate_operator_tables(a, cls) == brute_force_operator_tables(a, cls)


LADDER = {
    "g3xg4": ((godel_chain, 3), (godel_chain, 4)),
    "mv2xmv2xmv1": ((mv_chain, 2), (mv_chain, 2), (mv_chain, 1)),
    "s4xs4": ((mv_chain, 4), (mv_chain, 4)),
    "g3xg3xg3": ((godel_chain, 3),) * 3,
}


def ladder_carrier(rung):
    factors = [build(n) for build, n in LADDER[rung]]
    a = factors[0]
    for b in factors[1:]:
        a = direct_product(a, b)
    return a


@pytest.mark.parametrize(
    "rung, states, endos",
    [("g3xg4", 15, 28), ("mv2xmv2xmv1", 6, 9), ("s4xs4", 3, 4), ("g3xg3xg3", 59, 216)],
)
def test_enumeration_ladder_counts(rung, states, endos):
    a = ladder_carrier(rung)
    state = enumerate_operator_tables(a, "state")
    assert len(state) == states
    assert len(enumerate_operator_tables(a, "endomorphism")) == endos
    assert state == sorted(state)
    if rung == "g3xg3xg3":
        strong = enumerate_operator_tables(a, "strong")
        morphism = enumerate_operator_tables(a, "morphism")
        assert set(morphism) <= set(strong) <= set(state)


def test_godel_floor_families():
    g4 = godel_chain(4)
    family = {godel_floor_table(g4, x) for x in range(4)}
    family |= {godel_strict_floor_table(g4, x) for x in range(1, 4)}
    assert family == set(enumerate_operator_tables(g4, "state"))
    with pytest.raises(ShapeMismatchError):
        godel_floor_table(mv_chain(2), 1)  # not idempotent product
