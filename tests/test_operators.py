"""Operators: grading, enumeration vs brute force, families, theorems."""

import re
from functools import lru_cache
from itertools import product as iproduct
from math import factorial
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from blstate.algebra import (
    FiniteBLAlgebra,
    InternalCheckError,
    classify_variety,
    holds,
    verify_bl_axioms,
    witness,
)
from blstate.constructors import (
    diagonal_operator_table,
    direct_product,
    four_element_example,
    godel_chain,
    mv_chain,
    ordinal_sum,
    pair_index,
    quotient_by_filter,
)
from blstate import operators
from blstate.filters import mask_members, maximal_filters, radical, state_filters, subset_mask
from blstate.operators import (
    ADDITIVITY,
    AXIOM_LAWS,
    EnumerationStats,
    MV_LAWS,
    OPERATOR_AXIOMS,
    PRESERVES,
    StateOperator,
    _leader_orbit,
    _watch_lists,
    automorphisms,
    chain_product_sum,
    classify_state_algebra,
    enumerate_operator_tables,
    godel_floor_table,
    identity_table,
    interval_collapse_table,
    is_endomorphism,
    operator_image,
    satisfies_class,
    sigma_j_table,
    state_filter_closures,
    state_filter_generated,
    verify_operator,
    NotMVError,
    ShapeMismatchError,
)

from .oracles import (
    all_automorphisms,
    brute_force_filters,
    brute_force_operator_tables,
    first_unpreserved_pair,
    state_filter_by_monoid_closure,
    state_filter_extension_by_powers,
    watch_lists_by_pairs,
)
from .strategies import algebras, linear_algebras


def test_verify_example_sigma():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    assert op.verified_class == "morphism"
    assert op.preserves_impl
    assert op.is_strong and op.is_state
    assert op.kernel == frozenset({2, 3})
    assert not op.is_faithful


def test_verify_operator_rejects_a_non_integral_entry():
    a, sigma = four_element_example()
    for table in ([0, 1.9, 3.2, "3"], [0, 1, 3.0, 3], [0, 1, "3", 3]):
        with pytest.raises(ValueError, match="non-integral entry"):
            verify_operator(a, table)
    numpy = pytest.importorskip("numpy")
    assert verify_operator(a, numpy.array(sigma)).table == sigma


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


def test_chain_product_sum_rejects_a_non_integral_factor_size():
    for dims in ([1.9, "2"], [1, 2.0], [1, "2"]):
        with pytest.raises(ShapeMismatchError, match="is not an integer"):
            chain_product_sum(2, dims)
    numpy = pytest.importorskip("numpy")
    assert chain_product_sum(1, numpy.array([1, 1])).dims == (1, 1)


def test_chain_product_sum_rejects_a_non_integral_chain_length():
    with pytest.raises(ShapeMismatchError, match="chain size 2.0 is not an integer"):
        chain_product_sum(2.0, [1, 1])


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
    for table, ker, faithful in ((sigma, {2, 3}, False), (identity_table(a), {3}, True)):
        op = verify_operator(a, table)
        report = classify_state_algebra(op)
        assert report.ker == frozenset(ker) and op.is_faithful == faithful
        assert report.radical_faithful


def test_state_filter_generation():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    assert state_filter_generated(op, {a.top}) == frozenset({3})
    assert state_filter_generated(op, {2}) == frozenset({2, 3})
    assert state_filter_generated(op, {1}) == frozenset(range(4))
    [ext] = state_filter_closures(op, [], [(subset_mask({3}), 2)])
    assert mask_members(ext) == frozenset({2, 3})


@pytest.mark.parametrize("bad", [4, -1])
def test_state_filter_seeds_out_of_range_are_a_value_error(bad):
    # the seed is validated before either route reads a table row
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    with pytest.raises(ValueError, match="seed element out of range"):
        state_filter_generated(op, {bad})
    with pytest.raises(ValueError, match="seed must be nonempty"):
        state_filter_generated(op, set())


@pytest.mark.parametrize(
    "seed, reason",
    [((9,), "seed element out of range"), ((-1,), "seed element out of range"),
     ((), "seed must be nonempty")],
    ids=["9", "-1", "empty"],
)
def test_state_filter_closures_validate_their_seeds(seed, reason):
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    with pytest.raises(ValueError, match=reason):
        state_filter_closures(op, [seed], [])


@pytest.mark.parametrize(
    "pair, reason",
    [((0b0100, 2), "is not a state-filter"), ((0b1100, 9), "element out of range")],
)
def test_state_filter_extensions_are_validated(pair, reason):
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    with pytest.raises(ValueError, match=re.escape(f"extension {pair}: ") + ".*" + reason):
        state_filter_closures(op, [], [pair])


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_least_element_reading_matches_the_monoid_closure(a):
    # the kernel reads Prop. 5.4 at the monoid's least element; the
    # literal closure shares nothing with the filter lattice
    if a.size > 12:
        return
    rng = range(a.size)
    seeds = [(x,) for x in rng] + [(x, y) for x in rng for y in rng if x < y]
    for t in enumerate_operator_tables(a, "state"):
        op = verify_operator(a, t)
        extensions = [
            (f, x) for f in state_filters(a, t) if len(f) < a.size for x in rng if x not in f
        ]
        masks = state_filter_closures(op, seeds, [(subset_mask(f), x) for f, x in extensions])
        expected = [state_filter_by_monoid_closure(a, t, seed) for seed in seeds] + [
            state_filter_extension_by_powers(a, t, f, x) for f, x in extensions
        ]
        assert list(map(mask_members, masks)) == expected


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
            assert state_filter_generated(op, seed) == least_closed(closed, seed)
            for y in range(x + 1, a.size):
                seed = frozenset({x, y})
                assert state_filter_generated(op, seed) == least_closed(closed, seed)
        for f in closed:
            if f == everything:
                continue
            for elem in everything - f:
                [ext] = state_filter_closures(op, [], [(subset_mask(f), elem)])
                assert mask_members(ext) == least_closed(closed, f | {elem})


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
    assert image.same_tables(mv_chain(2))
    report = classify_state_algebra(op)
    assert report.ssbl_simple and report.sssbl_semisimple and report.radical_faithful
    assert report.ker == frozenset({2, 3})
    assert not report.failed()
    # kernel is maximal: positive instance of the simple<->kernel-maximal law
    assert report.ker in maximal_filters(a)


def _count_image_constructions(monkeypatch) -> list:
    """Record each algebra that ``operators`` builds: the images."""
    import blstate.operators as operators

    built = []

    def counting_build(*args, **kwargs):
        built.append(args[0])
        return FiniteBLAlgebra(*args, **kwargs)

    monkeypatch.setattr(operators, "FiniteBLAlgebra", counting_build)
    return built


def test_operator_image_is_sealed_once(monkeypatch):
    seals = _count_image_constructions(monkeypatch)
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


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_operator_images_pass_the_full_seal(data):
    """The image's certificate (closure under every operation) agrees
    with the full seal of the BL laws, for every state operator."""
    from .strategies import algebras

    a = data.draw(algebras)
    if a.size > 9:
        return
    for table in enumerate_operator_tables(a, "state"):
        image, pos, fixed = operator_image(verify_operator(a, table))
        tables = (image.meet, image.join, image.prod, image.impl)
        resealed = verify_bl_axioms(image.labels, *tables, image.bottom, image.top)
        assert resealed.same_tables(image)
        for t, ti in zip((a.meet, a.join, a.prod, a.impl), tables):
            assert all(pos[t[x][y]] == ti[pos[x]][pos[y]] for x in fixed for y in fixed)


def test_an_image_that_is_not_closed_is_an_internal_check_error():
    # unreachable for a verified state operator: fixed points {0, 1, 4}
    # of the 5-element MV-chain, where 1 -> 0 = 3 is not fixed
    a = mv_chain(4)
    op = StateOperator(a, (0, 1, 1, 4, 4), ("3s",))  # forged as a state operator
    with pytest.raises(InternalCheckError, match="not fixed"):
        operator_image(op)


def test_identity_image_is_its_carrier(monkeypatch):
    seals = _count_image_constructions(monkeypatch)
    a = direct_product(mv_chain(2), godel_chain(3))
    op = verify_operator(a, identity_table(a))
    image, pos, fixed = operator_image(op)
    assert image is a and operator_image(op) is operator_image(op)
    assert seals == []
    assert fixed == tuple(range(a.size))
    assert dict(pos) == {x: x for x in range(a.size)}
    with pytest.raises(TypeError):
        pos[0] = 1
    # the carrier's memos serve the image
    assert maximal_filters(image) is maximal_filters(a)


def test_identity_on_product_is_not_simple():
    square = direct_product(mv_chain(1), mv_chain(1))
    ident = verify_operator(square, identity_table(square))
    report = classify_state_algebra(ident)
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
    t = identity_table(a)
    assert satisfies_class(a, t, "mv") and verify_operator(a, t).is_strong
    b = mv_chain(2)
    square = direct_product(b, b)
    t = diagonal_operator_table(b, 1)
    assert satisfies_class(square, t, "mv") and verify_operator(square, t).is_strong
    assert holds(ADDITIVITY, square, t)


MV_CARRIERS = {
    **{f"mv_chain({n})": (n,) for n in range(1, 6)},
    "s1xs1": (1, 1),
    "mv1xmv2": (1, 2),
    "mv2xmv1": (2, 1),
}


@pytest.mark.parametrize("name", MV_CARRIERS)
def test_mv_enumeration_matches_brute_force(name):
    """Every MV carrier of at most 6 elements: the mv search against the
    all-maps filter of the MV axioms, and both against the state tables,
    which are all strong."""
    a = direct_product(*map(mv_chain, MV_CARRIERS[name]))
    assert a.size <= 6
    tables = enumerate_operator_tables(a, "mv")
    assert tables == brute_force_operator_tables(a, "mv")
    assert tables == brute_force_operator_tables(a, "state")
    assert tables == brute_force_operator_tables(a, "strong")


def test_the_mv_leaf_check_decides_mv3():
    # this map passes mv1, mv2 and mv4 and fails only mv3
    a, t = mv_chain(3), (0, 0, 3, 3)
    assert [ax for ax, law in MV_LAWS.items() if not holds(law, a, t)] == ["mv3"]
    assert not satisfies_class(a, t, "mv")
    assert satisfies_class(a, identity_table(a), "mv")


def test_the_mv_class_needs_an_mv_carrier():
    with pytest.raises(NotMVError):
        enumerate_operator_tables(godel_chain(3), "mv")


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
    # x + y = (x- * y-)- and x - y = x * y-, from neg and prod (not oplus_table)
    oplus = neg[prod[neg[:, None], neg[None, :]]]
    ominus = prod[:, neg]

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
        mv_ok &= maps[:, oplus[x, y]] == oplus[sx, maps[:, ominus[y, a.prod[x][y]]]]
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
        stats = EnumerationStats()
        tables = enumerate_operator_tables(a, cls, stats=stats)
        assert tables == brute_force_operator_tables(a, cls)
        assert stats.leaves - stats.rejected == stats.orbits <= len(tables)


@lru_cache(maxsize=None)
def constructor_carriers(max_size: int) -> tuple[FiniteBLAlgebra, ...]:
    """Every distinct carrier (by its tables) of at most ``max_size``
    elements that a recipe of ``strategies.algebras`` builds."""
    small = [*map(mv_chain, range(1, 5)), *map(godel_chain, range(2, 5))]
    tiny = [mv_chain(1), mv_chain(2), godel_chain(2), godel_chain(3)]
    found = [*small, four_element_example()[0]]
    found += [direct_product(a, b) for a, b in iproduct(tiny, repeat=2)]
    found += [
        ordinal_sum(list(chains)) for k in (2, 3) for chains in iproduct(small, repeat=k)
        if sum(c.size for c in chains) - k + 1 <= max_size
    ]
    found += [
        ordinal_sum([a, direct_product(b, c)]) for a, b, c in iproduct(tiny, repeat=3)
        if a.size + b.size * c.size - 1 <= max_size
    ]
    distinct = {}
    for a in found:
        if a.size <= max_size:
            distinct.setdefault((a.meet, a.join, a.prod, a.impl, a.bottom, a.top), a)
    return tuple(distinct.values())


def generated_group(gens, n: int) -> set[tuple[int, ...]]:
    """The permutations of range(n) that the generators generate."""
    group = [tuple(range(n))]
    seen = set(group)
    for h in group:
        for g in gens:
            if (gh := tuple(g[x] for x in h)) not in seen:
                seen.add(gh)
                group.append(gh)
    return seen


def test_automorphisms_generate_the_whole_group_up_to_7_elements():
    """On every constructor carrier of at most 7 elements the generators
    generate exactly the oracle's automorphisms, so the group order (the
    product of the basic orbit lengths) is the oracle's count."""
    carriers = constructor_carriers(7)
    assert len(carriers) > 20 and any(len(all_automorphisms(a)) > 1 for a in carriers)
    for a in carriers:
        gens = automorphisms(a)
        assert generated_group(gens, a.size) == set(all_automorphisms(a)), a
        assert automorphisms(a) is gens  # memoized on the carrier


def test_every_chain_has_only_the_identity():
    """A chain gets no generator: the constructor chains of at most 7
    elements, longer MV and Godel chains, and an ordinal sum of chains."""
    chains = [a for a in constructor_carriers(7) if a.is_linear]
    chains += [*map(mv_chain, range(7, 12)), *map(godel_chain, range(8, 12))]
    chains += [ordinal_sum([mv_chain(3), godel_chain(4), mv_chain(2)])]
    for a in chains:
        assert automorphisms(a) == (), a


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_automorphisms_of_a_godel_power_permute_its_factors(k):
    """A Godel chain has no automorphism but the identity, so only the
    factor swaps of g3^k remain: k! of them."""
    a = direct_product(*[godel_chain(3)] * k)
    gens = automorphisms(a)
    assert gens and all(is_endomorphism(a, g) and sorted(g) == list(range(a.size)) for g in gens)
    assert len(generated_group(gens, a.size)) == factorial(k)


# carriers of at most 6 elements whose automorphism group is not trivial
# (ordinal_sum refuses a non-chain below, so s1+s1+(s1xs1) stands for the
# carrier with its swapped pair above two chain elements)
ORBIT_CARRIERS = {
    "mv1xmv1": lambda: direct_product(mv_chain(1), mv_chain(1)),
    "s1+(s1xs1)": lambda: ordinal_sum([mv_chain(1), direct_product(mv_chain(1), mv_chain(1))]),
    "s1+s1+(s1xs1)": lambda: ordinal_sum(
        [mv_chain(1), mv_chain(1), direct_product(mv_chain(1), mv_chain(1))]),
    "mv2+(mv1xmv1)": lambda: ordinal_sum([mv_chain(2), direct_product(mv_chain(1), mv_chain(1))]),
}


@pytest.mark.parametrize("name", ORBIT_CARRIERS)
def test_expanded_orbits_match_brute_force(name):
    """Only the least table of each orbit is searched for; expanded and
    sorted, the tables are the unpruned oracle's, class by class."""
    a = ORBIT_CARRIERS[name]()
    assert a.size <= 6 and automorphisms(a) != ()
    classes = ["state", "strong", "morphism", "endomorphism"]
    if classify_variety(a).is_mv:
        classes.append("mv")
    for cls in classes:
        stats = EnumerationStats()
        tables = enumerate_operator_tables(a, cls, stats=stats)
        assert tables == brute_force_operator_tables(a, cls), cls
        assert stats.leaves - stats.rejected == stats.orbits <= len(tables), cls


def operator_classes(a):
    return ("state", "strong", "morphism", "endomorphism") + (
        ("mv",) if classify_variety(a).is_mv else ())


def test_leader_orbits_match_the_whole_group():
    """On the carriers above, every table of every class: its orbit under
    the generators is its conjugates by all automorphisms (the oracle's),
    each listed once, and None exactly when one of them is smaller."""
    for name, build in ORBIT_CARRIERS.items():
        a = build()
        n = a.size
        group = all_automorphisms(a)
        gens = [(g, itemgetter(*sorted(range(n), key=g.__getitem__))) for g in automorphisms(a)]
        inverses = [{v: x for x, v in enumerate(g)} for g in group]
        for cls in operator_classes(a):
            for t in enumerate_operator_tables(a, cls):
                conjugates = {tuple(g[t[inv[x]]] for x in range(n))
                              for g, inv in zip(group, inverses)}
                orbit = _leader_orbit(t, gens)
                if min(conjugates) < t:
                    assert orbit is None, (name, cls, t)
                else:
                    assert orbit[0] == t and len(orbit) == len(conjugates), (name, cls, t)
                    assert set(orbit) == conjugates, (name, cls, t)


LADDER = {
    "g3xg4": ((godel_chain, 3), (godel_chain, 4)),
    "mv2xmv2xmv1": ((mv_chain, 2), (mv_chain, 2), (mv_chain, 1)),
    "s4xs4": ((mv_chain, 4), (mv_chain, 4)),
    "g3xg3xg3": ((godel_chain, 3),) * 3,
}


def ladder_carrier(rung):
    return direct_product(*(build(n) for build, n in LADDER[rung]))


# (nodes, leaves, rejected, tried, orbits) of the state and the
# endomorphism search: a change to the pruning shows here even when the
# tables stay the same.  A fully known table is a leaf, so the leaf
# re-check rejects some (mv2xmv2xmv1 state); dropping the forced negation
# from the candidate lists or the interval test of a forced candidate
# changes ``tried``.  Only the least table of each automorphism orbit is
# kept, and a leaf that is not is not counted; g3xg4 has no automorphism
# but the identity, so its search is the unbroken one
LADDER_SEARCH = {
    "g3xg4": ((115, 16, 1, 180, 15), (102, 28, 0, 124, 28)),
    "mv2xmv2xmv1": ((214, 21, 17, 1126, 4), (70, 6, 0, 603, 6)),
    "s4xs4": ((143, 4, 2, 1219, 2), (91, 3, 0, 649, 3)),
    "g3xg3xg3": ((582, 14, 0, 1909, 14), (928, 44, 0, 1977, 44)),
}


# the number of watched instances of the state and the endomorphism
# search: a change to the instance set shows here
LADDER_INSTANCES = {
    "g3xg4": (91, 198),
    "mv2xmv2xmv1": (146, 513),
    "s4xs4": (317, 925),
    "g3xg3xg3": (343, 1215),
}


# (nodes, leaves, rejected, tried, orbits) of the mv search on the two
# MV carriers of more than 6 elements in the default corpus
MV_SEARCH = {
    "mv2xmv2": (14, 2, 0, 60, 2),
    "s4xs4": (143, 17, 15, 342, 2),
}


@pytest.mark.parametrize("name", MV_SEARCH)
def test_mv_search_counts(name):
    a = direct_product(mv_chain(2), mv_chain(2)) if name == "mv2xmv2" else ladder_carrier(name)
    stats = EnumerationStats()
    tables = enumerate_operator_tables(a, "mv", stats=stats)
    assert (stats.nodes, stats.leaves, stats.rejected, stats.tried, stats.orbits) == MV_SEARCH[name]
    assert tables == enumerate_operator_tables(a, "state")


@pytest.mark.parametrize("rung", LADDER_INSTANCES)
def test_enumeration_ladder_watched_instances(rung):
    a = ladder_carrier(rung)
    counts = tuple(sum(map(len, _watch_lists(a, cls))) for cls in ("state", "endomorphism"))
    assert counts == LADDER_INSTANCES[rung]


@settings(max_examples=60, deadline=None)
@given(algebras)
def test_watch_lists_match_the_pair_by_pair_oracle(a):
    for cls in operator_classes(a):
        assert _watch_lists(a, cls) == watch_lists_by_pairs(a, cls), cls


@pytest.mark.parametrize("rung", LADDER)
def test_ladder_watch_lists_match_the_pair_by_pair_oracle(rung):
    a = ladder_carrier(rung)
    for cls in operator_classes(a):
        assert _watch_lists(a, cls) == watch_lists_by_pairs(a, cls), cls


@pytest.mark.parametrize(
    "rung, states, endos",
    [("g3xg4", 15, 28), ("mv2xmv2xmv1", 6, 9), ("s4xs4", 3, 4), ("g3xg3xg3", 59, 216)],
)
def test_enumeration_ladder_counts(rung, states, endos):
    a = ladder_carrier(rung)
    found, searches = {}, []
    for cls in ("state", "endomorphism"):
        stats = EnumerationStats()
        found[cls] = enumerate_operator_tables(a, cls, stats=stats)
        searches.append((stats.nodes, stats.leaves, stats.rejected, stats.tried, stats.orbits))
    state = found["state"]
    assert (len(state), len(found["endomorphism"])) == (states, endos)
    assert tuple(searches) == LADDER_SEARCH[rung]
    assert state == sorted(state)
    if rung == "g3xg3xg3":
        strong = enumerate_operator_tables(a, "strong")
        morphism = enumerate_operator_tables(a, "morphism")
        assert set(morphism) <= set(strong) <= set(state)


def test_the_orbit_search_does_not_depend_on_the_generating_set(monkeypatch):
    """Any generating set of the automorphism group gives the same tables:
    on g3xg3xg3, a 3-cycle of the factors with one swap (the search itself
    finds swaps only, which are their own inverses), and the whole group."""
    a = ladder_carrier("g3xg3xg3")
    classes = ("state", "endomorphism")
    expected = {cls: enumerate_operator_tables(a, cls) for cls in classes}
    identity = tuple(range(a.size))
    group = generated_group(automorphisms(a), a.size)
    squares = {g: tuple(g[g[x]] for x in range(a.size)) for g in group - {identity}}
    cycle = next(g for g, square in squares.items() if square != identity)
    swap = next(g for g, square in squares.items() if square == identity)
    for gens in ((cycle, swap), tuple(sorted(squares))):
        assert generated_group(gens, a.size) == group
        monkeypatch.setattr(operators, "automorphisms", lambda algebra, gens=gens: gens)
        assert {cls: enumerate_operator_tables(a, cls) for cls in classes} == expected


@settings(max_examples=60, deadline=None)
@given(algebras.filter(lambda a: a.size <= 9), st.data())
def test_table_kernels_agree_with_element_scans(a, data):
    """The row kernels of the operator axioms and of preservation decide
    as the per-tuple evaluator does, and the evaluator names the witness
    of the pair-by-pair oracle (``first_unpreserved_pair``): on
    enumerated tables and on the same tables with one entry changed."""
    cls = data.draw(st.sampled_from(["state", "endomorphism"]))
    tables = enumerate_operator_tables(a, cls)
    table = list(data.draw(st.sampled_from(tables)))
    if data.draw(st.booleans()):
        entry = st.integers(0, a.size - 1)
        table[data.draw(entry)] = data.draw(entry)
    for law in [*AXIOM_LAWS.values(), *PRESERVES.values()]:
        assert law.rows is not None
        assert holds(law, a, table) == (witness(law, a, table) is None), law.text
    scans = [first_unpreserved_pair(table, op) for op in (a.meet, a.join, a.prod, a.impl)]
    for law, scan in zip(PRESERVES.values(), scans):
        assert witness(law, a, table) == scan
    fixes_bounds = table[a.bottom] == a.bottom and table[a.top] == a.top
    assert is_endomorphism(a, table) == (fixes_bounds and scans == [None] * 4)


def test_godel_floor_families():
    # the floors alone are every state operator of a Godel chain: the
    # floor strictly below x is the floor at x - 1, and the floors at the
    # coatom and the top are both the identity
    for n in range(2, 8):
        g = godel_chain(n)
        floors = {godel_floor_table(g, x) for x in range(n)}
        assert len(floors) == n - 1 and floors == set(enumerate_operator_tables(g, "state"))
    with pytest.raises(ShapeMismatchError):
        godel_floor_table(mv_chain(2), 1)  # not idempotent product


def _lukasiewicz_chain(m):
    """The Lukasiewicz chain 0 < 1/m < ... < 1 on the elements 0..m, built
    directly: sealing would scan O(n^3) tuples on 257 elements."""
    rng = range(m + 1)
    return FiniteBLAlgebra(
        size=m + 1,
        labels=tuple(map(str, rng)),
        meet=tuple(tuple(min(x, y) for y in rng) for x in rng),
        join=tuple(tuple(max(x, y) for y in rng) for x in rng),
        prod=tuple(tuple(max(0, x + y - m) for y in rng) for x in rng),
        impl=tuple(tuple(min(m, m - x + y) for y in rng) for x in rng),
        bottom=0,
        top=m,
    )


def test_carriers_over_256_elements_decide_by_the_element_scan():
    # a bytes row holds at most 256 values, so on 257 elements every table
    # kernel steps aside for the per-tuple evaluator or the element scan
    a = _lukasiewicz_chain(256)
    rng = range(a.size)
    identity = identity_table(a)
    top_to_bottom = identity[:-1] + (a.bottom,)
    tables = (a.meet, a.join, a.prod, a.impl)

    def first_unpreserved(t, T):
        return next(((x, y) for x in rng for y in rng if t[T[x][y]] != T[t[x]][t[y]]), None)

    failed = {}
    for t in (identity, top_to_bottom):
        for ax in OPERATOR_AXIOMS:
            found = witness(AXIOM_LAWS[ax], a, t)
            assert holds(AXIOM_LAWS[ax], a, t) == (found is None), ax
            if found is not None:
                failed[ax] = found
        for law, T in zip(PRESERVES.values(), tables):
            assert witness(law, a, t) == first_unpreserved(t, T)
    # 1 and 4 hold: bottom stays fixed, and no product of image values is top
    assert failed == {"2": (0, 0), "3": (1, 256), "3s": (1, 256), "5": (0, 0), "6": (1, 256),
                      "7": (0, 0)}
    assert is_endomorphism(a, identity) and not is_endomorphism(a, top_to_bottom)
    assert [holds(ADDITIVITY, a, t) for t in (identity, top_to_bottom)] == [True, False]
    assert witness(ADDITIVITY, a, top_to_bottom) == (1, 255)


def test_a_quotient_over_256_elements_is_certified_per_tuple(monkeypatch):
    # the congruence laws have row kernels only up to 256 elements, so on
    # 257 the certificate of quotient_by_filter is decided per tuple
    a = _lukasiewicz_chain(256)
    q, proj = quotient_by_filter(a, {a.top})
    assert q.same_tables(a) and proj == identity_table(a)
    q, proj = quotient_by_filter(a, range(a.size))
    assert q.size == 1 and set(proj) == {0}
    # a partition that joins 0 and 1 respects meet, join and prod, not impl
    dist = FiniteBLAlgebra.dist
    monkeypatch.setattr(FiniteBLAlgebra, "dist",
                        lambda b, x, y: b.top if {x, y} == {0, 1} else dist(b, x, y))
    with pytest.raises(InternalCheckError, match=r"projection: impl not preserved at \(1, 0\)$"):
        quotient_by_filter(_lukasiewicz_chain(256), {256})
