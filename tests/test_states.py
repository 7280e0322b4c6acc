"""States: Bosbach/Riecan verdicts, extremal states, correspondences."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from blstate import states
from blstate.algebra import InternalCheckError, verify_bl_axioms
from blstate.constructors import (
    diagonal_operator_table,
    direct_product,
    four_element_example,
    godel_chain,
    mv_chain,
)
from blstate.filters import maximal_filters
from blstate.operators import identity_table, operator_image, verify_operator
from blstate.states import (
    NotAStateError,
    RationalState,
    StateVerdict,
    check_state,
    convex_coefficients,
    extremal_states,
    format_fraction,
    is_compatible,
    mix_states,
    pull_back_state,
    pulled_back_extremal_states,
    restrict_to_image,
    sigma_compatible_correspondence,
    solve_linear,
)

from . import oracles
from .strategies import algebras
from .test_constructors import RELABELED_CARRIERS, relabel, shuffled_order

F = Fraction
ONE = verify_bl_axioms(["0"], [[0]], [[0]], [[0]], [[0]], 0, 0)


def test_example_state_is_bosbach_and_extremal():
    a, _ = four_element_example()
    verdict = check_state(RationalState(a, (F(0), F(1, 2), F(1), F(1))))
    assert verdict.bosbach and verdict.extremal
    assert verdict.state_morphism and verdict.max_join and verdict.luk_mult
    assert verdict.witnesses == ()  # the Riecan scan passed too


def test_two_element_state():
    a = mv_chain(1)
    verdict = check_state(RationalState(a, (F(0), F(1))))
    assert verdict.bosbach and verdict.extremal


def test_non_state_has_witness():
    a, _ = four_element_example()
    verdict = check_state(RationalState(a, (F(0), F(1, 3), F(1), F(1))))
    assert not verdict.bosbach
    assert [name for name, _ in verdict.witnesses[:2]] == ["bosbach", "riecan"]


def test_bosbach_riecan_agree_exhaustively_small():
    """Every rational map with small denominators gets matching verdicts.

    check_state raises InternalCheckError on any mismatch, so a clean
    sweep is the assertion.
    """
    values = [F(0), F(1, 2), F(1)]
    for a in (mv_chain(1), mv_chain(2), godel_chain(3)):
        for combo in iproduct(values, repeat=a.size):
            check_state(RationalState(a, combo))


def test_extremal_states_catalogue():
    a, _ = four_element_example()
    assert [s.values for s in extremal_states(a)] == [(F(0), F(1, 2), F(1), F(1))]
    m4 = mv_chain(4)
    assert [s.values for s in extremal_states(m4)] == [
        tuple(F(i, 4) for i in range(5))
    ]
    square = direct_product(mv_chain(1), mv_chain(1))
    ext = extremal_states(square)
    assert [s.values for s in ext] == [
        (F(0), F(1), F(0), F(1)),  # second-coordinate projection
        (F(0), F(0), F(1), F(1)),  # first-coordinate projection
    ]
    g3 = godel_chain(3)
    assert [s.values for s in extremal_states(g3)] == [(F(0), F(1), F(1))]


def test_all_states_live_in_the_extremal_hull():
    """The Bosbach solution space pinned to the unit box is the hull."""
    square = direct_product(mv_chain(1), mv_chain(1))
    particular, basis = oracles.bosbach_solution_space(square)
    assert len(basis) == 1
    ext = extremal_states(square)
    # deterministic sample of box-feasible solutions of the linear system
    for t in (F(0), F(1, 4), F(1, 2), F(2, 3), F(1)):
        candidate = tuple(p + t * b for p, b in zip(particular, basis[0]))
        if any(v < 0 or v > 1 for v in candidate):
            continue
        state = RationalState(square, candidate)
        assert check_state(state).bosbach
        assert convex_coefficients(ext, state) is not None


def test_solve_linear_inconsistent():
    assert solve_linear([[F(1)], [F(1)]], [F(0), F(1)]) is None


def test_mix_states_and_hull():
    square = direct_product(mv_chain(1), mv_chain(1))
    ext = extremal_states(square)
    mixed = mix_states(ext, [F(1, 3), F(2, 3)])
    assert check_state(mixed).bosbach
    assert not check_state(mixed).extremal
    assert convex_coefficients(ext, mixed) == (F(1, 3), F(2, 3))
    outside = RationalState(square, (F(0), F(1), F(1), F(1)))
    assert convex_coefficients(ext, outside) is None


def test_a_mix_in_lowest_terms_is_the_live_state():
    # s mixed with itself is (0, 2, 0, 2) / 2 before the gcd division: in
    # lowest terms it is s's own map, so the carrier's table returns s
    square = direct_product(mv_chain(1), mv_chain(1))
    s = extremal_states(square)[0]
    mixed = mix_states([s, s], [F(1, 2), F(1, 2)])
    assert mixed is s and mixed == s


def test_pull_back_state():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    image, _, _ = operator_image(op)
    pulled = pull_back_state(op, RationalState(image, (F(0), F(1, 2), F(1))))
    assert pulled.values == (F(0), F(1, 2), F(1), F(1))
    ident = verify_operator(a, identity_table(a))
    st = RationalState(a, (F(0), F(1, 2), F(1), F(1)))
    assert pull_back_state(ident, st) is st
    with pytest.raises(NotAStateError):
        pull_back_state(op, RationalState(image, (F(0), F(1, 3), F(1))))


def test_a_state_is_checked_once_per_object(monkeypatch):
    scans = []
    real = states.bosbach_witness

    def counting(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(states, "bosbach_witness", counting)
    a, _ = four_element_example()
    st = RationalState(a, (F(0), F(1, 2), F(1), F(1)))
    first = st.verdict
    assert len(scans) == 1
    assert st.verdict is first and first.extremal
    assert len(scans) == 1
    # a new object with the same values is checked again: nothing is
    # memoized per value
    assert RationalState(a, st.values).verdict == first
    assert len(scans) == 2


def test_pull_back_reuses_state_verdicts(monkeypatch):
    a = direct_product(mv_chain(1), mv_chain(1))
    ident = verify_operator(a, identity_table(a))
    ext = extremal_states(a)
    scans = []
    real = states.bosbach_witness

    def counting(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(states, "bosbach_witness", counting)
    for s in ext:
        assert pull_back_state(ident, s) is s
    mixed = mix_states(ext, [F(1, 2), F(1, 2)])
    assert pull_back_state(ident, mixed) is mixed
    assert len(scans) == 1  # the mixture, once
    assert pull_back_state(ident, mixed) is mixed and len(scans) == 1
    # only a state object of the image is read: raw values, and a state
    # on an equal algebra object, are refused unscanned
    twin = RationalState(direct_product(mv_chain(1), mv_chain(1)), mixed.values)
    for other in (mixed.values, twin):
        with pytest.raises(ValueError, match="state object of the operator's image"):
            pull_back_state(ident, other)
    assert len(scans) == 1
    # a map that is not a state still raises, scanned once
    with pytest.raises(NotAStateError):
        pull_back_state(ident, RationalState(a, (F(0), F(1, 2), F(0), F(1))))
    assert len(scans) == 2


def test_values_outside_the_unit_interval_are_not_a_state():
    # the pair identities hold here; only the range test rejects the map
    square = direct_product(mv_chain(1), mv_chain(1))
    verdict = check_state(states._state(square, (0, 2, -1, 1), 1))
    assert not verdict.is_state
    assert verdict.witnesses[:2] == (("bosbach", ("range", 1)), ("riecan", ("range", 1)))


def test_pull_back_of_values_outside_the_unit_interval_is_not_a_state():
    square = direct_product(mv_chain(1), mv_chain(1))
    ident = verify_operator(square, identity_table(square))
    with pytest.raises(ValueError, match="must lie in"):
        RationalState(square, (F(0), F(2), F(-1), F(1)))
    # the carrier's table takes any integer map; the range scan rejects it
    outside = states._state(square, (0, 2, -1, 1), 1)
    with pytest.raises(NotAStateError, match="range"):
        pull_back_state(ident, outside)


def test_a_pull_back_equal_to_a_carrier_state_is_that_object(monkeypatch):
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    ext = extremal_states(a)
    image, _, _ = states.operator_image(op)
    extremal_states(image)
    scans = []
    real = states.bosbach_witness

    def counting(*args):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(states, "bosbach_witness", counting)
    assert pulled_back_extremal_states(op) == ext
    assert pulled_back_extremal_states(op)[0] is ext[0]
    assert scans == []  # the carrier's state object is not scanned again
    b = mv_chain(1)
    square = direct_product(b, b)
    diag = verify_operator(square, diagonal_operator_table(b, 1))
    [pulled] = pulled_back_extremal_states(diag)
    assert pulled in extremal_states(square)
    assert any(pulled is s for s in extremal_states(square))


def test_the_state_table_holds_only_live_states():
    import gc

    a = direct_product(mv_chain(1), mv_chain(1))
    ext = extremal_states(a)
    mixed = mix_states(ext, [F(1, 2), F(1, 2)])
    assert mix_states(list(reversed(ext)), [F(1, 2), F(1, 2)]) is mixed
    assert RationalState(a, mixed.values) is not mixed  # the constructor makes a new object
    table = a.__dict__["_states"]
    assert set(table.values()) == {*ext, mixed}
    del mixed
    gc.collect()
    assert set(table.values()) == set(ext)


def test_states_are_immutable():
    a = direct_product(mv_chain(1), mv_chain(1))
    shared = extremal_states(a)[0]
    built = RationalState(a, shared.values)
    assert shared.verdict.extremal  # the cached verdict is written all the same
    for st in (shared, built):
        for name, value in (("p", (0, 0, 0, 1)), ("d", 2), ("values", built.values)):
            with pytest.raises(FrozenInstanceError):
                setattr(st, name, value)
    assert shared == built and shared.p == built.p


def test_mix_states_refuses_states_of_two_carriers():
    square = direct_product(mv_chain(1), mv_chain(1))
    chain = mv_chain(3)
    with pytest.raises(ValueError, match="one carrier"):
        mix_states([extremal_states(square)[0], extremal_states(chain)[0]], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError, match="one carrier"):
        mix_states([extremal_states(square)[0], extremal_states(chain)[0]], [F(1), F(0)])


@pytest.mark.parametrize(
    "points, target",
    [
        (mv_chain(1), mv_chain(2)),  # fewer point values than target values
        (mv_chain(2), mv_chain(1)),  # more point values than target values
        (godel_chain(3), mv_chain(2)),  # as many values, on another carrier
    ],
    ids=["smaller-points", "larger-points", "same-size"],
)
def test_the_hull_test_refuses_points_and_target_of_two_carriers(points, target):
    with pytest.raises(ValueError, match="one carrier"):
        convex_coefficients(extremal_states(points), extremal_states(target)[0])


def test_a_pulled_back_extremal_state_restricts_to_its_source_object():
    b = mv_chain(1)
    square = direct_product(b, b)
    diag = verify_operator(square, diagonal_operator_table(b, 1))
    image_ext = extremal_states(operator_image(diag)[0])
    for pulled, src in zip(pulled_back_extremal_states(diag), image_ext):
        assert restrict_to_image(diag, pulled) is src
        assert restrict_to_image(diag, pulled).values == src.values


def test_pull_back_through_diagonal():
    b = mv_chain(2)
    square = direct_product(b, b)
    op = verify_operator(square, diagonal_operator_table(b, 1))
    image_state = RationalState(operator_image(op)[0], tuple(F(i, 2) for i in range(3)))
    pulled = pull_back_state(op, image_state)
    # (a, b) -> a/2
    expected = tuple(F(i, 2) for i in range(3) for _ in range(3))
    assert pulled.values == expected
    assert is_compatible(op, pulled)


def test_compatibility_filters_states():
    b = mv_chain(1)
    square = direct_product(b, b)
    op = verify_operator(square, diagonal_operator_table(b, 1))
    first = RationalState(square, (F(0), F(0), F(1), F(1)))
    second = RationalState(square, (F(0), F(1), F(0), F(1)))
    assert is_compatible(op, first)
    assert not is_compatible(op, second)


def test_correspondence_reports():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    report = sigma_compatible_correspondence(op)
    assert report.bijection_ok
    assert [s.values for s in report.compatible_extremal] == [(F(0), F(1, 2), F(1), F(1))]

    b = mv_chain(1)
    square = direct_product(b, b)
    diag = verify_operator(square, diagonal_operator_table(b, 1))
    rep = sigma_compatible_correspondence(diag)
    assert rep.bijection_ok
    assert len(rep.compatible_extremal) == 1
    assert len(extremal_states(square)) == 2  # compatibility strictly filters

    ident = verify_operator(square, identity_table(square))
    rep_id = sigma_compatible_correspondence(ident)
    assert rep_id.bijection_ok
    assert [s.values for s in rep_id.compatible_extremal] == [
        s.values for s in extremal_states(operator_image(ident)[0])
    ]


def test_restrict_to_image_round_trip():
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    st = RationalState(a, (F(0), F(1, 2), F(1), F(1)))
    assert restrict_to_image(op, st).values == (F(0), F(1, 2), F(1))


def test_format_fraction():
    assert format_fraction(F(1, 2)) == "1/2"
    assert format_fraction(F(1)) == "1"
    assert format_fraction(F(0)) == "0"


def test_random_extremal_mixtures_stay_in_the_hull(corpus):
    """Seeded sampler: random rational mixtures of extremals are states
    and land back inside the hull (exact membership)."""
    import random

    rng = random.Random(7)
    for inst in corpus:
        a = inst.algebra
        if a.size > 9:
            continue
        ext = extremal_states(a)
        for _ in range(3):
            raw = [F(rng.randrange(0, 5), 4) for _ in ext]
            total = sum(raw)
            if total == 0:
                continue
            weights = [w / total for w in raw]
            mixed = mix_states(ext, weights)
            assert check_state(mixed).bosbach
            assert convex_coefficients(ext, mixed) is not None


# ---------------------------------------------------------------------------
# check_state against a Fraction reference written from the definitions


def _first_pair(algebra, holds):
    for x, y in iproduct(range(algebra.size), repeat=2):
        if not holds(x, y):
            return (x, y)
    return None


def reference_check_state(algebra, values) -> StateVerdict:
    """The five scans and the kernel test on Fractions, as the definitions read."""
    s = tuple(F(v) for v in values)
    assert len(s) == algebra.size
    impl, join, prod = algebra.impl, algebra.join, algebra.prod

    def pinned(both):
        if s[algebra.bottom] != 0:
            return ("bottom",)
        if both and s[algebra.top] != 1:
            return ("top",)
        if both:  # a state maps into [0, 1]
            return next((("range", x) for x, v in enumerate(s) if not 0 <= v <= 1), None)
        return None

    wb = pinned(True) or _first_pair(
        algebra, lambda x, y: s[x] + s[impl[x][y]] == s[y] + s[impl[y][x]]
    )
    wr = pinned(True) or _first_pair(
        algebra,
        lambda x, y: algebra.prod[x][y] != algebra.bottom
        or s[impl[algebra.neg(y)][algebra.neg(algebra.neg(x))]] == s[x] + s[y],
    )
    if (wb is None) != (wr is None):
        raise InternalCheckError("Bosbach/Riecan verdicts disagree")
    wm = pinned(False) or _first_pair(
        algebra, lambda x, y: s[impl[x][y]] == min(1 - s[x] + s[y], F(1))
    )
    wj = _first_pair(algebra, lambda x, y: s[join[x][y]] == max(s[x], s[y]))
    wl = _first_pair(algebra, lambda x, y: s[prod[x][y]] == max(s[x] + s[y] - 1, F(0)))
    kernel = frozenset(x for x in range(algebra.size) if s[x] == 1)
    named = (
        ("bosbach", wb),
        ("riecan", wr),
        ("state_morphism", wm),
        ("max_join", wj),
        ("luk_mult", wl),
    )
    return StateVerdict(
        bosbach=wb is None,
        state_morphism=wm is None,
        max_join=wj is None,
        luk_mult=wl is None,
        kernel_maximal=kernel in maximal_filters(algebra),
        witnesses=tuple((name, w) for name, w in named if w is not None),
    )


def state_of(algebra, values):
    """The map as a state object: by the public constructor when it lies
    in [0, 1], else by the carrier's table, which takes any integer map."""
    if all(0 <= v <= 1 for v in values):
        return RationalState(algebra, values)
    return states._state(algebra, *states._numerators(values))


def _outcome(check, *args):
    try:
        return check(*args)
    except InternalCheckError:
        return InternalCheckError


def assert_matches_reference(algebra, values):
    assert _outcome(check_state, state_of(algebra, values)) == _outcome(
        reference_check_state, algebra, values
    )


_fractions = st.integers(1, 12).flatmap(
    lambda den: st.integers(-den, 2 * den).map(lambda num: F(num, den))
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_state_matches_fraction_reference(data):
    """Random rationals (mixed denominators, outside [0, 1], s(0) and s(1)
    pinned or not) and mixtures of extremal states get the reference's
    verdict, witnesses included."""
    a = data.draw(algebras)
    kind = data.draw(st.sampled_from(["random", "pinned", "mixture"]))
    if kind == "mixture" and a.size >= 2:
        ext = extremal_states(a)
        raw = data.draw(st.lists(st.integers(0, 6), min_size=len(ext), max_size=len(ext)))
        if sum(raw) == 0:
            raw[0] = 1
        values = list(mix_states(ext, [F(w, sum(raw)) for w in raw]).values)
        if data.draw(st.booleans()):  # nudge one value off the state
            x = data.draw(st.integers(0, a.size - 1))
            values[x] += data.draw(_fractions)
    else:
        values = data.draw(st.lists(_fractions, min_size=a.size, max_size=a.size))
        if kind == "pinned":
            values[a.bottom], values[a.top] = F(0), F(1)
    assert_matches_reference(a, values)


@pytest.mark.parametrize("name", RELABELED_CARRIERS)
def test_check_state_matches_reference_on_relabeled_carriers(name):
    """On renumberings that are no linear extension of the order, where
    the bottom need not be element 0 and the scans meet the pairs in
    another order, the verdicts and witnesses are the reference's."""
    a = RELABELED_CARRIERS[name]
    rng = random.Random(f"states {name}")
    for _ in range(10):
        b = relabel(a, shuffled_order(a, rng))
        for _ in range(10):
            values = [F(rng.randrange(5), 4) for _ in range(b.size)]
            values[b.bottom], values[b.top] = F(0), F(1)
            assert_matches_reference(b, values)


def test_check_state_matches_reference_on_corpus_states(corpus):
    """Extremal states and their uniform mixture on every default-corpus instance."""
    for inst in corpus:
        a = inst.algebra
        if a.size < 2:
            continue
        ext = extremal_states(a)
        candidates = [s.values for s in ext]
        candidates.append(mix_states(ext, [F(1, len(ext))] * len(ext)).values)
        for values in candidates:
            assert_matches_reference(a, values)


# ---------------------------------------------------------------------------
# the integer state layer against the Fraction oracles


_small_fractions = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(3, 4)])


@st.composite
def linear_systems(draw):
    """Small rational systems; appended combinations of drawn rows make
    them rank-deficient, and a perturbed right-hand side inconsistent."""
    n_cols = draw(st.integers(1, 4))
    row = st.lists(_small_fractions, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    rhs = draw(st.lists(_small_fractions, min_size=len(rows), max_size=len(rows)))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(_small_fractions), draw(_small_fractions)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        rhs.append(a * rhs[i] + b * rhs[j] + draw(st.sampled_from([F(0), F(0), F(1)])))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_the_fraction_oracle(system):
    rows, rhs = system
    assert solve_linear(rows, rhs) == oracles.solve_linear(rows, rhs)


def test_solve_linear_matches_the_oracle_on_edge_systems():
    for rows, rhs in (
        ([], []),
        ([[]], [F(0)]),
        ([[]], [F(1)]),
        ([[F(0), F(0)]], [F(0)]),
        ([[F(0), F(0)]], [F(1)]),
        ([[F(2), F(4)], [F(1), F(2)]], [F(2), F(1)]),
    ):
        assert solve_linear(rows, rhs) == oracles.solve_linear(rows, rhs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixtures_and_hull_tests_match_the_fraction_oracles(data):
    a = data.draw(algebras)
    ext = extremal_states(a)
    raw = data.draw(st.lists(st.integers(0, 6), min_size=len(ext), max_size=len(ext)))
    if sum(raw) == 0:
        raw[0] = 1
    weights = [F(w, sum(raw)) for w in raw]
    mixed = mix_states(ext, weights)
    expected = oracles.mix_states(ext, weights)
    assert mixed == expected and mixed.values == expected.values
    points = [s.values for s in ext]
    targets = [mixed.values, *points]
    if data.draw(st.booleans()):  # a map off the hull, or not a state at all
        x = data.draw(st.integers(0, a.size - 1))
        nudged = list(mixed.values)
        nudged[x] += data.draw(_small_fractions)
        targets.append(tuple(nudged))
    for target in targets:
        want = oracles.convex_coefficients(points, target)
        assert convex_coefficients(ext, state_of(a, target)) == want
    assert convex_coefficients(ext, mixed) == oracles.convex_coefficients(points, mixed.values)


_unit_values = st.sampled_from([F(0), F(1), F(1, 2), F(2, 4), F(1, 3), F(2, 3)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hull_tests_match_the_fraction_oracle_on_random_points(data):
    dim = data.draw(st.integers(1, 4))
    vector = st.tuples(*[_unit_values] * dim)
    points = data.draw(st.lists(vector, min_size=1, max_size=4))
    if data.draw(st.booleans()):
        target = data.draw(vector)
    else:  # a convex combination of the points
        raw = data.draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
        if sum(raw) == 0:
            raw[0] = 1
        target = tuple(
            sum(F(w, sum(raw)) * p[c] for w, p in zip(raw, points)) for c in range(dim)
        )
    # the hull test reads only the maps, so any carrier of dim elements serves
    carrier = mv_chain(dim - 1) if dim > 1 else ONE
    got = convex_coefficients(
        [RationalState(carrier, p) for p in points], RationalState(carrier, target)
    )
    assert got == oracles.convex_coefficients(points, target)


def test_check_state_and_the_hull_test_read_only_state_objects():
    a, _ = four_element_example()
    values = (F(0), F(1, 2), F(1), F(1))
    with pytest.raises(ValueError, match="takes a RationalState"):
        check_state(values)
    with pytest.raises(ValueError, match="takes RationalStates"):
        convex_coefficients(extremal_states(a), values)
    with pytest.raises(ValueError, match="takes RationalStates"):
        convex_coefficients([values], RationalState(a, values))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_state_keeps_its_values_and_compares_by_them(data):
    a = data.draw(algebras)
    first, second = (
        data.draw(st.lists(_unit_values, min_size=a.size, max_size=a.size)) for _ in range(2)
    )
    s, t = RationalState(a, first), RationalState(a, second)
    assert s.values == tuple(first) and t.values == tuple(second)
    assert (s == t) == (tuple(first) == tuple(second))
    if s == t:
        assert hash(s) == hash(t)
    assert s == RationalState(a, s.values) and hash(s) == hash(RationalState(a, s.values))
    assert [s(x) for x in range(a.size)] == list(first)
