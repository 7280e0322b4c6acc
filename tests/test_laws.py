"""The law engine: witness texts pinned on hand-built failures, and every
law pinned to the hand-written loop it replaced (``law_oracles``)."""

import dataclasses
from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from blstate import algebra
from blstate.algebra import (
    _VARIETY_LAWS,
    INFINITE_ORDER,
    Law,
    classify_variety,
    holds,
    violation,
    witness,
)
from blstate.constructors import (
    CONGRUENT,
    direct_product,
    godel_chain,
    mv_chain,
    quotient_by_filter,
)
from blstate.corpus import CorpusInstance
from blstate.filters import all_filters, radical
from blstate.operators import (
    ADDITIVITY,
    AXIOM_LAWS,
    IDEMPOTENT,
    MV_LAWS,
    OPERATOR_AXIOMS,
    PRESERVES,
    StateOperator,
    enumerate_operator_tables,
    verify_operator,
)
from blstate.suite import (
    FAIL,
    LEMMA_3_5_M,
    REGISTRY,
    _idempotent_endomorphism,
    run_suite,
)

from . import law_oracles as oracle
from .strategies import algebras
from .test_algebra import SEAL_CARRIERS

CHECKS = {c.claim_id: c.check for c in REGISTRY}

INSTANCE_ORACLES = {
    "Prop-2.2-1": oracle._prop_2_2_1,
    "Prop-2.2-2": oracle._prop_2_2_2,
    "Prop-2.2-3": oracle._prop_2_2_3,
    "Prop-2.2-4": oracle._prop_2_2_4,
    "Prop-2.2-5": oracle._prop_2_2_5,
    "Prop-2.2-6": oracle._prop_2_2_6,
    "S2-orthogonality": oracle._s2_orthogonality,
    "S2-partial-sum": oracle._s2_partial_sum,
}
OPERATOR_ORACLES = {
    **{f"Lemma-3.5-{k}": getattr(oracle, f"_l35_{k}") for k in "abcdefghijmnopqr"},
    **{f"Lemma-3.9-{k}": getattr(oracle, f"_l39_{k}") for k in "abc"},
    "Lemma-3.10-1": oracle._l310_1,
}
# read verify_operator's verdicts, or the certificate of operator_image,
# which takes only state operators, so they agree with the oracle on the
# state operators they are graded over
STATE_POOL_ORACLES = {
    "Lemma-3.5-k": oracle._l35_k,
    "Lemma-3.5-l": oracle._l35_l,
    "Lemma-3.10-2": oracle._l310_2,
    "Lemma-3.10-3": oracle._l310_3,
    "Lemma-3.11": oracle._lemma_3_11,
    "Prop-4.10": oracle._prop_4_10,
}


def _first(law, a, t):
    found = violation(law, a, t)
    return None if found is None else found[1]


def _changed(table, n, entries):
    t = list(table)
    for x, shift in entries:
        t[x] = (t[x] + shift) % n
    return tuple(t)


# ---------------------------------------------------------------------------
# witness texts, one hand-built failure per law


M3 = mv_chain(3)  # elements x0 < x1 < x2 < x3, top x3


def _with_entry(algebra, table, x, y, v):
    rows = [list(row) for row in getattr(algebra, table)]
    rows[x][y] = v
    return dataclasses.replace(algebra, **{table: tuple(map(tuple, rows))})


@pytest.mark.parametrize(
    "claim, table, x, y, v, witness",
    [
        ("Prop-2.2-1", "prod", 0, 0, 1, "monotonicity of prod at 0,0,0,1"),
        ("Prop-2.2-2", "impl", 0, 1, 0, "monotonicity of impl at 0,0,1"),
        ("Prop-2.2-3", "prod", 0, 0, 1, "a->b- = (a*b)- fails at 0,0"),
        ("Prop-2.2-4", "impl", 0, 0, 0, "a->(a^b) = a->b fails at 0,1"),
        ("Prop-2.2-5", "prod", 0, 0, 1, "a->b <= a*c->b*c fails at 0,1,0"),
        ("Prop-2.2-6", "prod", 0, 0, 1, "residuation law fails at 0,0,0"),
        ("S2-orthogonality", "prod", 0, 0, 1, "orthogonality forms disagree at 0,0"),
        ("S2-partial-sum", "impl", 0, 0, 0, "partial sum not symmetric at 0,1"),
    ],
)
def test_instance_law_witness_text(claim, table, x, y, v, witness):
    inst = SimpleNamespace(algebra=_with_entry(M3, table, x, y, v))
    assert CHECKS[claim](inst) == witness


@pytest.mark.parametrize(
    "claim, algebra, table, witness",
    [
        ("Lemma-3.5-a", M3, (0, 0, 0, 0), "sigma(top) != top"),
        ("Lemma-3.5-b", M3, (0, 0, 0, 0), "negation at x0"),
        ("Lemma-3.5-c", M3, (0, 0, 1, 0), "monotone at x2,x3"),
        ("Lemma-3.5-d", M3, (0, 0, 2, 0), "prod bound at x2,x2"),
        ("Lemma-3.5-d", M3, (1, 0, 0, 0), "prod equality (orthogonal) at x0,x0"),
        ("Lemma-3.5-e", M3, (0, 0, 0, 1), "ominus bound at x3,x1"),
        ("Lemma-3.5-e", M3, (1, 0, 0, 0), "ominus equality at x0,x0"),
        ("Lemma-3.5-f", M3, (0, 0, 0, 1), "meet identity at x3,x3"),
        ("Lemma-3.5-g", M3, (0, 0, 3, 3), "impl bound at x2,x1"),
        ("Lemma-3.5-g", M3, (0, 0, 0, 0), "impl equality at x0,x0"),
        ("Lemma-3.5-h", M3, (0, 0, 2, 3), "distance bound at x1,x2"),
        ("Lemma-3.5-i", M3, (0, 0, 0, 3), "oplus bound at x1,x2"),
        ("Lemma-3.5-i", M3, (0, 0, 0, 0), "oplus equality at x0,x3"),
        ("Lemma-3.5-j", M3, (0, 0, 0, 1), "idempotence at x3"),
        # k and l read operator_image, which takes only state operators
        # (test_image_claims_fail_on_a_forged_state_operator)
        ("Lemma-3.5-o", M3, (0, 2, 1, 3), "surjective but not the identity"),
        # an element of the radical has infinite order, so "order grows"
        # always names the element first and the radical text never shows
        ("Lemma-3.5-m", M3, (0, 0, 3, 0), "order grows at x2"),
        ("Lemma-3.5-n", M3, (0, 0, 0, 3), "impl-preservation symmetry at x0,x1"),
        ("Lemma-3.5-p", M3, (0, 0, 0, 3), "strict monotonicity at x0,x1"),
        ("Lemma-3.5-q", M3, (0, 0, 0, 3), "comparable displacement at x1"),
        ("Lemma-3.9-a", M3, (0, 0, 0, 1), "strong prod equality at x3,x3"),
        ("Lemma-3.9-b", M3, (0, 0, 0, 1), "strong ominus equality at x3,x1"),
        ("Lemma-3.9-c", M3, (0, 1, 3, 0), "swap identity at x1"),
        ("Lemma-3.10-1", M3, (0, 0, 0, 0), "pointwise impl/meet equivalence at x0,x0"),
        ("Prop-4.9", godel_chain(3), (1, 2, 2), "not idempotent"),
    ],
)
def test_operator_law_witness_text(claim, algebra, table, witness):
    check = _idempotent_endomorphism if claim == "Prop-4.9" else CHECKS[claim]
    assert check(verify_operator(algebra, table)) == witness


@pytest.mark.parametrize(
    "table, message",
    [
        # fixed points {0, 1, 3}, and 1 -> 0 = 2 is not fixed
        ((0, 1, 1, 3), "the image is not closed: 2 is not fixed"),
        # fixed points {0, 3}, image {0, 1, 3}
        ((0, 0, 1, 3), "fixed points differ from the raw image"),
    ],
)
def test_image_claims_fail_on_a_forged_state_operator(table, message):
    """Lemma-3.5-k and -l read operator_image's certificate: on a table
    that is not a state operator but is marked as one, both fail the
    record through the pool's cross-check witness."""
    op = StateOperator(M3, table, True, False, False, False, ())
    inst = CorpusInstance("forged", M3, operators={"sigma": op})
    report = run_suite([inst], ["Lemma-3.5-k", "Lemma-3.5-l"])
    assert [(r.claim_id, r.verdict, r.witness) for r in report.records] == [
        (claim, FAIL, f"sigma: internal cross-check: {message}")
        for claim in ("Lemma-3.5-k", "Lemma-3.5-l")
    ]


def test_operator_and_mv_axiom_witnesses():
    swap = (0, 2, 1, 3)
    scans = [witness(AXIOM_LAWS[ax], M3, swap) for ax in ("2", "3", "3s", "4", "5")]
    assert scans == [(2, 1), (2, 2), (2, 2), (1, 1), (1, 0)]
    assert witness(AXIOM_LAWS["1"], M3, (3, 3, 3, 3)) == (0,)
    assert _first(MV_LAWS["mv1"], M3, (0, 0, 0, 0)) == (3,)
    assert _first(MV_LAWS["mv2"], M3, (0, 0, 0, 3)) == (1,)
    assert [_first(MV_LAWS[ax], M3, swap) for ax in ("mv3", "mv4")] == [(1, 1), (0, 1)]
    assert _first(ADDITIVITY, M3, (0, 0, 0, 3)) == (1, 2)


# ---------------------------------------------------------------------------
# the engine against the hand-written loops


def _definitional_additivity(a, t):
    for x, y in iproduct(range(a.size), repeat=2):
        if a.prod[x][y] == a.bottom and t[oracle._oplus(a, x, y)] != oracle._oplus(a, t[x], t[y]):
            return (x, y)
    return None


@settings(max_examples=50, deadline=None)
@given(algebras.filter(lambda a: a.size <= 9), st.data())
def test_operator_laws_match_the_loops(a, data):
    """Every enumerated state table, as is and with one or two entries
    changed: each per-operator claim, operator axiom and MV axiom names
    the witness its hand-written loop named."""
    entry = st.tuples(st.integers(0, a.size - 1), st.integers(1, max(a.size - 1, 1)))
    is_mv = classify_variety(a).is_mv
    for state_table in enumerate_operator_tables(a, "state"):
        changed = _changed(state_table, a.size, data.draw(st.lists(entry, min_size=1, max_size=2)))
        for t in (state_table, changed):
            op = verify_operator(a, t)
            for claim, loop in OPERATOR_ORACLES.items():
                assert CHECKS[claim](op) == loop(a, op), claim
            if op.is_state:
                for claim, loop in STATE_POOL_ORACLES.items():
                    assert CHECKS[claim](op) == loop(a, op), claim
                assert _idempotent_endomorphism(op) == oracle._idempotent_endomorphism(a, op)
            for ax in OPERATOR_AXIOMS:
                assert witness(AXIOM_LAWS[ax], a, t) == oracle._axiom_scan(a, t, ax), ax
            if is_mv:
                for ax, law in MV_LAWS.items():
                    assert _first(law, a, t) == oracle.mv_axiom_witness(a, t, ax), ax
                # on an MV carrier the MV axioms are the state axioms, and
                # every state operator is strong
                assert all(holds(law, a, t) for law in MV_LAWS.values()) == op.is_state
                assert op.is_strong or not op.is_state
                assert _first(ADDITIVITY, a, t) == _definitional_additivity(a, t)


@settings(max_examples=100, deadline=None)
@given(algebras.filter(lambda a: a.size <= 9), st.data())
def test_instance_laws_match_the_loops_on_perturbed_algebras(a, data):
    """The Section 2 laws and the variety flags, on the algebra and on a
    copy with one entry of one table changed: each names the witness its
    loop named."""
    tables = {"algebra": a}
    if a.size > 1:
        name = data.draw(st.sampled_from(["meet", "join", "prod", "impl"]))
        x, y = data.draw(st.tuples(st.integers(0, a.size - 1), st.integers(0, a.size - 1)))
        shift = data.draw(st.integers(1, a.size - 1))
        rows = getattr(a, name)
        tables["perturbed"] = _with_entry(a, name, x, y, (rows[x][y] + shift) % a.size)
    for algebra in tables.values():
        inst = SimpleNamespace(algebra=algebra)
        for claim, loop in INSTANCE_ORACLES.items():
            assert CHECKS[claim](inst) == loop(inst), claim
        assert classify_variety(algebra) == oracle.classify_variety(algebra)


# ---------------------------------------------------------------------------
# the row kernels against the per-tuple evaluator


def _laws_in(obj, found: dict) -> dict:
    """Every ``Law`` in ``obj``: in containers and in the closures of checks."""
    if isinstance(obj, Law):
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _laws_in(item, found)
    elif isinstance(obj, dict):
        _laws_in(list(obj.values()), found)
    elif callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            _laws_in(cell.cell_contents, found)
    return found


SEALING_LAWS = list(_laws_in(algebra._SEALING, {}).values())
LAWS = list(_laws_in(
    [[claim.check for claim in REGISTRY], AXIOM_LAWS, PRESERVES, MV_LAWS, ADDITIVITY, IDEMPOTENT,
     _VARIETY_LAWS, SEALING_LAWS, CONGRUENT],
    {},
).values())
KERNEL_LAWS = [law for law in LAWS if law.rows is not None]
# the laws over the named tables only: no operator t or orders
INSTANCE_LAWS = [law for law in LAWS if not algebra._parameters(law.check)[0] & {"t", "orders"}]
INSTANCE_KERNEL_LAWS = [law for law in KERNEL_LAWS if law in INSTANCE_LAWS]
# axioms 6 and 7 are the preservation of prod and impl
OPERATOR_KERNEL_LAWS = list(
    {id(law): law for law in [*AXIOM_LAWS.values(), *PRESERVES.values()]}.values()
)
# the quotient certificate: the class map respects meet, join, prod and impl
CONGRUENT_LAWS = list(CONGRUENT.values())


def _arity(law):
    return algebra._parameters(law.check)[1]


def test_the_prop_2_2_laws_the_operator_axioms_and_preservation_carry_row_kernels():
    # so do the BL laws of sealing and the quotient certificate; holds
    # decides these by their kernels on every carrier of at most 256
    # elements; every other law (the 2-variable instance laws outside
    # sealing and the claims that read the operator t or the orders) goes
    # per tuple
    assert len(LAWS) == 66
    assert len(SEALING_LAWS) == 15
    assert len(INSTANCE_LAWS) == 26  # the BL laws, Prop-2.2, S2 and the variety flags
    assert len(OPERATOR_KERNEL_LAWS) == 10  # axioms 1-5 and 3s, preservation of all four
    assert len(CONGRUENT_LAWS) == 4
    for law in LAWS:
        expected = (law in OPERATOR_KERNEL_LAWS or law in SEALING_LAWS or law in CONGRUENT_LAWS
                    or (law in INSTANCE_LAWS and _arity(law) >= 3))
        assert (law.rows is not None) == expected, law.text
    assert len(INSTANCE_KERNEL_LAWS) == 19  # the BL laws, Prop-2.2-1, 2, 5 and 6
    assert len(KERNEL_LAWS) == 33


def test_every_law_reads_only_t_its_variables_and_tables_of_a_sealed_algebra():
    # what _bind can fill in: a law that reads anything else (the algebra
    # object, say) would raise inside _bind only when it is first decided
    sealed = mv_chain(3)
    for law in LAWS:
        code = law.check.__code__
        names = code.co_varnames[: code.co_argcount]
        k = _arity(law)
        assert k >= 1 and all(len(name) == 1 for name in names[len(names) - k:]), law.text
        for name in names[: len(names) - k]:
            if name != "t":
                value = getattr(sealed, algebra._ATTRIBUTE.get(name, name), None)
                assert value is not None and not callable(value), (law.text, name)


def _rows_agree_with_tuples(a, laws=INSTANCE_KERNEL_LAWS):
    """Each law's row kernel decides as its per-tuple evaluator does."""
    for law in laws:
        assert law.rows(a, None) == (witness(law, a) is None), law.text


def _perturbed(a, data):
    """``a`` with one entry of one table changed (no BL-algebra then)."""
    name = data.draw(st.sampled_from(["meet", "join", "prod", "impl"]))
    x, y = data.draw(st.tuples(st.integers(0, a.size - 1), st.integers(0, a.size - 1)))
    shift = data.draw(st.integers(1, a.size - 1))
    return _with_entry(a, name, x, y, (getattr(a, name)[x][y] + shift) % a.size)


@settings(max_examples=25, deadline=None)
@given(algebras.filter(lambda a: a.size <= 9), st.data())
def test_row_evaluator_matches_the_per_tuple_evaluator(a, data):
    """Every row kernel decides as its per-tuple evaluator does: on the
    algebra, and on copies with one entry of one table changed."""
    _rows_agree_with_tuples(a)
    if a.size > 1:
        for _ in range(3):
            _rows_agree_with_tuples(_perturbed(a, data))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SEAL_CARRIERS), st.data())
def test_the_bl_law_kernels_match_the_per_tuple_evaluator_on_the_seal_carriers(a, data):
    """The kernels of sealing decide as the per-tuple evaluator does on
    12 to 32 elements and on one, sealed and with one entry changed."""
    _rows_agree_with_tuples(a, SEALING_LAWS)
    if a.size > 1:
        _rows_agree_with_tuples(_perturbed(a, data), SEALING_LAWS)


def _class_map(proj):
    """Each element to the first element of its class."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(c, x) for x, c in enumerate(proj))


@settings(max_examples=40, deadline=None)
@given(st.one_of(algebras, st.sampled_from(SEAL_CARRIERS)), st.data())
def test_the_congruence_kernels_match_the_per_tuple_evaluator_on_class_maps(a, data):
    """The kernels of the quotient certificate decide as the per-tuple
    evaluator does: on the class map of every filter, where every law
    holds, and on the same map with one entry changed."""
    for f in all_filters(a):
        rep = _class_map(quotient_by_filter(a, f)[1])
        assert all(witness(law, a, rep) is None for law in CONGRUENT_LAWS)
        maps = [rep]
        if a.size > 1:
            x, shift = data.draw(st.tuples(st.integers(0, a.size - 1), st.integers(1, a.size - 1)))
            maps.append(_changed(rep, a.size, [(x, shift)]))
        for t in maps:
            for law in CONGRUENT_LAWS:
                assert law.rows(a, t) == (witness(law, a, t) is None), law.text


# 18 and 32 elements: _pairwise reads two and four lookup groups; on 40,
# seven, and the per-tuple evaluator reads a 2-variable law from iproduct
LARGE = (
    direct_product(mv_chain(8), godel_chain(2)),
    direct_product(mv_chain(7), godel_chain(4)),
    direct_product(mv_chain(4), mv_chain(7)),
)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(LARGE), st.data())
def test_row_evaluator_matches_the_per_tuple_evaluator_on_larger_carriers(a, data):
    # holds: the kernels, the per-tuple evaluator for the other instance
    # laws; Prop-2.2-1 on 40 elements would scan 2.56M tuples
    laws = [law for law in INSTANCE_LAWS if a.size ** _arity(law) <= 1_100_000]
    for b in (a, _perturbed(a, data)):
        for law in laws:
            assert algebra.holds(law, b) == (witness(law, b) is None), law.text


def test_an_operator_law_without_a_kernel_goes_per_tuple_above_32_elements():
    # a law without a row kernel is decided by the per-tuple evaluator,
    # which reads the tuples from iproduct on every carrier; here a
    # 2-variable law on 40 elements spans 1600 of them
    a = LARGE[2]
    monotone = next(law for law in LAWS if law.text == "monotone at {},{}")  # Lemma-3.5-c
    assert monotone.rows is None
    identity = tuple(range(a.size))
    changed = _changed(identity, a.size, [(a.top, a.bottom - a.top)])  # top to bottom
    assert [algebra.holds(monotone, a, t) for t in (identity, changed)] == [True, False]
    assert [witness(monotone, a, t) is None for t in (identity, changed)] == [True, False]


@settings(max_examples=40, deadline=None)
@given(algebras.filter(lambda a: a.size > 1), st.data())
def test_the_radical_clause_of_lemma_3_5_m_fails_only_where_order_grows_fails(a, data):
    # so the one law "order grows" decides both clauses (the radical
    # clause is read for n > 1 only: at n = 1 the bottom lies in the
    # radical and has order 1)
    t = data.draw(st.lists(st.integers(0, a.size - 1), min_size=a.size, max_size=a.size))
    rad = radical(a)
    for x in range(a.size):
        if a.ord_of(x) != INFINITE_ORDER and t[x] in rad:
            assert not LEMMA_3_5_M.check(t, a.orders, x)
