"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is exact; the stated time budgets are
asserted with `perf_counter`.
"""

from fractions import Fraction
from itertools import product as iproduct
from time import perf_counter

from blstate.algebra import classify_variety
from blstate.constructors import (
    diagonal_operator_table,
    direct_product,
    four_element_example,
    mv_chain,
    pair_index,
)
from blstate.corpus import default_corpus
from blstate.filters import maximal_filters, subdirectly_irreducible
from blstate.operators import (
    chain_product_sum,
    classify_state_algebra,
    enumerate_operator_tables,
    identity_table,
    interval_collapse_table,
    operator_image,
    sigma_j_table,
    verify_operator,
)
from blstate.states import (
    bosbach_solution_space,
    check_state,
    extremal_states,
    sigma_compatible_correspondence,
)
from blstate.suite import run_suite, render_json, render_text

from .oracles import brute_force_operator_tables

F = Fraction


def _report(n, label, elapsed, budget=None):
    budget_note = f", budget {budget}s" if budget else ""
    print(f"PASS criterion {n}: {label} ({elapsed:.2f}s{budget_note})")
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_example_3_4_end_to_end():
    start = perf_counter()
    a, sigma = four_element_example()  # seals; raises on any axiom failure
    flags = classify_variety(a)
    assert not flags.is_mv and flags.witness("is_mv") == (2,)  # witness b
    op = verify_operator(a, sigma)
    assert op.verified_class == "morphism" and op.preserves_impl
    image, _, fixed = operator_image(op)
    assert fixed == (0, 1, 3)  # {0, a, 1}
    assert image.same_tables(mv_chain(2).relabeled(image.labels))
    _report(1, "4-element example end-to-end", perf_counter() - start, 1.0)


def test_criterion_02_unique_operator_on_mv_chains(corpus):
    start = perf_counter()
    for n in range(1, 6):
        a = mv_chain(n)
        assert enumerate_operator_tables(a, "state") == [identity_table(a)]
    for n in range(1, 5):  # unpruned cross-check
        a = mv_chain(n)
        assert brute_force_operator_tables(a, "state") == [identity_table(a)]
    for inst in corpus:
        if not inst.algebra.is_linear or inst.enumerated is None:
            continue
        a = inst.algebra
        for op in inst.enumerated:
            t = op.table
            assert all(t[t[x]] == t[x] for x in range(a.size))
            for table in (a.meet, a.join, a.prod, a.impl):
                assert all(
                    t[table[x][y]] == table[t[x]][t[y]]
                    for x, y in iproduct(range(a.size), repeat=2)
                )
    _report(2, "identity is the unique operator on MV-chains; chain operators are idempotent endomorphisms", perf_counter() - start, 30.0)


def test_criterion_03_exact_operator_counts_on_shaped_sums():
    start = perf_counter()
    shape = chain_product_sum(1, (1, 1))
    a = shape.algebra
    js_tables = {
        sigma_j_table(shape, frozenset(js)) for js in ((), (0,), (1,), (0, 1))
    }
    assert len(js_tables) == 4  # >= 2^k distinct
    for t in js_tables:
        assert verify_operator(a, t).is_morphism
    pruned = enumerate_operator_tables(a, "state")
    brute = brute_force_operator_tables(a, "state")
    assert pruned == brute
    assert js_tables <= set(pruned)
    assert len(pruned) == 6  # frozen exact count, certified by the oracle
    # same cross-check on the 7-element variant
    shape7 = chain_product_sum(1, (2, 1))
    pruned7 = enumerate_operator_tables(shape7.algebra, "state")
    brute7 = brute_force_operator_tables(shape7.algebra, "state")
    assert pruned7 == brute7
    assert len(pruned7) == 5
    _report(3, "exact state-operator counts match unpruned brute force", perf_counter() - start, 300.0)


def test_criterion_04_negative_collapse_on_s4xs4():
    start = perf_counter()
    s4 = mv_chain(4)
    a = direct_product(s4, s4)
    table, covered = interval_collapse_table(a, pair_index(s4, s4, 0, 4), a.bottom)
    assert not covered
    op = verify_operator(a, table)
    assert op.verified_class == "none"
    x = pair_index(s4, s4, 3, 1)
    xx = a.prod[x][x]
    assert table[xx] == pair_index(s4, s4, 0, 0)
    assert a.prod[table[x]][table[x]] == pair_index(s4, s4, 2, 0)
    assert table[xx] != a.prod[table[x]][table[x]]
    _report(4, "uncovered collapse rejected with the catalogued witness", perf_counter() - start, 1.0)


def test_criterion_05_operator_fact_suite(corpus):
    start = perf_counter()
    ids = [f"Lemma-3.5-{k}" for k in "abcdefghijklmnopqr"]
    ids += ["Lemma-3.9-a", "Lemma-3.9-b", "Lemma-3.9-c"]
    ids += ["Lemma-3.10-1", "Lemma-3.10-2", "Lemma-3.10-3"]
    report = run_suite(corpus, ids)
    assert report.failures == [] and report.discrepancies == []
    assert {r.claim_id for r in report.records} == set(ids)
    _report(5, "operator fact suite (18+3+3 laws) with zero violations", perf_counter() - start)


def test_criterion_06_radical_cross_checks(corpus):
    start = perf_counter()
    report = run_suite(corpus, ["Prop-2.10", "Prop-5.7", "Prop-5.10"])
    assert report.failures == [] and report.discrepancies == []
    _report(6, "radical routes agree; image-radical laws hold", perf_counter() - start)


def test_criterion_07_class_theorems(corpus):
    start = perf_counter()
    report = run_suite(corpus, ["Thm-7.3", "Thm-7.5", "Thm-7.6", "Thm-7.8", "Thm-7.9"])
    assert report.failures == [] and report.discrepancies == []
    # positive instance: the 4-element example
    a, sigma = four_element_example()
    op = verify_operator(a, sigma)
    cls = classify_state_algebra(a, op)
    assert cls.ssbl_simple
    assert cls.ker == frozenset({2, 3}) and cls.ker in maximal_filters(a)
    _report(7, "class-level theorems hold; the example instantiates them positively", perf_counter() - start)


def _denominator_grid(max_den=4):
    vals = {F(0), F(1)}
    for q in range(1, max_den + 1):
        for p in range(q + 1):
            vals.add(F(p, q))
    return sorted(vals)


def test_criterion_08_states(corpus):
    start = perf_counter()
    grid = _denominator_grid(4)
    small = [inst.algebra for inst in corpus if inst.algebra.size <= 5]
    assert small
    for a in small:
        found = []
        for combo in iproduct(grid, repeat=a.size):
            verdict = check_state(a, combo)  # raises on Bosbach/Riecan mismatch
            if verdict.bosbach:
                found.append(combo)
        particular, basis = bosbach_solution_space(a)
        for values in found:
            # plug into the solved linear system: residual must vanish
            assert values[a.bottom] == 0 and values[a.top] == 1
            for x, y in iproduct(range(a.size), repeat=2):
                lhs = values[x] + values[a.impl[x][y]]
                rhs = values[y] + values[a.impl[y][x]]
                assert lhs == rhs
            diff = [v - p for v, p in zip(values, particular)]
            # the difference must lie in the span of the null-space basis
            from blstate.states import solve_linear

            if basis:
                rows = [[basis[j][i] for j in range(len(basis))] for i in range(a.size)]
                assert solve_linear(rows, diff) is not None
            else:
                assert all(d == 0 for d in diff)

    a, sigma = four_element_example()
    ext = extremal_states(a)
    assert [s.values for s in ext] == [(F(0), F(1, 2), F(1), F(1))]

    op = verify_operator(a, sigma)
    assert sigma_compatible_correspondence(a, op).bijection_ok
    b = mv_chain(1)
    square = direct_product(b, b)
    diag = verify_operator(square, diagonal_operator_table(b, 1))
    rep = sigma_compatible_correspondence(square, diag)
    assert rep.bijection_ok and len(rep.compatible_extremal) == 1
    _report(8, "exhaustive Bosbach/Riecan agreement and state correspondences", perf_counter() - start, 120.0)


def test_criterion_09_subdirectly_irreducible_diagonal():
    start = perf_counter()
    b = mv_chain(2)
    a = direct_product(b, b)
    sigma = diagonal_operator_table(b, 1)
    op = verify_operator(a, sigma)
    irr, least = subdirectly_irreducible(a, sigma)
    assert irr and least == op.kernel
    assert not a.is_linear
    image, _, _ = operator_image(op)
    assert image.is_linear
    _report(9, "diagonal state algebra is irreducible and non-linear with a linear image", perf_counter() - start, 10.0)


def test_criterion_10_deterministic_reports(corpus):
    start = perf_counter()
    r1 = run_suite(corpus)
    r2 = run_suite(default_corpus())  # fresh instances: every memo is cold
    assert render_text(r1) == render_text(r2)
    assert render_json(r1) == render_json(r2)
    assert r1.failures == []
    _report(10, "suite reports byte-identical across runs", perf_counter() - start)
