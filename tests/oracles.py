"""Independent oracles the tests pin the library against.

Each oracle answers a question by the definition alone and shares no
machinery with the route it checks: ``brute_force_filters`` scans every
subset, ``brute_force_operator_tables`` scans every map with numpy
(a test dependency only), ``all_automorphisms`` every permutation,
``watch_lists_by_pairs`` unrolls the enumerator's axiom instances pair
by pair, ``all_pairs_is_primary`` tests the primary law on every pair of
elements, ``state_filter_by_monoid_closure`` and
``state_filter_extension_by_powers`` read Prop. 5.4 literally (the
union of the upsets of a whole generated monoid, or of every product
i * g^n), and ``solve_linear``, ``convex_coefficients``
and ``mix_states`` are the library's elimination, hull test and mixture
on ``fractions.Fraction``, kept as they were before the state layer moved
to integer numerators; ``bosbach_solution_space`` solves the Bosbach
identities with ``solve_linear``.  ``residuum_by_scan`` derives impl by the
definition, element by element, as the library did before it read the
candidate sets in C.  ``first_unpreserved_pair`` reads the preservation
of one table by a map pair by pair, sharing no code with
``constructors.homomorphism`` or ``operators.PRESERVES``.
``first_violation`` names the first failing BL
law by the per-tuple evaluator alone (``witness``), never by ``holds``
and so never by a row kernel.  ``report_by_json_dumps`` and
``document_by_json_dumps`` build the canonical payloads as dicts and
write them with ``json.dumps(indent=2, ensure_ascii=True)``, as the
library did before it assembled the text itself.
"""

import json
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from typing import Sequence

from blstate.algebra import _SEALING, AxiomViolation, FiniteBLAlgebra, NoResiduumError, witness
from blstate.filters import filter_sort_key, has_power_negation_in
from blstate.operators import CLASS_AXIOMS
from blstate.states import RationalState, format_fraction
from blstate.suite import _shown

ZERO = Fraction(0)
ONE = Fraction(1)


def residuum_by_scan(leq, prod) -> tuple[tuple[int, ...], ...]:
    """impl(a, b) = the first z, ascending, of {z : prod(a, z) <= b} that
    lies above every member; ``NoResiduumError`` at the first pair with
    none."""
    n = len(prod)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            candidates = [z for z in range(n) if leq[prod[a][z]][b]]
            best = None
            for z in candidates:
                if all(leq[w][z] for w in candidates):
                    best = z
                    break
            if best is None:
                raise NoResiduumError(a, b)
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


def first_violation(meet, join, prod, impl, bottom, top) -> AxiomViolation | None:
    """The first failure of the sealing laws, group by group in their
    order: every law of a group is scanned per tuple, the least failing
    tuple wins, and at the same tuple the earlier law."""
    candidate = FiniteBLAlgebra(len(meet), (), meet, join, prod, impl, bottom, top)
    for axiom, laws in _SEALING:
        found = [(w, i) for i, law in enumerate(laws) if (w := witness(law, candidate)) is not None]
        if found:
            w, i = min(found)
            return AxiomViolation(axiom, w, laws[i].text)
    return None


def first_unpreserved_pair(t: Sequence[int], table) -> tuple[int, int] | None:
    """The lexicographically first pair (x, y) with
    t(table[x][y]) != table[t(x)][t(y)], or None if ``t`` preserves the
    operation."""
    n = len(table)
    return next(
        ((x, y) for x, y in iproduct(range(n), repeat=2) if t[table[x][y]] != table[t[x]][t[y]]),
        None,
    )


def brute_force_filters(a):
    """Independent oracle: scan every subset against the two filter axioms."""
    found = []
    n = a.size
    for mask in range(1, 1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        closed = all(a.prod[x][y] in s for x in s for y in s)
        upward = all(y in s for x in s for y in range(n) if a.le(x, y))
        if closed and upward and a.top in s:
            found.append(s)
    return sorted(found, key=filter_sort_key)


def all_pairs_is_primary(algebra: FiniteBLAlgebra, members: frozenset[int]) -> bool:
    """(a*b)- in P implies (a^n)- in P or (b^n)- in P for some n."""
    n = algebra.size
    return all(
        algebra.neg(algebra.prod[a][b]) not in members
        or has_power_negation_in(algebra, members, a)
        or has_power_negation_in(algebra, members, b)
        for a, b in iproduct(range(n), range(n))
    )


def state_filter_by_monoid_closure(
    algebra: FiniteBLAlgebra, table: Sequence[int], seed
) -> frozenset[int]:
    """Prop. 5.4: the union of the upsets of the submonoid generated by
    the elements x * sigma(x), x in seed, closed product by product."""
    xs = sorted(set(seed))
    prod = algebra.prod

    gens = {prod[x][table[x]] for x in xs}
    monoid = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                p = prod[a][g]
                if p not in monoid:
                    new.add(p)
        monoid |= new
        frontier = new
    return frozenset().union(*map(algebra.upsets.__getitem__, monoid))


def state_filter_extension_by_powers(
    algebra: FiniteBLAlgebra, table: Sequence[int], members: frozenset[int], a: int
) -> frozenset[int]:
    """Prop. 5.4: the union of the upsets of i * g^n, i in the
    state-filter ``members``, n >= 1, g = a * sigma(a)."""
    prod = algebra.prod
    powers = algebra.power_values(prod[a][table[a]])
    products = {prod[i][p] for i in members for p in powers}
    return frozenset().union(*map(algebra.upsets.__getitem__, products))


def brute_force_operator_tables(
    algebra: FiniteBLAlgebra, cls: str = "state"
) -> list[tuple[int, ...]]:
    """Unpruned oracle: scan all n^n maps, applying the class axioms
    directly as vectorized masks.  Intended for small carriers only.
    The class ``mv`` reads the MV internal-state axioms mv1-mv4 from
    their definition, not from ``operators.MV_LAWS``."""
    import numpy as np

    n = algebra.size
    total = n**n
    if total > 40_000_000:
        raise ValueError(f"brute force over {total} maps is not reasonable")
    ks = np.arange(total, dtype=np.int64)
    cols = [(ks // (n ** (n - 1 - i))) % n for i in range(n)]
    maps = np.stack(cols, axis=1).astype(np.int16)
    del ks, cols

    meet = np.array(algebra.meet, dtype=np.int16)
    join = np.array(algebra.join, dtype=np.int16)
    prod = np.array(algebra.prod, dtype=np.int16)
    impl = np.array(algebra.impl, dtype=np.int16)
    neg = np.array(algebra.neg_table, dtype=np.int16)

    def gather(m, idx):
        return np.take_along_axis(m, idx[:, None].astype(np.int64), axis=1)[:, 0]

    def apply_axiom(m, ax):
        keep = np.ones(len(m), dtype=bool)
        if ax == "1":
            return m[m[:, algebra.bottom] == algebra.bottom]
        for x, y in iproduct(range(n), repeat=2):
            if ax == "2":
                cond = m[:, impl[x][y]] == impl[m[:, x], m[:, meet[x][y]]]
            elif ax == "3":
                cond = m[:, prod[x][y]] == prod[m[:, x], m[:, impl[x][prod[x][y]]]]
            elif ax == "3s":
                cond = m[:, prod[x][y]] == prod[m[:, x], m[:, join[neg[x]][y]]]
            elif ax == "4":
                t = prod[m[:, x], m[:, y]]
                cond = gather(m, t) == t
            elif ax == "5":
                t = impl[m[:, x], m[:, y]]
                cond = gather(m, t) == t
            elif ax == "6":
                cond = m[:, prod[x][y]] == prod[m[:, x], m[:, y]]
            elif ax == "7":
                cond = m[:, impl[x][y]] == impl[m[:, x], m[:, y]]
            else:
                raise ValueError(ax)
            keep &= cond
        return m[keep]

    if cls == "endomorphism":
        maps = maps[maps[:, algebra.bottom] == algebra.bottom]
        maps = maps[maps[:, algebra.top] == algebra.top]
        for table in (meet, join, prod, impl):
            keep = np.ones(len(maps), dtype=bool)
            for x, y in iproduct(range(n), repeat=2):
                keep &= maps[:, table[x][y]] == table[maps[:, x], maps[:, y]]
            maps = maps[keep]
    elif cls == "mv":
        # Flaminio and Montagna's axioms, in oplus(x, y) = -(-x * -y)
        oplus = neg[prod[neg[:, None], neg[None, :]]]
        maps = maps[maps[:, algebra.top] == algebra.top]  # mv1; with mv2, s(0) = 0
        keep = np.ones(len(maps), dtype=bool)
        for x in range(n):  # mv2
            keep &= maps[:, neg[x]] == neg[maps[:, x]]
        maps = maps[keep]
        keep = np.ones(len(maps), dtype=bool)
        for x, y in iproduct(range(n), repeat=2):
            sx, sy = maps[:, x], maps[:, y]
            # mv3: s(x + y) = s(x) + s(y minus x*y), a minus b = a * -b
            keep &= maps[:, oplus[x][y]] == oplus[sx, maps[:, prod[y][neg[prod[x][y]]]]]
            t = oplus[sx, sy]  # mv4
            keep &= gather(maps, t) == t
        maps = maps[keep]
    else:
        for ax in CLASS_AXIOMS[cls]:
            maps = apply_axiom(maps, ax)
    return [tuple(int(v) for v in row) for row in maps]


def watch_lists_by_pairs(algebra: FiniteBLAlgebra, cls: str) -> list[list[tuple]]:
    """The enumerator's watch lists built pair by pair: every axiom
    instance of every pair (x, y), one ``add`` each, which drops mirrored
    and comparable-argument instances and keeps the rest once in a set.
    ``operators._watch_lists`` generates the same lists from the order."""
    meet, join, prod, impl = algebra.meet, algebra.join, algebra.prod, algebra.impl
    neg, leq = algebra.neg_table, algebra.leq
    tables = (meet, join, prod, impl)
    if cls == "mv":
        tables += (algebra.oplus_table,)
    keys: set[tuple[int, int, int, int]] = set()

    def add(l: int, a: int, b: int, k: int) -> None:
        if k != 3 and b < a:  # impl (k == 3) is the one that does not commute
            a, b = b, a
        # on comparable arguments a meet, join or impl instance says only
        # s[a] <= s[b] (or the reverse), which the monotonicity check enforces
        if k in (0, 1, 3) and (leq[a][b] or (k != 3 and leq[b][a])):
            return
        keys.add((l, a, b, k))

    for x, y in iproduct(range(algebra.size), repeat=2):
        if cls == "endomorphism":
            for k, t in enumerate(tables):
                add(t[x][y], x, y, k)
            continue
        if cls == "mv":
            add(tables[4][x][y], x, prod[y][neg[prod[x][y]]], 4)  # mv3
            continue
        add(impl[x][y], x, meet[x][y], 3)  # axiom 2
        if cls == "state":
            add(prod[x][y], x, impl[x][prod[x][y]], 2)  # axiom 3
        elif cls == "strong":
            add(prod[x][y], x, join[neg[x]][y], 2)  # axiom 3s
        else:
            add(prod[x][y], x, y, 2)  # axiom 6
    watches: list[list[tuple]] = [[] for _ in range(algebra.size)]
    for l, a, b, k in sorted(keys):
        watches[max(a, b)].append((l, a, b, tables[k]))
    return watches


def all_automorphisms(algebra: FiniteBLAlgebra) -> list[tuple[int, ...]]:
    """Every permutation of the carrier that preserves meet, join, prod and
    impl, found by scanning all n! permutations.  For small carriers only."""
    n = algebra.size
    tables = (algebra.meet, algebra.join, algebra.prod, algebra.impl)
    pairs = list(iproduct(range(n), repeat=2))
    return [
        p for p in permutations(range(n))
        if all(p[t[x][y]] == t[p[x]][p[y]] for t in tables for x, y in pairs)
    ]


def solve_linear(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A x = b over the rationals.

    Returns (particular solution, null-space basis) or None when the
    system is inconsistent.
    """
    m = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        factor = m[r][c]
        m[r] = [v / factor for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            return None
    particular = [ZERO] * n_cols
    for i, c in enumerate(piv_cols):
        particular[c] = m[i][n_cols]
    free_cols = [c for c in range(n_cols) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n_cols
        vec[fc] = ONE
        for i, c in enumerate(piv_cols):
            vec[c] = -m[i][fc]
        basis.append(vec)
    return particular, basis


def bosbach_solution_space(
    algebra: FiniteBLAlgebra,
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Affine solution space of the Bosbach identities with s(0)=0, s(1)=1."""
    n = algebra.size
    rows: list[list[int]] = []
    rhs: list[int] = []
    for pinned, value in ((algebra.bottom, 0), (algebra.top, 1)):
        row = [0] * n
        row[pinned] = 1
        rows.append(row)
        rhs.append(value)
    for x, y in iproduct(range(n), repeat=2):
        row = [0] * n
        row[x] += 1
        row[algebra.impl[x][y]] += 1
        row[y] -= 1
        row[algebra.impl[y][x]] -= 1
        if any(row):
            rows.append(row)
            rhs.append(0)
    solved = solve_linear(rows, rhs)
    assert solved is not None, "Bosbach system inconsistent on a sealed algebra"
    return solved


def mix_states(
    states: Sequence[RationalState], weights: Sequence[Fraction]
) -> RationalState:
    if len(states) != len(weights) or not states:
        raise ValueError("need matching nonempty states/weights")
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be a convex combination")
    algebra = states[0].algebra
    values = tuple(
        sum((w * s.values[x] for s, w in zip(states, weights)), ZERO)
        for x in range(algebra.size)
    )
    return RationalState(algebra, values)


def convex_coefficients(
    points: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Exact convex-combination coefficients, or None if outside the hull.

    Solves sum(l_i * p_i) = target with sum(l_i) = 1 and l_i >= 0 by
    scanning basic supports; fine for the handfuls of extremal states a
    finite algebra has.
    """
    k = len(points)
    if k == 0:
        return None
    dim = len(target)
    for size in range(1, k + 1):
        for support in combinations(range(k), size):
            rows = [[points[j][c] for j in support] for c in range(dim)]
            rows.append([ONE] * size)
            rhs = list(target) + [ONE]
            solved = solve_linear(rows, rhs)
            if solved is None:
                continue
            particular, _ = solved
            if all(v >= 0 for v in particular):
                coeffs = [ZERO] * k
                for j, idx in enumerate(support):
                    coeffs[idx] = particular[j]
                return tuple(coeffs)
    return None


def report_by_json_dumps(report, keep_going: bool = True, timings: bool = False) -> str:
    shown, stopped, counts = _shown(report, keep_going)
    records = []
    for r in shown:
        entry = {"claim": r.claim_id, "instance": r.instance, "verdict": r.verdict,
                 "witness": r.witness}
        if timings:
            entry["elapsed"] = round(r.elapsed, 6)
        records.append(entry)
    summary = {"records": len(records), "pass": counts["pass"], "fail": counts["fail"],
               "discrepancy": counts["discrepancy"], "stopped_early": stopped}
    payload = {"format": "blstate-suite/1", "records": records, "summary": summary}
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def document_by_json_dumps(doc) -> str:
    tables = {
        name: [list(row) for row in table]
        for name, table in (("meet", doc.meet), ("join", doc.join), ("prod", doc.prod),
                            ("impl", doc.impl))
        if table is not None
    }
    payload = {"format": "blstate/1", "labels": list(doc.labels), "tables": tables}
    if doc.operators:
        payload["operators"] = {name: list(doc.operators[name]) for name in sorted(doc.operators)}
    if doc.states:
        payload["states"] = {
            name: [format_fraction(v) for v in doc.states[name]] for name in sorted(doc.states)
        }
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
