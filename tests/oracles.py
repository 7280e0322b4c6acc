"""Independent oracles the tests pin the library against.

Each oracle answers a question by the definition alone and shares no
machinery with the route it checks: ``brute_force_filters`` scans every
subset, ``brute_force_operator_tables`` scans every map with numpy
(a test dependency only), ``all_pairs_is_primary`` tests the primary
law on every pair of elements, and ``solve_linear``, ``convex_coefficients``
and ``mix_states`` are the library's elimination, hull test and mixture
on ``fractions.Fraction``, kept as they were before the state layer moved
to integer numerators.
"""

from fractions import Fraction
from itertools import combinations, product as iproduct
from typing import Sequence

from blstate.algebra import FiniteBLAlgebra
from blstate.filters import filter_sort_key, has_power_negation_in
from blstate.operators import CLASS_AXIOMS
from blstate.states import RationalState

ZERO = Fraction(0)
ONE = Fraction(1)


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


def brute_force_operator_tables(
    algebra: FiniteBLAlgebra, cls: str = "state"
) -> list[tuple[int, ...]]:
    """Unpruned oracle: scan all n^n maps, applying the class axioms
    directly as vectorized masks.  Intended for small carriers only."""
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
    else:
        for ax in CLASS_AXIOMS[cls]:
            maps = apply_axiom(maps, ax)
    return [tuple(int(v) for v in row) for row in maps]


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
