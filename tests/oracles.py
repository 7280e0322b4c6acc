"""Independent oracles the tests pin the library against.

Each oracle answers a question by the definition alone and shares no
machinery with the route it checks: ``brute_force_filters`` scans every
subset, ``brute_force_operator_tables`` scans every map with numpy
(a test dependency only).
"""

from itertools import product as iproduct

from blstate.algebra import FiniteBLAlgebra
from blstate.filters import filter_sort_key
from blstate.operators import CLASS_AXIOMS


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
