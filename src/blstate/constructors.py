"""Stock algebras and the canonical operator constructions on them.

Chains, products, ordinal sums and the four-element example are sealed
by ``verify_bl_axioms``, the independent check of the code that builds
their tables.  A quotient is sealed by certificate: its class map must
respect every operation (``CONGRUENT``, decided by ``algebra.holds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product as iproduct
from operator import index
from typing import Sequence

from .algebra import (
    FiniteBLAlgebra,
    InternalCheckError,
    Law,
    Table,
    holds,
    memoized,
    verify_bl_axioms,
    witness,
)


class NonLinearSummandError(Exception):
    """A non-final ordinal summand must be a chain."""


class NotAFilterError(Exception):
    pass


class NotAHomomorphismError(Exception):
    pass


def mv_chain(n: int) -> FiniteBLAlgebra:
    """The (n+1)-element MV-chain x_0 < ... < x_n.

    prod(x_i, x_j) = x_{(i+j-n) v 0} and impl(x_i, x_j) = x_{(n-i+j) ^ n}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n + 1
    labels = [f"x{i}" for i in range(m)]
    meet = [[min(i, j) for j in range(m)] for i in range(m)]
    join = [[max(i, j) for j in range(m)] for i in range(m)]
    prod = [[max(i + j - n, 0) for j in range(m)] for i in range(m)]
    impl = [[min(n - i + j, n) for j in range(m)] for i in range(m)]
    return verify_bl_axioms(labels, meet, join, prod, impl, 0, n)


def godel_chain(n: int) -> FiniteBLAlgebra:
    """The n-element Godel chain: prod = min, impl(x,y) = top if x<=y else y."""
    if n < 2:
        raise ValueError("n must be >= 2")
    labels = [f"g{i}" for i in range(n)]
    meet = [[min(i, j) for j in range(n)] for i in range(n)]
    join = [[max(i, j) for j in range(n)] for i in range(n)]
    prod = meet
    impl = [[n - 1 if i <= j else j for j in range(n)] for i in range(n)]
    return verify_bl_axioms(labels, meet, join, prod, impl, 0, n - 1)


def pair_index(a: FiniteBLAlgebra, b: FiniteBLAlgebra, i: int, j: int) -> int:
    """Row-major pairing used by ``direct_product``."""
    return i * b.size + j


def direct_product(a: FiniteBLAlgebra, b: FiniteBLAlgebra) -> FiniteBLAlgebra:
    """Componentwise product on the row-major paired carrier."""
    n = a.size * b.size
    labels = [
        f"({a.labels[i]},{b.labels[j]})" for i in range(a.size) for j in range(b.size)
    ]

    def table(ta: Table, tb: Table):
        out = [[0] * n for _ in range(n)]
        for i1, j1 in iproduct(range(a.size), range(b.size)):
            for i2, j2 in iproduct(range(a.size), range(b.size)):
                out[pair_index(a, b, i1, j1)][pair_index(a, b, i2, j2)] = pair_index(
                    a, b, ta[i1][i2], tb[j1][j2]
                )
        return out

    return verify_bl_axioms(
        labels,
        table(a.meet, b.meet),
        table(a.join, b.join),
        table(a.prod, b.prod),
        table(a.impl, b.impl),
        pair_index(a, b, a.bottom, b.bottom),
        pair_index(a, b, a.top, b.top),
    )


def _ordinal_sum_pair(a1: FiniteBLAlgebra, a2: FiniteBLAlgebra) -> FiniteBLAlgebra:
    """Binary ordinal sum with the two tops identified.

    Element order: non-top elements of a1 (ascending), non-top elements
    of a2 (ascending), global top last.
    """
    if not a1.is_linear:
        raise NonLinearSummandError("a non-final ordinal summand must be linearly ordered")
    n1, n2 = a1.size, a2.size
    n = n1 + n2 - 1
    top = n - 1

    def emb1(x: int) -> int:
        if x == a1.top:
            return top
        return x if x < a1.top else x - 1

    def emb2(y: int) -> int:
        if y == a2.top:
            return top
        base = n1 - 1
        return base + (y if y < a2.top else y - 1)

    # inverse maps; top belongs to both summands
    in1 = [None] * n
    in2 = [None] * n
    for x in range(n1):
        in1[emb1(x)] = x
    for y in range(n2):
        in2[emb2(y)] = y

    labels = (
        [f"l.{a1.labels[x]}" for x in range(n1) if x != a1.top]
        + [f"r.{a2.labels[y]}" for y in range(n2) if y != a2.top]
        + ["1"]
    )

    def build(case_same1, case_same2, case_low_high, case_high_low):
        out = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                x1, y1 = in1[x], in1[y]
                x2, y2 = in2[x], in2[y]
                if x1 is not None and y1 is not None:
                    out[x][y] = emb1(case_same1(x1, y1))
                elif x2 is not None and y2 is not None:
                    out[x][y] = emb2(case_same2(x2, y2))
                elif x1 is not None:  # x in A1 \ {top}, y in A2
                    out[x][y] = case_low_high(x, y)
                else:  # x in A2, y in A1 \ {top}
                    out[x][y] = case_high_low(x, y)
        return out

    meet = build(
        lambda p, q: a1.meet[p][q],
        lambda p, q: a2.meet[p][q],
        lambda x, y: x,
        lambda x, y: y,
    )
    join = build(
        lambda p, q: a1.join[p][q],
        lambda p, q: a2.join[p][q],
        lambda x, y: y,
        lambda x, y: x,
    )
    prod = build(
        lambda p, q: a1.prod[p][q],
        lambda p, q: a2.prod[p][q],
        lambda x, y: x,
        lambda x, y: y,
    )
    impl = build(
        lambda p, q: a1.impl[p][q],
        lambda p, q: a2.impl[p][q],
        lambda x, y: top,
        lambda x, y: y,
    )
    return verify_bl_axioms(labels, meet, join, prod, impl, 0, top)


def ordinal_sum(summands: Sequence[FiniteBLAlgebra]) -> FiniteBLAlgebra:
    """k-ary ordinal sum as a left fold of the binary sum.

    All summands except possibly the last must be chains; tops are
    identified pairwise.  Element order: summand 0's non-top elements
    first, then each later summand's non-top elements, global top last.
    """
    if not summands:
        raise ValueError("need at least one summand")
    acc = summands[0]
    for nxt in summands[1:]:
        acc = _ordinal_sum_pair(acc, nxt)
    if len(summands) == 1:
        return acc
    # canonical labels, replacing the nested l./r. prefixes from the fold
    labels: list[str] = []
    for i, s in enumerate(summands):
        labels.extend(f"s{i}.{s.labels[x]}" for x in range(s.size) if x != s.top)
    labels.append("1")
    return acc.relabeled(labels)


def ordinal_summand_slices(summands: Sequence[FiniteBLAlgebra]) -> list[list[int]]:
    """Global element ids of each summand inside ``ordinal_sum(summands)``.

    Each slice lists the summand's non-top elements in order followed by
    the global top (which all summands share).
    """
    sizes = [s.size - 1 for s in summands]
    total = sum(sizes) + 1
    out = []
    start = 0
    for k in sizes:
        out.append(list(range(start, start + k)) + [total - 1])
        start += k
    return out


def four_element_example() -> tuple[FiniteBLAlgebra, tuple[int, ...]]:
    """The 4-element chain 0 < a < b < 1 with its distinguished operator.

    Returns the sealed algebra together with the operator table
    sigma = (0, a, 1, 1).  The algebra is a BL-algebra that is not an
    MV-algebra; the operator verifies as a state-morphism operator that
    also preserves impl.
    """
    labels = ["0", "a", "b", "1"]
    meet = [[min(i, j) for j in range(4)] for i in range(4)]
    join = [[max(i, j) for j in range(4)] for i in range(4)]
    prod = [
        [0, 0, 0, 0],
        [0, 0, 1, 1],
        [0, 1, 2, 2],
        [0, 1, 2, 3],
    ]
    impl = [
        [3, 3, 3, 3],
        [1, 3, 3, 3],
        [0, 1, 3, 3],
        [0, 1, 2, 3],
    ]
    algebra = verify_bl_axioms(labels, meet, join, prod, impl, 0, 3)
    sigma = (0, 1, 3, 3)
    return algebra, sigma


def quotient_by_filter(
    algebra: FiniteBLAlgebra, members: frozenset[int] | set[int]
) -> tuple[FiniteBLAlgebra, tuple[int, ...]]:
    """Quotient by the congruence x ~ y iff dist(x, y) in F.

    Returns the quotient algebra and the projection table.  Classes are
    numbered by ascending smallest representative.  x/F = 1/F iff x in F
    (cross-checked).  Raises ``NotAFilterError`` for a malformed F.  The
    quotient is sealed by certificate, not by re-deciding the BL laws:
    the class map must respect every operation (``CONGRUENT``), else
    ``InternalCheckError``, so the quotient is a homomorphic image of a
    BL-algebra.  It is built once per (algebra, F) and memoized on the
    algebra, so later calls return the same tuple.
    """
    return _sealed_quotient(algebra, frozenset(members))


def _congruent(k: int, a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    """The kernel of ``CONGRUENT`` on the k-th of meet, join, prod and impl:
    row x through t equals t through row t[x], then through t."""
    rep, rows, pad = bytes(t), a.byte_rows[k], bytes(256 - a.size)
    s = rep + pad
    return all(
        r.translate(s) == rep.translate(rows[v] + pad).translate(s) for r, v in zip(rows, rep)
    )


# the class map t (x to its class representative) respects each operation: as
# t[u] == t[v] iff u ~ v, the projection then carries it onto the induced table
CONGRUENT = {
    "meet": Law("t(x^y) = t(t(x) ^ t(y))",
                lambda t, meet, x, y: t[meet[x][y]] == t[meet[t[x]][t[y]]], partial(_congruent, 0)),
    "join": Law("t(x v y) = t(t(x) v t(y))",
                lambda t, join, x, y: t[join[x][y]] == t[join[t[x]][t[y]]], partial(_congruent, 1)),
    "prod": Law("t(x*y) = t(t(x) * t(y))",
                lambda t, prod, x, y: t[prod[x][y]] == t[prod[t[x]][t[y]]], partial(_congruent, 2)),
    "impl": Law("t(x->y) = t(t(x) -> t(y))",
                lambda t, impl, x, y: t[impl[x][y]] == t[impl[t[x]][t[y]]], partial(_congruent, 3)),
}


@memoized
def _sealed_quotient(algebra: FiniteBLAlgebra, f: frozenset[int]):
    from .filters import filter_violation  # local import to avoid a cycle

    bad = filter_violation(algebra, f)
    if bad is not None:
        raise NotAFilterError(bad)

    n = algebra.size
    reps: list[int] = []
    proj = [-1] * n
    for x in range(n):
        for c, r in enumerate(reps):
            if algebra.dist(x, r) in f:
                proj[x] = c
                break
        else:
            proj[x] = len(reps)
            reps.append(x)
    # Sealed by certificate: the class map respects each operation; a homomorphic
    # image of a BL-algebra is one, since BL-algebras form a variety.
    rep = [reps[c] for c in proj]
    for name, law in CONGRUENT.items():
        if not holds(law, algebra, rep):
            x, y = witness(law, algebra, rep)
            raise InternalCheckError(f"the quotient projection: {name} not preserved at ({x}, {y})")
    induced = [[[proj[t[r][s]] for s in reps] for r in reps] for t in _tables(algebra)]
    tables = [tuple(map(tuple, rows)) for rows in induced]
    labels = tuple(algebra.labels[r] + "/F" for r in reps)
    top_class = proj[algebra.top]
    quotient = FiniteBLAlgebra(len(reps), labels, *tables, proj[algebra.bottom], top_class)
    for x in range(n):
        if (proj[x] == top_class) != (x in f):
            # unreachable for a genuine filter; guards the congruence code
            raise InternalCheckError(f"x/F = 1/F iff x in F failed at element {x}")
    return quotient, tuple(proj)


@dataclass(frozen=True)
class Homomorphism:
    """A verified BL-homomorphism given by its value table."""

    source: FiniteBLAlgebra
    target: FiniteBLAlgebra
    table: tuple[int, ...]


def _preservation_scan(
    t: Sequence[int], source_table: Table, target_table: Table
) -> tuple[int, int] | None:
    """The first pair (x, y) where ``t`` fails to carry one table to the other, or None."""
    for x, row in enumerate(source_table):
        tx = target_table[t[x]]
        for y, v in enumerate(row):
            if t[v] != tx[t[y]]:
                return (x, y)
    return None


def homomorphism(
    source: FiniteBLAlgebra, target: FiniteBLAlgebra, table: Sequence[int]
) -> Homomorphism:
    """Verify that ``table`` preserves all operations and constants."""
    try:
        t = tuple(map(index, table))
    except TypeError:
        raise NotAHomomorphismError("table has a non-integral entry") from None
    if len(t) != source.size or any(not (0 <= v < target.size) for v in t):
        raise NotAHomomorphismError("table has wrong shape")
    if t[source.bottom] != target.bottom or t[source.top] != target.top:
        raise NotAHomomorphismError("constants not preserved")
    names = ("meet", "join", "prod", "impl")
    for name, table_s, table_t in zip(names, _tables(source), _tables(target)):
        w = _preservation_scan(t, table_s, table_t)
        if w is not None:
            raise NotAHomomorphismError(f"{name} not preserved at ({w[0]}, {w[1]})")
    return Homomorphism(source, target, t)


def _tables(a: FiniteBLAlgebra) -> list[Table]:
    return [a.meet, a.join, a.prod, a.impl]


def diagonal_operator_table(algebra: FiniteBLAlgebra, which: int) -> tuple[int, ...]:
    """Operator table on algebra x algebra: (a,b) -> (a,a) or (b,b)."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    n = algebra.size
    out = []
    for i in range(n):
        for j in range(n):
            k = i if which == 1 else j
            out.append(k * n + k)
    return tuple(out)


def sigma_h_table(b: FiniteBLAlgebra, c: FiniteBLAlgebra, h: Homomorphism) -> tuple[int, ...]:
    """Operator table on b x c sending (x, y) to (x, h(x))."""
    if h.source is not b and not h.source.same_tables(b):
        raise NotAHomomorphismError("homomorphism source mismatch")
    if h.target is not c and not h.target.same_tables(c):
        raise NotAHomomorphismError("homomorphism target mismatch")
    out = []
    for i in range(b.size):
        for _j in range(c.size):
            out.append(i * c.size + h.table[i])
    return tuple(out)


def swap_table(a: FiniteBLAlgebra) -> tuple[int, ...]:
    """The coordinate swap (x, y) -> (y, x) on a x a."""
    n = a.size
    return tuple(j * n + i for i in range(n) for j in range(n))
