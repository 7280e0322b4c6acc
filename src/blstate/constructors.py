"""Stock algebras and the canonical operator constructions on them.

Chains, products, ordinal sums and the four-element example are sealed
by ``verify_bl_axioms``, the independent check of the code that builds
their tables.  A k-ary product is built in one pass and sealed once,
and so is a k-ary ordinal sum, over its element layout
(``ordinal_summand_slices``).  A quotient is sealed by certificate: its
class map must respect every operation (``CONGRUENT``, decided by
``algebra.holds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


def _chain_size(n) -> int:
    try:
        return index(n)
    except TypeError:
        raise ValueError(f"chain size {n!r} is not an integer") from None


def mv_chain(n: int) -> FiniteBLAlgebra:
    """The (n+1)-element MV-chain x_0 < ... < x_n.

    prod(x_i, x_j) = x_{(i+j-n) v 0} and impl(x_i, x_j) = x_{(n-i+j) ^ n}.
    """
    n = _chain_size(n)
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
    n = _chain_size(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    labels = [f"g{i}" for i in range(n)]
    meet = [[min(i, j) for j in range(n)] for i in range(n)]
    join = [[max(i, j) for j in range(n)] for i in range(n)]
    prod = meet
    impl = [[n - 1 if i <= j else j for j in range(n)] for i in range(n)]
    return verify_bl_axioms(labels, meet, join, prod, impl, 0, n - 1)


def pair_index(a: FiniteBLAlgebra, b: FiniteBLAlgebra, i: int, j: int) -> int:
    """The row-major pairing of two factors: the id of (i, j) in a x b,
    as ``direct_product`` numbers its elements."""
    return i * b.size + j


def direct_product(*factors: FiniteBLAlgebra) -> FiniteBLAlgebra:
    """Componentwise product of one or more factors, built in one pass.

    The carrier is row-major (the last factor varies fastest), labeled
    as a left fold of binary products writes it, ``((x,y),z)``.  The
    tables are folded factor by factor, then sealed once.  One factor
    is returned as it is.
    """
    if not factors:
        raise ValueError("need at least one factor")
    first, *rest = factors
    if not rest:
        return first
    labels, tables = list(first.labels), _tables(first)
    bottom, top = first.bottom, first.top
    for b in rest:
        nb = b.size
        labels = [f"({x},{y})" for x in labels for y in b.labels]
        tables = [
            [[u * nb + v for u in ra for v in rb] for ra in ta for rb in tb]
            for ta, tb in zip(tables, _tables(b))
        ]
        bottom, top = bottom * nb + b.bottom, top * nb + b.top
    return verify_bl_axioms(labels, *tables, bottom, top)


def ordinal_sum(summands: Sequence[FiniteBLAlgebra]) -> FiniteBLAlgebra:
    """k-ary ordinal sum with the tops identified, built in one pass.

    All summands except possibly the last must be chains.  Element order
    (``ordinal_summand_slices``): summand 0's non-top elements first,
    then each later summand's non-top elements, global top last; labels
    ``s{i}.<label>``, then ``1``.  Two elements of one summand (the top
    lies in every summand) combine by its tables.  For x in a lower
    summand than y: meet = prod = x, join = y, x -> y = top, y -> x = x.
    The bottom is that of the first summand with more than one element.
    One summand is returned as it is.
    """
    if not summands:
        raise ValueError("need at least one summand")
    if len(summands) == 1:
        return summands[0]
    if not all(s.is_linear for s in summands[:-1]):
        raise NonLinearSummandError("a non-final ordinal summand must be linearly ordered")
    slices = ordinal_summand_slices(summands)
    top = slices[0][-1]
    # each summand's local element -> global id, and each global id -> (summand,
    # local element); the shared top is read in the last summand
    glob = [sl[: s.top] + [top] + sl[s.top : -1] for s, sl in zip(summands, slices)]
    where = [(i, x) for i, g in enumerate(glob) for x, v in enumerate(g) if v != top]
    where.append((len(summands) - 1, summands[-1].top))

    # lower summands hold lower ids, so across summands x is the lower id
    def table(op: str, across) -> list[list[int]]:
        rows = [getattr(s, op) for s in summands]
        return [
            [glob[i][rows[i][x][y]] if i == j else across(u, v) for v, (j, y) in enumerate(where)]
            for u, (i, x) in enumerate(where)
        ]

    labels = [f"s{i}.{summands[i].labels[x]}" for i, x in where[:-1]] + ["1"]
    bottom = next((g[s.bottom] for s, g in zip(summands, glob) if s.size > 1), top)
    return verify_bl_axioms(
        labels,
        table("meet", min),
        table("join", max),
        table("prod", min),
        table("impl", lambda u, v: top if u < v else v),
        bottom,
        top,
    )


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
    (cross-checked).  Raises ``NotAFilterError`` for any F that
    ``filters.all_filters`` does not list.  The quotient is sealed by
    certificate, not by re-deciding the BL laws: the class map must
    respect every operation (``CONGRUENT``), else ``InternalCheckError``,
    so the quotient is a homomorphic image of a BL-algebra.  It is built
    once per (algebra, F) and memoized on the algebra, so later calls
    return the same tuple.
    """
    return _sealed_quotient(algebra, frozenset(members))


def _congruent(k: int, a: FiniteBLAlgebra, t: Sequence[int]) -> bool:
    """The kernel of ``CONGRUENT`` on the k-th of meet, join, prod and impl:
    the flat table through t equals, row x after row x, t through row
    t[x], then through t."""
    rep = bytes(t)
    s = rep + bytes(256 - a.size)
    through = b"".join(map(rep.translate, map(a.padded_rows[k].__getitem__, rep)))
    return a.flat_rows[k].translate(s) == through.translate(s)


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
    from .filters import all_filters  # local import to avoid a cycle

    if f not in all_filters(algebra):
        raise NotAFilterError(f"not a filter: {sorted(f)}")

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
