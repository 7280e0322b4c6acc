"""Filters, radicals and the classification predicates.

Filters are plain ``frozenset[int]`` values over a sealed algebra's
carrier.  Deterministic orderings sort by (size, bit pattern) where the
bit pattern treats element ``i`` as bit ``i``.  Derived filter data is
memoized on the algebra (``algebra.memoized``) and freed with it.

A state-filter of (A, sigma) is a filter closed under the operator
table sigma (``state_filters``); with sigma the identity it is just a
filter.  So one implementation serves both: ``maximal_filters``,
``is_maximal_by_power_criterion`` and ``radical`` take an optional
table ``sigma``, and omitting it means the identity.

Two pairs of routes are kept on purpose as independent cross-checks
that must agree: the radical as an intersection of maximal filters vs
the co-infinitesimal formula (``radical_by_formula``, plain radical
only), and maximality by inclusion vs the power criterion
(``is_maximal_by_power_criterion``, on sigma-images for state-filters).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import itemgetter
from typing import Iterable, Sequence

from .algebra import FiniteBLAlgebra, INFINITE_ORDER, InternalCheckError, memoized

def subset_mask(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def filter_sort_key(members: frozenset[int]) -> tuple[int, int]:
    return (len(members), subset_mask(members))


def filter_violation(algebra: FiniteBLAlgebra, members: frozenset[int]):
    """None if ``members`` is a filter, else a short reason string."""
    if not members:
        return "empty set"
    if algebra.top not in members:
        return "top missing"
    if any(not (0 <= x < algebra.size) for x in members):
        return "element out of range"
    leq = algebra.leq
    for x in members:
        for y in members:
            if algebra.prod[x][y] not in members:
                return f"not closed under prod at ({x}, {y})"
        above = leq[x]
        for y in range(algebra.size):
            if above[y] and y not in members:
                return f"not upward closed at ({x}, {y})"
    return None


@memoized
def all_filters(algebra: FiniteBLAlgebra) -> tuple[frozenset[int], ...]:
    """Every filter, ordered by size then bit pattern.

    In a finite BL-algebra a filter contains the meet m of its members,
    m * m lies in it and below m, so m is idempotent and the filter is
    the upset of m; conversely the upset of an idempotent is a filter.
    The filters are therefore the upsets of the idempotents.  The test
    suite checks this against an exhaustive subset scan.
    """
    return tuple(
        sorted({algebra.upset(a) for a in algebra.idempotents}, key=filter_sort_key)
    )


@memoized
def state_filters(
    algebra: FiniteBLAlgebra, sigma: tuple[int, ...]
) -> tuple[frozenset[int], ...]:
    """Filters closed under the operator table ``sigma``."""
    return tuple(
        f for f in all_filters(algebra) if all(sigma[x] in f for x in f)
    )


def filter_generated(algebra: FiniteBLAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Least filter containing ``seed``: up-closure of finite products.

    A semi-naive closure: each round multiplies only the members found
    in the round before with every member (one ``itemgetter`` over the
    members per round) and joins their upsets, so every pair of members
    is multiplied in the round after the later of the two is found.  It
    is a plain closure under products and upsets and uses neither the
    Prop-5.4 formula nor the upsets of idempotents, so it stays an
    independent side of both cross-checks.  It works for any carrier
    size and stores nothing on the algebra.
    """
    members = set(seed)
    if not members:
        raise ValueError("seed must be nonempty")
    top = algebra.top
    members.add(top)
    prod, upsets = algebra.prod, algebra.upsets
    new = members
    while new:
        pick = itemgetter(top, *members)  # top repeats a member: always a tuple
        found = set()
        for x in new:
            found.update(pick(prod[x]))
            found |= upsets[x]
        new = found - members
        members |= new
    return frozenset(members)


def has_power_negation_in(algebra: FiniteBLAlgebra, members: frozenset[int], y: int) -> bool:
    """Whether (y^n)- lies in ``members`` for some n >= 1."""
    neg = algebra.neg_table
    return any(neg[p] in members for p in algebra.power_values(y))


def is_maximal_by_power_criterion(
    algebra: FiniteBLAlgebra, members: frozenset[int], sigma: tuple[int, ...] | None = None
) -> bool:
    """x not in F implies (sigma(x)^n)- in F for some n, for every element x.

    ``sigma`` is an operator table; omitted, it is the identity.
    """
    return all(
        x in members
        or has_power_negation_in(algebra, members, x if sigma is None else sigma[x])
        for x in range(algebra.size)
    )


@memoized
def maximal_filters(
    algebra: FiniteBLAlgebra, sigma: tuple[int, ...] | None = None
) -> tuple[frozenset[int], ...]:
    """Maximal proper (state-)filters, with the power-criterion cross-check.

    With an operator table ``sigma`` only the filters closed under it
    count (``state_filters``); omitted, every filter does.  Pass
    ``sigma`` positionally: the memo keys on positional arguments.
    """
    family = all_filters(algebra) if sigma is None else state_filters(algebra, sigma)
    everything = frozenset(range(algebra.size))
    proper = [f for f in family if f != everything]
    out = [f for f in proper if not any(f < g for g in proper)]
    for f in proper:
        if (f in out) != is_maximal_by_power_criterion(algebra, f, sigma):
            raise InternalCheckError(
                f"maximality criterion disagrees with inclusion order on {sorted(f)}"
            )
    return tuple(out)


def radical_by_formula(algebra: FiniteBLAlgebra) -> frozenset[int]:
    """Co-infinitesimals: x with (x^n)- <= x for every n >= 1."""
    out = set()
    for x in range(algebra.size):
        if all(algebra.le(algebra.neg(p), x) for p in algebra.power_values(x)):
            out.add(x)
    return frozenset(out)


@memoized
def radical(
    algebra: FiniteBLAlgebra, sigma: tuple[int, ...] | None = None
) -> frozenset[int]:
    """Intersection of the maximal (state-)filters (Rad, or Rad_sigma).

    Only the plain radical has a closed form, so only it is
    cross-checked against the co-infinitesimal formula.
    """
    # an explicit None would be a second memo entry of maximal_filters
    maxes = maximal_filters(algebra) if sigma is None else maximal_filters(algebra, sigma)
    inter = frozenset(range(algebra.size)).intersection(*maxes)
    if sigma is None:
        formula = radical_by_formula(algebra)
        if inter != formula:
            raise InternalCheckError(
                f"radical mismatch: intersection {sorted(inter)} vs formula {sorted(formula)}"
            )
    return inter


def is_primary(algebra: FiniteBLAlgebra, members: frozenset[int]) -> bool:
    """(a*b)- in P implies (a^n)- in P or (b^n)- in P for some n."""
    n = algebra.size
    return all(
        algebra.neg(algebra.prod[a][b]) not in members
        or has_power_negation_in(algebra, members, a)
        or has_power_negation_in(algebra, members, b)
        for a, b in iproduct(range(n), range(n))
    )


@dataclass(frozen=True)
class AlgebraClassification:
    simple: bool
    semisimple: bool
    local: bool
    perfect: bool
    locally_finite: bool
    radical: frozenset[int]
    radical_neg: frozenset[int]
    maximal_filters: tuple[frozenset[int], ...]
    perfect_witness: tuple[int, ...] | None = None


@memoized
def classify_algebra(algebra: FiniteBLAlgebra) -> AlgebraClassification:
    """All classification flags with their internal cross-checks.

    The one-element algebra is degenerate: it is reported as not simple
    (it has a single filter), not local, not locally finite and trivially
    semisimple; the equivalence cross-checks are skipped for it.
    """
    n = algebra.size
    everything = frozenset(range(n))
    filters = all_filters(algebra)
    maxes = tuple(maximal_filters(algebra))
    rad = radical(algebra)
    rad_neg = frozenset(algebra.neg(x) for x in rad)

    simple = len(filters) == 2
    semisimple = rad == frozenset({algebra.top})
    local = len(maxes) == 1
    locally_finite = all(
        algebra.ord_of(x) != INFINITE_ORDER for x in range(n) if x != algebra.top
    )

    perfect_witness = None
    perfect = True
    for x in range(n):
        if x not in rad and x not in rad_neg:
            perfect = False
            perfect_witness = (x,)
            break

    if n > 1:
        # local iff ord(x) or ord(x-) finite for every x
        ord_local = all(
            algebra.ord_of(x) != INFINITE_ORDER
            or algebra.ord_of(algebra.neg(x)) != INFINITE_ORDER
            for x in range(n)
        )
        if ord_local != local:
            raise InternalCheckError("local flag disagrees with the order criterion")
        if locally_finite != simple:
            raise InternalCheckError("locally finite and simple flags disagree")
        # local iff every proper filter is primary
        all_primary = all(
            is_primary(algebra, f) for f in filters if f != everything
        )
        if all_primary != local:
            raise InternalCheckError("local flag disagrees with the primary-filter criterion")
        # radical closure facts
        for x in rad_neg:
            if algebra.neg(x) not in rad:
                raise InternalCheckError("x in Rad- does not give x- in Rad")
        if perfect:
            for x in rad:
                for y in rad_neg:
                    if not algebra.le(algebra.neg(x), algebra.neg(y)):
                        raise InternalCheckError(
                            f"perfect-algebra negation comparison fails at ({x}, {y})"
                        )

    return AlgebraClassification(
        simple=simple,
        semisimple=semisimple,
        local=local,
        perfect=perfect,
        locally_finite=locally_finite,
        radical=rad,
        radical_neg=rad_neg,
        maximal_filters=maxes,
        perfect_witness=perfect_witness,
    )


def least_nontrivial(
    filters: Sequence[frozenset[int]], top: int
) -> frozenset[int] | None:
    """Unique minimum of the nontrivial members, or None."""
    trivial = frozenset({top})
    nontrivial = [f for f in filters if f != trivial]
    for f in nontrivial:
        if all(f <= g for g in nontrivial):
            return f
    return None


def subdirectly_irreducible(
    algebra: FiniteBLAlgebra, sigma=None
) -> tuple[bool, frozenset[int] | None]:
    """Whether the nontrivial (state-)filters have a unique minimum.

    With an operator table ``sigma`` only filters closed under it count.
    Returns the least nontrivial (state-)filter when it exists.
    """
    fams = state_filters(algebra, tuple(sigma)) if sigma is not None else all_filters(algebra)
    least = least_nontrivial(fams, algebra.top)
    return (least is not None, least)
