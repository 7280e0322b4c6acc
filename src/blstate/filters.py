"""Filters, radicals and the classification predicates.

Filters are plain ``frozenset[int]`` values over a sealed algebra's
carrier.  Deterministic orderings sort by (size, bit pattern) where the
bit pattern treats element ``i`` as bit ``i``.  Derived filter data is
memoized on the algebra (``algebra.memoized``) and freed with it.
``all_filters`` is the one test of filter-ness: ``quotient_by_filter``
refuses every set that it does not list.

A state-filter of (A, sigma) is a filter closed under the operator
table sigma (``state_filters``); with sigma the identity it is just a
filter.  So one implementation serves both: ``filter_generated_masks``,
``maximal_filters``, ``is_maximal_by_power_criterion`` and ``radical``
take an optional table ``sigma``, and omitting it means the identity.
The generated (state-)filter is read off that memoized family, held as
bitmasks (bit ``i`` for element ``i``, ``filter_masks``): it is the
meet of the members that contain the seed (``filter_generated_masks``).
The Prop-5.4 formulas in ``operators`` are the independent route it is
checked against.

Two pairs of routes are kept on purpose as independent cross-checks
that must agree: the radical as an intersection of maximal filters vs
the co-infinitesimal formula (``radical_by_formula``, plain radical
only), and maximality by inclusion vs the power criterion
(``is_maximal_by_power_criterion``, on sigma-images for state-filters).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Sequence

from .algebra import FiniteBLAlgebra, INFINITE_ORDER, InternalCheckError, memoized

def subset_mask(members: Iterable[int]) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def mask_members(mask: int) -> frozenset[int]:
    """The elements whose bits are set in ``mask``."""
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def filter_sort_key(members: frozenset[int]) -> tuple[int, int]:
    return (len(members), subset_mask(members))


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


@memoized
def filter_masks(
    algebra: FiniteBLAlgebra, sigma: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """``all_filters`` (or ``state_filters`` under ``sigma``) as bitmasks.

    Pass ``sigma`` positionally: the memo keys on positional arguments.
    """
    family = all_filters(algebra) if sigma is None else state_filters(algebra, sigma)
    return tuple(map(subset_mask, family))


def filter_generated_masks(
    algebra: FiniteBLAlgebra, seeds: Iterable[int], sigma: tuple[int, ...] | None = None
) -> list[int]:
    """Least (state-)filter containing each seed bitmask, read off the filter lattice.

    The (state-)filters of a finite BL-algebra are closed under
    intersection and include the whole carrier, so the least one
    containing a seed is the meet (bitwise and) of the members of the
    memoized family that contain it.  The seeds are not validated; an
    empty one gives the least member.
    """
    family = filter_masks(algebra) if sigma is None else filter_masks(algebra, sigma)
    out = []
    for seed in seeds:
        meet = -1
        for f in family:
            if seed & f == seed:
                meet &= f
        out.append(meet)
    return out


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
    """(a*b)- in P implies (a^n)- in P or (b^n)- in P for some n.

    Each element's power-negation reach into P is computed once; the law
    can only fail on a pair where neither element reaches P, so only
    those pairs test (a*b)- in P.
    """
    unreached = [
        x for x in range(algebra.size) if not has_power_negation_in(algebra, members, x)
    ]
    neg, prod = algebra.neg_table, algebra.prod
    return all(neg[prod[a][b]] not in members for a, b in iproduct(unreached, repeat=2))


@dataclass(frozen=True)
class AlgebraClassification:
    simple: bool
    semisimple: bool
    local: bool
    perfect: bool
    locally_finite: bool
    radical: frozenset[int]
    maximal_filters: tuple[frozenset[int], ...]


@memoized
def classify_algebra(algebra: FiniteBLAlgebra) -> AlgebraClassification:
    """All classification flags with their internal cross-checks.

    The one-element algebra is degenerate: it is reported as not simple
    (it has a single filter) and not local (it has no proper filter),
    but locally finite (no element other than the top exists), and
    trivially semisimple and perfect; the equivalence cross-checks are
    skipped for it.
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
    orders = algebra.orders
    locally_finite = all(orders[x] != INFINITE_ORDER for x in range(n) if x != algebra.top)

    perfect = all(x in rad or x in rad_neg for x in range(n))

    if n > 1:
        # local iff ord(x) or ord(x-) finite for every x
        ord_local = all(
            orders[x] != INFINITE_ORDER or orders[algebra.neg(x)] != INFINITE_ORDER
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
        maximal_filters=maxes,
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
