"""Rational-valued states: verification, extremal states, correspondences.

All arithmetic is exact; no floating point is used anywhere in this
module.  ``check_state`` converts a candidate map once to integer
numerators over one shared denominator (the lcm of its denominators)
and runs every scan on those integers.  ``fractions.Fraction`` is kept
at the edges: parsing input, ``RationalState`` values, error messages,
and the linear algebra of the correspondence checks.

The Bosbach and Riecan scans are kept on purpose as two independent
routes to "is a state" and must agree on every map; likewise the four
extremality criteria (state-morphism, max-join, Lukasiewicz product,
maximal kernel) must agree on every state.

Each map is checked once per object: a ``RationalState`` caches its
``check_state`` verdict on itself (``verdict``), and the library passes
state objects along (``extremal_states`` -> ``pulled_back_extremal_states``
-> the correspondence), so a state it built is never scanned again.
``check_state`` keeps no memo: nothing is remembered per value, so
memory does not grow with the number of distinct maps checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product as iproduct
from typing import Sequence

from .algebra import FiniteBLAlgebra, InternalCheckError, memoized
from .constructors import quotient_by_filter
from .filters import maximal_filters
from .operators import StateOperator, operator_image

ZERO = Fraction(0)
ONE = Fraction(1)


class NotAStateError(Exception):
    pass


@dataclass(frozen=True)
class RationalState:
    """One exact rational value in [0, 1] per carrier element."""

    algebra: FiniteBLAlgebra
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.algebra.size:
            raise ValueError("state must assign a value to every element")
        if any(v < 0 or v > 1 for v in self.values):
            raise ValueError("state values must lie in [0, 1]")

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    @cached_property
    def verdict(self) -> StateVerdict:
        """``check_state`` of these values, run on first read and kept
        on this object (and freed with it)."""
        return check_state(self.algebra, self.values)

    def __repr__(self) -> str:
        return "RationalState(" + ", ".join(format_fraction(v) for v in self.values) + ")"


def format_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# verdicts
#
# The scans below read a candidate map as integer numerators ``p`` over
# one shared denominator ``d`` (s(x) = p[x] / d, d > 0), so every test is
# an exact identity between integers: s(x) == 1 becomes p[x] == d, and
# 1 - s(x) + s(y) becomes d - p[x] + p[y].


def bosbach_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    """First failure of the Bosbach identities, or None."""
    if p[algebra.bottom] != 0:
        return ("bottom",)
    if p[algebra.top] != d:
        return ("top",)
    impl = algebra.impl
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[x] + p[impl[x][y]] != p[y] + p[impl[y][x]]:
            return (x, y)
    return None


def riecan_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    """First failure of additivity on orthogonal pairs, or None.

    Normalization: both s(0)=0 and s(1)=1 are required, so that the
    constant-zero map does not qualify and the Bosbach equivalence is
    well posed.
    """
    if p[algebra.bottom] != 0:
        return ("bottom",)
    if p[algebra.top] != d:
        return ("top",)
    prod, bottom = algebra.prod, algebra.bottom
    for x, y in iproduct(range(algebra.size), repeat=2):
        if prod[x][y] != bottom:  # x and y are not orthogonal
            continue
        if p[algebra.partial_sum(x, y)] != p[x] + p[y]:
            return (x, y)
    return None


def state_morphism_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    if p[algebra.bottom] != 0:
        return ("bottom",)
    impl = algebra.impl
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[impl[x][y]] != min(d - p[x] + p[y], d):
            return (x, y)
    return None


def max_join_witness(algebra: FiniteBLAlgebra, p: Sequence[int]):
    join = algebra.join
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[join[x][y]] != max(p[x], p[y]):
            return (x, y)
    return None


def luk_mult_witness(algebra: FiniteBLAlgebra, p: Sequence[int], d: int):
    prod = algebra.prod
    for x, y in iproduct(range(algebra.size), repeat=2):
        if p[prod[x][y]] != max(p[x] + p[y] - d, 0):
            return (x, y)
    return None


def kernel_is_maximal_filter(algebra: FiniteBLAlgebra, p: Sequence[int], d: int) -> bool:
    ker = frozenset(x for x in range(algebra.size) if p[x] == d)
    return ker in maximal_filters(algebra)


@dataclass(frozen=True)
class StateVerdict:
    bosbach: bool
    riecan: bool
    state_morphism: bool
    max_join: bool
    luk_mult: bool
    kernel_maximal: bool
    witnesses: tuple[tuple[str, tuple], ...]

    @property
    def is_state(self) -> bool:
        return self.bosbach

    @property
    def extremal(self) -> bool:
        """All four extremality criteria, which must agree for a state."""
        if not self.bosbach:
            return False
        votes = (self.state_morphism, self.max_join, self.luk_mult, self.kernel_maximal)
        if len(set(votes)) != 1:
            raise InternalCheckError(f"extremality criteria disagree: {votes}")
        return votes[0]


def check_state(algebra: FiniteBLAlgebra, values: Sequence[Fraction]) -> StateVerdict:
    """Exhaustive verdict over all pairs; asserts Bosbach iff Riecan.

    The values are converted once to integer numerators ``p`` over their
    least common denominator ``d``; all five scans and the kernel test
    run on those integers.
    """
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != algebra.size:
        raise ValueError("wrong number of values")
    d = math.lcm(*(v.denominator for v in vals))
    p = tuple(v.numerator * (d // v.denominator) for v in vals)
    wb = bosbach_witness(algebra, p, d)
    wr = riecan_witness(algebra, p, d)
    if (wb is None) != (wr is None):
        raise InternalCheckError(
            f"Bosbach/Riecan verdicts disagree: bosbach={wb} riecan={wr} values={vals}"
        )
    wm = state_morphism_witness(algebra, p, d)
    wj = max_join_witness(algebra, p)
    wl = luk_mult_witness(algebra, p, d)
    km = kernel_is_maximal_filter(algebra, p, d)
    witnesses = tuple(
        (name, w)
        for name, w in (
            ("bosbach", wb),
            ("riecan", wr),
            ("state_morphism", wm),
            ("max_join", wj),
            ("luk_mult", wl),
        )
        if w is not None
    )
    return StateVerdict(
        bosbach=wb is None,
        riecan=wr is None,
        state_morphism=wm is None,
        max_join=wj is None,
        luk_mult=wl is None,
        kernel_maximal=km,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# extremal states via maximal-filter quotients


@memoized
def extremal_states(algebra: FiniteBLAlgebra) -> tuple[RationalState, ...]:
    """One extremal state per maximal filter, in filter order.

    The quotient by a maximal filter is simple, hence a linear chain;
    ranking its elements embeds it into the rationals as i/k.  Each
    resulting state is cross-checked to pass all extremality criteria
    (its ``verdict``, which stays cached on it), and distinct filters
    must give distinct states.  The tuple is memoized on the algebra.
    """
    if algebra.size < 2:
        raise ValueError("need at least two elements")
    out: list[RationalState] = []
    for f in maximal_filters(algebra):
        quotient, proj = quotient_by_filter(algebra, f)
        if not quotient.is_linear:
            raise InternalCheckError("maximal-filter quotient is not a chain")
        order = sorted(range(quotient.size), key=lambda c: sum(quotient.leq[c]), reverse=True)
        rank = {c: i for i, c in enumerate(order)}
        k = quotient.size - 1
        st = RationalState(algebra, tuple(Fraction(rank[proj[x]], k) for x in range(algebra.size)))
        if not st.verdict.extremal:
            raise InternalCheckError("quotient state failed an extremality criterion")
        if any(st.values == other.values for other in out):
            raise InternalCheckError("distinct maximal filters produced equal states")
        out.append(st)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact linear algebra helpers


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
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    row = [ZERO] * n
    row[algebra.bottom] = ONE
    rows.append(row)
    rhs.append(ZERO)
    row = [ZERO] * n
    row[algebra.top] = ONE
    rows.append(row)
    rhs.append(ONE)
    for x, y in iproduct(range(n), repeat=2):
        row = [ZERO] * n
        row[x] += 1
        row[algebra.impl[x][y]] += 1
        row[y] -= 1
        row[algebra.impl[y][x]] -= 1
        if any(v != 0 for v in row):
            rows.append(row)
            rhs.append(ZERO)
    solved = solve_linear(rows, rhs)
    if solved is None:
        raise InternalCheckError("Bosbach system inconsistent on a sealed algebra")
    return solved


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


# ---------------------------------------------------------------------------
# pulling states through an operator


def pull_back_state(
    op: StateOperator, image_state: RationalState | Sequence[Fraction]
) -> RationalState:
    """Compose a state on the image subalgebra with the operator.

    The input is a ``RationalState`` on the image or its values, indexed
    by the image algebra (ascending fixed points).  A state object on the
    image is checked through its cached ``verdict``; raw values, or a
    state on another algebra object, are checked here.
    The result is verified to be a state on the full algebra; when the
    operator is a morphism operator and the input is extremal, the
    result is verified extremal.  When the image is the carrier itself
    (``operator_image``), the pull-back is the input state, returned as
    it is.
    """
    image, pos, fixed = operator_image(op)
    if isinstance(image_state, RationalState) and image_state.algebra is image:
        src, verdict = image_state, image_state.verdict
    else:
        if isinstance(image_state, RationalState):  # on another algebra object
            image_state = image_state.values
        vals = tuple(Fraction(v) for v in image_state)
        verdict = check_state(image, vals)
        src = None  # a non-state need not lie in [0, 1], so wrap only a state
    if not verdict.is_state:
        raise NotAStateError(f"input is not a state on the image: {verdict.witnesses}")
    if src is None:
        src = RationalState(image, vals)
        src.__dict__["verdict"] = verdict  # the cached_property's slot
    if image is op.algebra:
        pulled = src
    else:
        pulled = RationalState(
            op.algebra, tuple(src.values[pos[op.table[x]]] for x in range(op.algebra.size))
        )
        if not pulled.verdict.is_state:
            raise InternalCheckError("pull-back of a state failed the state identities")
    if op.is_morphism and src.verdict.extremal and not pulled.verdict.extremal:
        raise InternalCheckError("pull-back of an extremal state lost extremality")
    return pulled


def is_compatible(op: StateOperator, state: RationalState) -> bool:
    """Constant on operator fibers: sigma(x)=sigma(y) implies s(x)=s(y)."""
    by_image: dict[int, Fraction] = {}
    for x in range(op.algebra.size):
        v = by_image.setdefault(op.table[x], state.values[x])
        if v != state.values[x]:
            return False
    return True


@dataclass(frozen=True)
class CorrespondenceReport:
    image_extremal: tuple[RationalState, ...]
    compatible_extremal: tuple[RationalState, ...]
    round_trip_ok: bool
    affine_ok: bool
    extremal_independent: bool

    @property
    def bijection_ok(self) -> bool:
        return self.round_trip_ok and self.affine_ok and self.extremal_independent


def state_to_image(op: StateOperator, state: RationalState) -> tuple[Fraction, ...]:
    """Restrict a compatible state to the image subalgebra."""
    image, pos, fixed = operator_image(op)
    return tuple(state.values[orig] for orig in fixed)


@memoized
def pulled_back_extremal_states(op: StateOperator) -> tuple[RationalState, ...]:
    """The image's extremal states pulled back through the operator.

    One ``pull_back_state`` per extremal state of the image subalgebra,
    in ``extremal_states`` order; the tuple is memoized on the operator.
    """
    image, _, _ = operator_image(op)
    return tuple(pull_back_state(op, s) for s in extremal_states(image))


def sigma_compatible_correspondence(
    algebra: FiniteBLAlgebra, op: StateOperator
) -> CorrespondenceReport:
    """Certify the affine bijection between compatible states and image states.

    Both directions are computed from their definitions: pushing a
    compatible state down to the image and pulling an image state back
    through the operator.  The check covers the extremal generators, a
    deterministic set of rational mixtures, and the affine behaviour of
    both maps.  Topological content is out of scope: this certifies the
    bijection and its affineness on finite data only.  The report
    depends on the operator alone (``algebra`` is its carrier) and is
    memoized on it.
    """
    return _correspondence(op)


@memoized
def _correspondence(op: StateOperator) -> CorrespondenceReport:
    image, pos, fixed = operator_image(op)
    image_ext = extremal_states(image)
    pulled = pulled_back_extremal_states(op)
    for st in pulled:
        if not is_compatible(op, st):
            raise InternalCheckError("pull-back is not compatible with the operator")

    round_trip = all(
        state_to_image(op, st) == src.values for st, src in zip(pulled, image_ext)
    )

    # mixtures: uniform and a lopsided pair mix, exercised through both maps
    weights_menu: list[list[Fraction]] = []
    k = len(image_ext)
    if k >= 1:
        weights_menu.append([Fraction(1, k)] * k)
    if k >= 2:
        w = [ZERO] * k
        w[0], w[1] = Fraction(1, 3), Fraction(2, 3)
        weights_menu.append(w)
    affine_ok = True
    for weights in weights_menu:
        mixed_image = mix_states(image_ext, weights)
        mixed_pulled = mix_states(pulled, weights)
        direct = pull_back_state(op, mixed_image)
        if direct.values != mixed_pulled.values:
            affine_ok = False
        if state_to_image(op, mixed_pulled) != mixed_image.values:
            affine_ok = False
        if not is_compatible(op, mixed_pulled):
            affine_ok = False

    independent = True
    for i in range(len(pulled)):
        others = [tuple(s.values) for j, s in enumerate(pulled) if j != i]
        if others and convex_coefficients(others, tuple(pulled[i].values)) is not None:
            independent = False
    return CorrespondenceReport(
        image_extremal=image_ext,
        compatible_extremal=pulled,
        round_trip_ok=round_trip,
        affine_ok=affine_ok,
        extremal_independent=independent,
    )
