"""Claims registry and deterministic suite runner.

Every algebraic law the workbench certifies has a stable claim id (the
README lists the full catalog).  A suite run produces one record per
(claim, instance); reports are byte-identical across runs because
records are emitted in (claim, instance) order and timings are excluded
unless explicitly requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from time import perf_counter
from typing import Callable, Iterable, Sequence

from .algebra import FiniteBLAlgebra, INFINITE_ORDER, InternalCheckError, memoized
from .constructors import preservation_witness, quotient_by_filter, swap_table
from .corpus import CorpusInstance
from .filters import (
    all_filters,
    classify_algebra,
    is_maximal_by_power_criterion,
    is_primary,
    maximal_filters,
    radical,
    radical_by_formula,
    state_filters,
    subdirectly_irreducible,
)
from .operators import (
    StateOperator,
    classify_state_algebra,
    enumerate_operator_tables,
    godel_floor_table,
    godel_strict_floor_table,
    interval_collapse_table,
    identity_table,
    mv_equivalence_check,
    operator_image,
    sigma_j_table,
    state_filter_generated,
    state_filter_generated_ext,
    verify_operator,
)
from .states import (
    RationalState,
    check_state,
    convex_coefficients,
    extremal_states,
    mix_states,
    pull_back_state,
    pulled_back_extremal_states,
    sigma_compatible_correspondence,
)

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    witness: str = ""


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    applies: Callable[[CorpusInstance], bool]
    check: Callable[[CorpusInstance], CheckResult]


@dataclass(frozen=True)
class SuiteRecord:
    claim_id: str
    instance: str
    verdict: str
    witness: str
    elapsed: float


@dataclass
class SuiteReport:
    records: list[SuiteRecord]

    @property
    def failures(self) -> list[SuiteRecord]:
        return [r for r in self.records if r.verdict == FAIL]

    @property
    def discrepancies(self) -> list[SuiteRecord]:
        return [r for r in self.records if r.verdict == DISCREPANCY]


# ---------------------------------------------------------------------------
# helpers


@memoized
def _state_classification(op: StateOperator):
    return classify_state_algebra(op.algebra, op)


def _lbl(algebra: FiniteBLAlgebra, x: int) -> str:
    return algebra.labels[x]


def _pool(inst: CorpusInstance, min_class: str = "state"):
    for name, op in inst.pool():
        if min_class == "strong" and not op.is_strong:
            continue
        if min_class == "morphism" and not op.is_morphism:
            continue
        yield name, op


def _over_pool(inst: CorpusInstance, fn, min_class: str = "state") -> CheckResult:
    """fn(algebra, op) -> witness string or None; first failure wins."""
    for name, op in _pool(inst, min_class):
        w = fn(inst.algebra, op)
        if w:
            return CheckResult(FAIL, f"{name}: {w}")
    return CheckResult(PASS)


def _bool_result(ok: bool, witness: str = "") -> CheckResult:
    return CheckResult(PASS if ok else FAIL, "" if ok else witness)


def _leq_pairs(a: FiniteBLAlgebra):
    return [(x, y) for x in range(a.size) for y in range(a.size) if a.le(x, y)]


def _sample_states(inst: CorpusInstance) -> list[RationalState]:
    """Deterministic states for state-level claims: extremal + mixtures
    + any document-supplied state vectors."""
    a = inst.algebra
    ext = extremal_states(a)
    out = list(ext)
    if len(ext) >= 2:
        out.append(mix_states(ext, _uniform_weights(len(ext))))
        w = [Fraction(0)] * len(ext)
        w[0], w[1] = Fraction(1, 4), Fraction(3, 4)
        out.append(mix_states(ext, w))
    for values in inst.states.values():
        out.append(RationalState(a, tuple(values)))
    return out


def _uniform_weights(k: int) -> list[Fraction]:
    return [Fraction(1, k)] * k


# ---------------------------------------------------------------------------
# section 2 claims


def _prop_2_2_1(inst):
    a = inst.algebra
    pairs = _leq_pairs(a)
    leq = a.leq
    for x, y in pairs:
        px, py = a.prod[x], a.prod[y]
        for c, d in pairs:
            if not leq[px[c]][py[d]]:
                return _bool_result(False, f"monotonicity of prod at {x},{y},{c},{d}")
    return _bool_result(True)


def _prop_2_2_2(inst):
    a = inst.algebra
    for (x, y) in _leq_pairs(a):
        for c in range(a.size):
            if not a.le(a.impl[c][x], a.impl[c][y]):
                return _bool_result(False, f"monotonicity of impl at {c},{x},{y}")
    return _bool_result(True)


def _prop_2_2_3(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        if a.impl[x][a.neg(y)] != a.neg(a.prod[x][y]):
            return _bool_result(False, f"a->b- = (a*b)- fails at {x},{y}")
    return _bool_result(True)


def _prop_2_2_4(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        if a.impl[x][a.meet[x][y]] != a.impl[x][y]:
            return _bool_result(False, f"a->(a^b) = a->b fails at {x},{y}")
    return _bool_result(True)


def _prop_2_2_5(inst):
    a = inst.algebra
    for x, y, c in iproduct(range(a.size), repeat=3):
        if not a.le(a.impl[x][y], a.impl[a.prod[x][c]][a.prod[y][c]]):
            return _bool_result(False, f"a->b <= a*c->b*c fails at {x},{y},{c}")
    return _bool_result(True)


def _prop_2_2_6(inst):
    # the residuation law a->(b->c) = (a*b)->c
    a = inst.algebra
    for x, y, c in iproduct(range(a.size), repeat=3):
        if a.impl[x][a.impl[y][c]] != a.impl[a.prod[x][y]][c]:
            return _bool_result(False, f"residuation law fails at {x},{y},{c}")
    return _bool_result(True)


def _s2_orthogonality(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        c1 = a.le(a.neg(a.neg(x)), a.neg(y))
        c2 = a.le(x, a.neg(y))
        c3 = a.prod[x][y] == a.bottom
        if not (c1 == c2 == c3):
            return _bool_result(False, f"orthogonality forms disagree at {x},{y}")
    return _bool_result(True)


def _s2_partial_sum(inst):
    a = inst.algebra
    for x, y in iproduct(range(a.size), repeat=2):
        if a.orthogonal(x, y) and a.partial_sum(x, y) != a.partial_sum(y, x):
            return _bool_result(False, f"partial sum not symmetric at {x},{y}")
    return _bool_result(True)


def _thm_2_5(inst):
    for st in _sample_states(inst):
        verdict = check_state(inst.algebra, st.values)
        try:
            verdict.extremal  # raises if the four criteria disagree
        except InternalCheckError as exc:
            return _bool_result(False, str(exc))
    for st in extremal_states(inst.algebra):
        if not check_state(inst.algebra, st.values).extremal:
            return _bool_result(False, f"quotient state not extremal: {st}")
    return _bool_result(True)


def _prop_2_6(inst):
    a = inst.algebra
    everything = frozenset(range(a.size))
    maxes = set(maximal_filters(a))
    for f in all_filters(a):
        if f == everything:
            continue
        if (f in maxes) != is_maximal_by_power_criterion(a, f):
            return _bool_result(False, f"criterion mismatch on {sorted(f)}")
    return _bool_result(True)


def _prop_2_7(inst):
    a = inst.algebra
    everything = frozenset(range(a.size))
    local = len(maximal_filters(a)) == 1
    all_primary = all(is_primary(a, f) for f in all_filters(a) if f != everything)
    return _bool_result(local == all_primary, f"local={local} all_primary={all_primary}")


def _prop_2_8(inst):
    a = inst.algebra
    local = len(maximal_filters(a)) == 1
    crit = all(
        a.ord_of(x) != INFINITE_ORDER or a.ord_of(a.neg(x)) != INFINITE_ORDER
        for x in range(a.size)
    )
    return _bool_result(local == crit, f"local={local} ord_criterion={crit}")


def _rem_2_9(inst):
    a = inst.algebra
    for f in all_filters(a):
        quotient, proj = quotient_by_filter(a, f)  # raises if not a congruence
        top_class = proj[a.top]
        for x in range(a.size):
            if (proj[x] == top_class) != (x in f):
                return _bool_result(False, f"x/F=1/F iff x in F fails at {_lbl(a, x)}")
    return _bool_result(True)


def _prop_2_10(inst):
    a = inst.algebra
    maxes = maximal_filters(a)
    inter = frozenset.intersection(*maxes) if maxes else frozenset(range(a.size))
    formula = radical_by_formula(a)
    return _bool_result(
        inter == formula, f"intersection={sorted(inter)} formula={sorted(formula)}"
    )


def _rem_2_11(inst):
    a = inst.algebra
    rad = radical(a)
    rad_neg = frozenset(a.neg(x) for x in rad)
    for x in rad_neg:
        if a.neg(x) not in rad:
            return _bool_result(False, f"neg closure (reverse) fails at {_lbl(a, x)}")
    return _bool_result(True)


def _cor_2_12(inst):
    cls = classify_algebra(inst.algebra)
    a = inst.algebra
    if not cls.perfect:
        return CheckResult(PASS, "not perfect; vacuous")
    for x in cls.radical:
        for y in cls.radical_neg:
            if not a.le(a.neg(x), a.neg(y)):
                return _bool_result(False, f"x-<=y- fails at {_lbl(a,x)},{_lbl(a,y)}")
    return _bool_result(True)


def _prop_2_13(inst):
    a = inst.algebra
    everything = frozenset(range(a.size))
    for f in all_filters(a):
        if f == everything:
            continue
        quotient, _ = quotient_by_filter(a, f)
        q_local = len(maximal_filters(quotient)) == 1
        if is_primary(a, f) != q_local:
            return _bool_result(False, f"primary/local mismatch for {sorted(f)}")
    return _bool_result(True)


def _lemma_2_14(inst):
    cls = classify_algebra(inst.algebra)
    if cls.locally_finite != cls.simple:
        return _bool_result(False, f"locally_finite={cls.locally_finite} simple={cls.simple}")
    if cls.simple and not inst.algebra.is_linear:
        return _bool_result(False, "simple algebra is not linear")
    return _bool_result(True)


def _rem_2_15(inst):
    # each maximal-filter quotient gives a rational state-morphism
    for st in extremal_states(inst.algebra):
        verdict = check_state(inst.algebra, st.values)
        if not verdict.state_morphism:
            return _bool_result(False, f"projection is not a state-morphism: {st}")
    return _bool_result(True)


# ---------------------------------------------------------------------------
# section 3 claims: operator properties


def _l35_a(a, op):
    return None if op.table[a.top] == a.top else "sigma(top) != top"


def _l35_b(a, op):
    for x in range(a.size):
        if op.table[a.neg(x)] != a.neg(op.table[x]):
            return f"negation at {_lbl(a, x)}"
    return None


def _l35_c(a, op):
    for x, y in _leq_pairs(a):
        if not a.le(op.table[x], op.table[y]):
            return f"monotone at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_d(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        p = a.prod[x][y]
        if not a.le(a.prod[t[x]][t[y]], t[p]):
            return f"prod bound at {_lbl(a,x)},{_lbl(a,y)}"
        if p == a.bottom and t[p] != a.prod[t[x]][t[y]]:
            return f"prod equality (orthogonal) at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_e(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        lhs = t[a.ominus(x, y)]
        rhs = a.prod[t[x]][a.neg(t[y])]
        if not a.le(rhs, lhs):
            return f"ominus bound at {_lbl(a,x)},{_lbl(a,y)}"
        if a.le(x, y) and lhs != rhs:
            return f"ominus equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_f(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        if t[a.meet[x][y]] != a.prod[t[x]][t[a.impl[x][y]]]:
            return f"meet identity at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_g(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        lhs = t[a.impl[x][y]]
        rhs = a.impl[t[x]][t[y]]
        if not a.le(lhs, rhs):
            return f"impl bound at {_lbl(a,x)},{_lbl(a,y)}"
        if a.comparable(x, y) and lhs != rhs:
            return f"impl equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_h(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        lhs = a.prod[t[a.impl[x][y]]][t[a.impl[y][x]]]
        if not a.le(lhs, a.dist(t[x], t[y])):
            return f"distance bound at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_i(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        s = a.oplus(x, y)
        if not a.le(t[s], a.oplus(t[x], t[y])):
            return f"oplus bound at {_lbl(a,x)},{_lbl(a,y)}"
        if s == a.top and a.oplus(t[x], t[y]) != a.top:
            return f"oplus equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_j(a, op):
    for x in range(a.size):
        if op.table[op.table[x]] != op.table[x]:
            return f"idempotence at {_lbl(a, x)}"
    return None


def _l35_k(a, op):
    image = frozenset(op.table)
    if a.bottom not in image or a.top not in image:
        return "image misses a bound"
    for table in (a.meet, a.join, a.prod, a.impl):
        for x, y in iproduct(sorted(image), repeat=2):
            if table[x][y] not in image:
                return f"image not closed at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_l(a, op):
    if frozenset(op.table) != frozenset(op.fixed_points):
        return "image differs from fixed points"
    return None


def _l35_m(a, op):
    if a.size == 1:
        return None
    rad = radical(a)
    for x in range(a.size):
        o = a.ord_of(x)
        if o == INFINITE_ORDER:
            continue
        if a.ord_of(op.table[x]) > o:
            return f"order grows at {_lbl(a, x)}"
        if op.table[x] in rad:
            return f"finite-order image inside the radical at {_lbl(a, x)}"
    return None


def _l35_n(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        fwd = t[a.impl[x][y]] == a.impl[t[x]][t[y]]
        bwd = t[a.impl[y][x]] == a.impl[t[y]][t[x]]
        if fwd != bwd:
            return f"impl-preservation symmetry at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_o(a, op):
    if frozenset(op.table) == frozenset(range(a.size)) and op.table != identity_table(a):
        return "surjective but not the identity"
    return None


def _l35_p(a, op):
    if not op.is_faithful:
        return None
    for x, y in _leq_pairs(a):
        if x != y and not (a.le(op.table[x], op.table[y]) and op.table[x] != op.table[y]):
            return f"strict monotonicity at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l35_q(a, op):
    if not op.is_faithful:
        return None
    for x in range(a.size):
        if op.table[x] != x and a.comparable(op.table[x], x):
            return f"comparable displacement at {_lbl(a, x)}"
    return None


def _l35_r(a, op):
    if op.is_faithful and a.is_linear and op.table != identity_table(a):
        return "faithful operator on a chain is not the identity"
    return None


LEMMA_3_5 = {
    "a": _l35_a, "b": _l35_b, "c": _l35_c, "d": _l35_d, "e": _l35_e, "f": _l35_f,
    "g": _l35_g, "h": _l35_h, "i": _l35_i, "j": _l35_j, "k": _l35_k, "l": _l35_l,
    "m": _l35_m, "n": _l35_n, "o": _l35_o, "p": _l35_p, "q": _l35_q, "r": _l35_r,
}


def _l39_a(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        if a.le(a.neg(x), y) and t[a.prod[x][y]] != a.prod[t[x]][t[y]]:
            return f"strong prod equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l39_b(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        if a.comparable(x, y) and t[a.ominus(x, y)] != a.prod[t[x]][a.neg(t[y])]:
            return f"strong ominus equality at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l39_c(a, op):
    t = op.table
    for x in range(a.size):
        if t[a.prod[x][t[a.neg(x)]]] != t[a.prod[a.neg(x)][t[x]]]:
            return f"swap identity at {_lbl(a, x)}"
    return None


def _l310_1(a, op):
    t = op.table
    for x, y in iproduct(range(a.size), repeat=2):
        impl_eq = t[a.impl[x][y]] == a.impl[t[x]][t[y]]
        meet_eq = t[a.meet[x][y]] == a.meet[t[x]][t[y]]
        if impl_eq != meet_eq:
            return f"pointwise impl/meet equivalence at {_lbl(a,x)},{_lbl(a,y)}"
    return None


def _l310_2(a, op):
    pres_impl = preservation_witness(op.table, a.impl, a.impl) is None
    pres_join = preservation_witness(op.table, a.join, a.join) is None
    if pres_impl != pres_join:
        return f"global impl/join equivalence: impl={pres_impl} join={pres_join}"
    return None


def _l310_3(a, op):
    t = op.table
    if preservation_witness(t, a.impl, a.impl) is None:
        if preservation_witness(t, a.prod, a.prod) is not None:
            return "impl-preserving but not prod-preserving"
        if any(preservation_witness(t, tb, tb) is not None for tb in (a.meet, a.join)):
            return "impl-preserving but not an endomorphism"
    return None


def _lemma_3_11(inst):
    a = inst.algebra
    for name, op in _pool(inst):
        if preservation_witness(op.table, a.impl, a.impl) is not None:
            return CheckResult(FAIL, f"{name}: does not preserve impl on a chain")
        if op.is_strong and preservation_witness(op.table, a.prod, a.prod) is not None:
            return CheckResult(FAIL, f"{name}: strong but does not preserve prod")
    return CheckResult(PASS)


def _prop_3_8_3_16(inst):
    for name, op in list(inst.operators.items()) + list(inst.rejected.items()):
        if op.is_morphism and not op.is_strong:
            return CheckResult(FAIL, f"{name}: morphism but not strong")
        if op.is_strong and not op.is_state:
            return CheckResult(FAIL, f"{name}: strong but not state")
    return CheckResult(PASS)


def _prop_3_13(inst):
    import random

    a = inst.algebra
    rng = random.Random(20240801)
    samples = [op.table for _, op in _pool(inst)]
    for _ in range(40):
        samples.append(tuple(rng.randrange(a.size) for _ in range(a.size)))
    for t in samples:
        try:
            report = mv_equivalence_check(a, t)
        except InternalCheckError as exc:
            return CheckResult(FAIL, str(exc))
        if report.bl_state and not report.additive_on_orthogonal:
            return CheckResult(FAIL, f"additivity fails for {t}")
    return CheckResult(PASS)


# ---------------------------------------------------------------------------
# section 4 claims


def _ops_for_structure(inst: CorpusInstance):
    if inst.enumerated is not None:
        return [(f"enum_{i}", op) for i, op in enumerate(inst.enumerated)]
    return list(_pool(inst))


def _lemma_4_2(inst):
    shape = inst.shape
    upper = set(shape.upper_ids)
    for name, op in _ops_for_structure(inst):
        for c in shape.chain_ids:
            if op.table[c] != c:
                return CheckResult(FAIL, f"{name}: does not fix the bottom chain at {c}")
        for u in shape.upper_ids:
            if op.table[u] not in upper:
                return CheckResult(FAIL, f"{name}: leaves the top summand at {u}")
    return CheckResult(PASS)


def _lemma_4_3(inst):
    shape = inst.shape
    a = inst.algebra
    k = len(shape.dims)
    tables = {}
    for mask in range(1 << k):
        js = frozenset(i for i in range(k) if mask >> i & 1)
        t = sigma_j_table(shape, js)
        op = verify_operator(a, t)
        if not (op.is_morphism and op.preserves_impl):
            return CheckResult(FAIL, f"sigma_J {sorted(js)} is not an impl-preserving morphism")
        expected_ker = a.upset(shape.idempotent_of_subset(frozenset(range(k)) - js))
        if op.kernel != expected_ker:
            return CheckResult(FAIL, f"sigma_J {sorted(js)} kernel mismatch")
        tables[js] = t
    if len(set(tables.values())) != 1 << k:
        return CheckResult(FAIL, "sigma_J family is not pairwise distinct")
    if inst.enumerated is not None and len(inst.enumerated) < (1 << k):
        return CheckResult(FAIL, "fewer state operators than the sigma_J family")
    return CheckResult(PASS)


def _lemma_4_4(inst):
    shape = inst.shape
    a = inst.algebra
    full = sigma_j_table(shape, frozenset(range(len(shape.dims))))
    for x in shape.upper_ids:
        if a.prod[x][x] != x:
            continue
        t, covered = interval_collapse_table(a, x, shape.local_zero)
        if covered:
            op = verify_operator(a, t)
            if not (op.is_morphism and op.preserves_impl):
                return CheckResult(
                    FAIL, f"covered collapse at {_lbl(a, x)} is not a morphism operator"
                )
    low, covered = interval_collapse_table(a, shape.local_zero, shape.local_zero)
    if not covered or low != full:
        return CheckResult(FAIL, "collapse at the local zero differs from the full sigma_J")
    return CheckResult(PASS)


def _rem_4_5(inst):
    a = inst.algebra
    for name, op in inst.rejected.items():
        if op.verified_class != "none":
            return CheckResult(FAIL, f"{name}: expected rejection, got {op.verified_class}")
    pin = inst.pinned_rejection
    if pin is not None:
        op = inst.rejected[pin.operator]
        x = pin.element
        xx = a.prod[x][x]
        got_sq = op.table[xx]
        got_prod = a.prod[op.table[x]][op.table[x]]
        if got_sq != pin.sigma_of_square or got_prod != pin.square_of_sigma:
            return CheckResult(FAIL, f"pinned witness mismatch at {_lbl(a, x)}")
        if got_sq == got_prod:
            return CheckResult(FAIL, "pinned witness does not separate the two sides")
    return CheckResult(PASS)


def _prop_4_9(inst):
    a = inst.algebra
    for name, op in _ops_for_structure(inst):
        if not op.is_state:
            continue
        if any(preservation_witness(op.table, tb, tb) is not None for tb in (a.prod, a.impl)):
            return CheckResult(FAIL, f"{name}: not an endomorphism on a chain")
        if any(op.table[op.table[x]] != op.table[x] for x in range(a.size)):
            return CheckResult(FAIL, f"{name}: not idempotent")
    if inst.enumerated is not None and a.size <= 6:
        endos = enumerate_operator_tables(a, "endomorphism")
        idem = {t for t in endos if all(t[t[x]] == t[x] for x in range(a.size))}
        states = {op.table for op in inst.enumerated}
        if idem != states:
            return CheckResult(FAIL, "state operators differ from idempotent endomorphisms")
    return CheckResult(PASS)


def _prop_4_10(inst):
    a = inst.algebra
    for name, op in _pool(inst):
        for table in (a.meet, a.join, a.prod, a.impl):
            if preservation_witness(op.table, table, table) is not None:
                return CheckResult(FAIL, f"{name}: not an endomorphism on x^2=x carrier")
    return CheckResult(PASS)


def _ex_4_11(inst):
    a = inst.algebra
    family = {godel_floor_table(a, x) for x in range(a.size)}
    family |= {godel_strict_floor_table(a, x) for x in range(1, a.size)}
    enumerated = {op.table for op in inst.enumerated}
    if enumerated != family:
        return CheckResult(
            FAIL, f"family size {len(family)} differs from enumerated {len(enumerated)}"
        )
    return CheckResult(PASS)


def _prop_4_12(inst):
    tables = [op.table for op in inst.enumerated]
    if tables != [identity_table(inst.algebra)]:
        return CheckResult(FAIL, f"{len(tables)} operators on a locally finite carrier")
    return CheckResult(PASS)


# ---------------------------------------------------------------------------
# section 5 claims


def _ex_5_2(inst):
    a = inst.algebra
    left = inst.operators["sigma_diag_left"]
    right = inst.operators["sigma_diag_right"]
    for name, op in (("sigma_diag_left", left), ("sigma_diag_right", right)):
        irr, least = subdirectly_irreducible(a, op.table)
        if not irr:
            return CheckResult(FAIL, f"{name}: not subdirectly irreducible")
        if least != op.kernel:
            return CheckResult(FAIL, f"{name}: least state-filter is not the kernel")
    if a.is_linear:
        return CheckResult(FAIL, "product carrier should not be linear")
    swap = swap_table(inst.diag_base)
    composed = tuple(swap[left.table[swap[x]]] for x in range(a.size))
    if composed != right.table:
        return CheckResult(FAIL, "swap does not interchange the two diagonal operators")
    return CheckResult(PASS)


def _ex_5_3(inst):
    a = inst.algebra
    op = inst.operators["sigma_h"]
    b, c = inst.hom.source, inst.hom.target
    expected_ker = frozenset(b.top * c.size + j for j in range(c.size))
    if op.kernel != expected_ker:
        return CheckResult(FAIL, "kernel is not {1} x C")
    if not op.is_morphism:
        return CheckResult(FAIL, "sigma_h is not a morphism operator")
    irr, least = subdirectly_irreducible(a, op.table)
    if not irr:
        return CheckResult(FAIL, "not subdirectly irreducible")
    _, least_c = subdirectly_irreducible(c)
    expected_least = frozenset(b.top * c.size + j for j in least_c)
    if least != expected_least:
        return CheckResult(FAIL, "least state-filter is not {1} x F_C")
    return CheckResult(PASS)


def _prop_5_4(inst):
    a = inst.algebra
    everything = frozenset(range(a.size))
    for name, op in _pool(inst):
        try:
            for x in range(a.size):
                state_filter_generated(a, op, {x})
            for x, y in iproduct(range(a.size), repeat=2):
                if x < y:
                    state_filter_generated(a, op, {x, y})
            for f in state_filters(a, op.table):
                if f == everything:
                    continue
                for elem in range(a.size):
                    if elem not in f:
                        state_filter_generated_ext(a, op, f, elem)
            maximal_filters(a, op.table)  # includes the criterion cross-check
        except InternalCheckError as exc:
            return CheckResult(FAIL, f"{name}: {exc}")
    return CheckResult(PASS)


def _thm_5_5(inst):
    a = inst.algebra
    for name, op in _pool(inst):
        irr, _ = subdirectly_irreducible(a, op.table)
        if irr:
            image, _, _ = operator_image(op)
            if not image.is_linear:
                return CheckResult(FAIL, f"{name}: irreducible but image not linear")
        if op.is_faithful:
            image, _, _ = operator_image(op)
            image_irr, _ = subdirectly_irreducible(image)
            if irr != image_irr:
                return CheckResult(
                    FAIL, f"{name}: faithful irreducibility mismatch ({irr} vs {image_irr})"
                )
    return CheckResult(PASS)


def _check_named(inst, names, min_class="state", require=None):
    """Evaluate classification checks with the given names over the pool."""
    for op_name, op in _pool(inst, min_class):
        if require is not None and not require(op):
            continue
        cls = _state_classification(op)
        for outcome in cls.checks:
            if outcome.claim in names:
                if outcome.holds is False:
                    return CheckResult(FAIL, f"{op_name}: {outcome.claim} ({outcome.witness})")
                if outcome.holds is None:
                    return CheckResult(
                        DISCREPANCY, f"{op_name}: {outcome.claim} ({outcome.witness})"
                    )
    return CheckResult(PASS)


def _prop_5_7(inst):
    return _check_named(
        inst, {"radical-image-inclusion", "radical-image-equality-strong"}
    )


def _prop_5_8(inst):
    a = inst.algebra
    for name, op in _pool(inst):
        for f in maximal_filters(a, op.table):
            quotient, proj = quotient_by_filter(a, f)
            coinfinitesimal = radical_by_formula(quotient)
            for elem in range(a.size):
                if proj[op.table[elem]] in coinfinitesimal and op.table[elem] not in f:
                    return CheckResult(
                        FAIL, f"{name}: co-infinitesimal image outside {sorted(f)}"
                    )
    return CheckResult(PASS)


def _prop_5_9(inst):
    a = inst.algebra
    for name, op in _pool(inst):
        image, pos, fixed = operator_image(op)
        image_max = set(maximal_filters(image))
        max_state = set(maximal_filters(a, op.table))
        for i_filter in state_filters(a, op.table):
            sig_i = frozenset(op.table[x] for x in i_filter)
            if sig_i != i_filter & frozenset(fixed):
                return CheckResult(FAIL, f"{name}: sigma(I) != I n sigma(A)")
            as_image = frozenset(pos[x] for x in sig_i)
            if as_image not in all_filters(image):
                return CheckResult(FAIL, f"{name}: sigma(I) is not a filter of the image")
            if i_filter in max_state and as_image not in image_max:
                return CheckResult(FAIL, f"{name}: sigma(I) loses maximality")
        for j_filter in all_filters(image):
            j_orig = frozenset(fixed[z] for z in j_filter)
            preimage = frozenset(x for x in range(a.size) if op.table[x] in j_orig)
            if preimage not in state_filters(a, op.table):
                return CheckResult(FAIL, f"{name}: preimage is not a state-filter")
            if frozenset(op.table[x] for x in preimage) != j_orig:
                return CheckResult(FAIL, f"{name}: preimage does not restrict back")
            if j_filter in image_max and preimage not in max_state:
                return CheckResult(FAIL, f"{name}: preimage loses maximality")
    return CheckResult(PASS)


def _prop_5_10(inst):
    return _check_named(inst, {"radical-sigma-identity"})


# ---------------------------------------------------------------------------
# section 6 claims


def _prop_6_1(inst):
    # the extremal image states are pulled back once per operator; the
    # uniform mixture of them is pulled back here
    for name, op in _pool(inst):
        try:
            pulled_back_extremal_states(op)
            image, _, _ = operator_image(op)
            ext = extremal_states(image)
            if len(ext) >= 2:
                pull_back_state(op, mix_states(ext, _uniform_weights(len(ext))).values)
        except InternalCheckError as exc:
            return CheckResult(FAIL, f"{name}: {exc}")
    return CheckResult(PASS)


def _prop_6_2(inst):
    a = inst.algebra
    for name, op in _pool(inst, "morphism"):
        for pulled in pulled_back_extremal_states(op):
            if not check_state(a, pulled.values).extremal:
                return CheckResult(FAIL, f"{name}: pulled extremal state is not extremal")
    return CheckResult(PASS)


def _thm_6_4(inst):
    for name, op in _pool(inst):
        report = sigma_compatible_correspondence(inst.algebra, op)
        if not report.bijection_ok:
            return CheckResult(FAIL, f"{name}: correspondence fails")
    return CheckResult(PASS)


def _cor_6_5(inst):
    # finite-instance content only: compatible mixtures lie in the hull
    # of the extremal compatible states (no topology is certified)
    for name, op in _pool(inst):
        report = sigma_compatible_correspondence(inst.algebra, op)
        points = [st.values for st in report.compatible_extremal]
        k = len(points)
        mixtures = [report.compatible_extremal[0].values] if k == 1 else []
        if k >= 2:
            mixtures.append(
                mix_states(list(report.compatible_extremal), _uniform_weights(k)).values
            )
        for target in mixtures:
            if convex_coefficients(points, target) is None:
                return CheckResult(FAIL, f"{name}: mixture escapes the hull")
    return CheckResult(PASS)


# ---------------------------------------------------------------------------
# section 7 claims


def _thm_7_3(inst):
    return _check_named(inst, {"simple-iff-kernel-maximal"}, "morphism")


def _thm_7_5(inst):
    return _check_named(inst, {"semisimple-iff-radical-in-kernel"}, "morphism")


def _thm_7_6(inst):
    return _check_named(inst, {"perfect-iff-radical-faithful-and-image-perfect"})


def _thm_7_8(inst):
    return _check_named(
        inst,
        {"local-iff-image-local"},
        "morphism",
        require=lambda op: _state_classification(op).radical_faithful,
    )


def _thm_7_9(inst):
    return _check_named(
        inst,
        {"simple-iff-local-and-kernel-radical"},
        "morphism",
        require=lambda op: _state_classification(op).radical_faithful,
    )


# ---------------------------------------------------------------------------
# registry


def _always(inst: CorpusInstance) -> bool:
    return True


def _is_mv(inst):
    return inst.variety.is_mv


def _is_linear(inst):
    return inst.algebra.is_linear


def _is_godel(inst):
    return inst.variety.is_godel


def _is_shaped(inst):
    return inst.shape is not None


def _is_locally_finite(inst):
    return inst.enumerated is not None and classify_algebra(inst.algebra).locally_finite


def _has_rejected(inst):
    return bool(inst.rejected)


def _has_diag(inst):
    return (
        inst.diag_base is not None
        and "sigma_diag_left" in inst.operators
        and "sigma_diag_right" in inst.operators
        and classify_algebra(inst.diag_base).simple
    )


def _has_hom(inst):
    return inst.hom is not None and "sigma_h" in inst.operators


def _is_linear_godel(inst):
    return inst.algebra.is_linear and inst.variety.is_godel and inst.enumerated is not None


def build_registry() -> list[Claim]:
    claims: list[Claim] = []

    def add(cid, desc, applies, check):
        claims.append(Claim(cid, desc, applies, check))

    add("Prop-2.2-1", "prod is monotone in both arguments", _always, _prop_2_2_1)
    add("Prop-2.2-2", "impl is monotone in its second argument", _always, _prop_2_2_2)
    add("Prop-2.2-3", "a->b- equals (a*b)-", _always, _prop_2_2_3)
    add("Prop-2.2-4", "a->(a^b) equals a->b", _always, _prop_2_2_4)
    add("Prop-2.2-5", "a->b <= (a*c)->(b*c)", _always, _prop_2_2_5)
    add("Prop-2.2-6", "residuation law a->(b->c) = (a*b)->c", _always, _prop_2_2_6)
    add("S2-orthogonality", "three orthogonality forms coincide", _always, _s2_orthogonality)
    add("S2-partial-sum", "partial sum is symmetric on orthogonal pairs", _always, _s2_partial_sum)
    add("Thm-2.5", "four extremality criteria agree on sampled states", _always, _thm_2_5)
    add("Prop-2.6", "maximal filters match the power criterion", _always, _prop_2_6)
    add("Prop-2.7", "local iff every proper filter is primary", _always, _prop_2_7)
    add("Prop-2.8", "local iff ord(x) or ord(x-) is finite", _always, _prop_2_8)
    add("Rem-2.9", "filter quotients are congruences with x/F=1/F iff x in F", _always, _rem_2_9)
    add("Prop-2.10", "radical equals the co-infinitesimal set", _always, _prop_2_10)
    add("Rem-2.11", "radical and its negation set are negation-linked", _always, _rem_2_11)
    add("Cor-2.12", "perfect algebras compare negations across the split", _always, _cor_2_12)
    add("Prop-2.13", "P primary iff the quotient by P is local", _always, _prop_2_13)
    add("Lemma-2.14", "locally finite iff simple (and then linear)", _always, _lemma_2_14)
    add("Rem-2.15", "maximal-filter quotients give extremal state-morphisms", _always, _rem_2_15)

    for key, fn in LEMMA_3_5.items():
        add(
            f"Lemma-3.5-{key}",
            f"state-operator fact ({key})",
            _always,
            (lambda f: lambda inst: _over_pool(inst, f))(fn),
        )
    for key, fn in (("a", _l39_a), ("b", _l39_b), ("c", _l39_c)):
        add(
            f"Lemma-3.9-{key}",
            f"strong-operator fact ({key})",
            _always,
            (lambda f: lambda inst: _over_pool(inst, f, "strong"))(fn),
        )
    add("Lemma-3.10-1", "pointwise impl equality iff meet equality",
        _always, lambda inst: _over_pool(inst, _l310_1))
    add("Lemma-3.10-2", "global impl preservation iff join preservation",
        _always, lambda inst: _over_pool(inst, _l310_2))
    add("Lemma-3.10-3", "impl preservation makes an endomorphism",
        _always, lambda inst: _over_pool(inst, _l310_3))
    add("Lemma-3.11", "operators on chains preserve impl; strong ones preserve prod",
        _is_linear, _lemma_3_11)
    add("Prop-3.8", "strong operators are state operators", _always, _prop_3_8_3_16)
    add("Prop-3.16", "morphism operators are strong", _always, _prop_3_8_3_16)
    add("Prop-3.13", "MV and BL operator axioms agree; MV state ops are strong",
        _is_mv, _prop_3_13)

    add("Lemma-4.2", "operators fix the bottom chain and keep the top summand",
        _is_shaped, _lemma_4_2)
    add("Lemma-4.3", "the 2^k coordinate-cap operators are distinct morphisms",
        _is_shaped, _lemma_4_3)
    add("Lemma-4.4", "covered interval collapses are morphism operators",
        _is_shaped, _lemma_4_4)
    add("Rem-4.5", "the catalogued uncovered collapse is rejected with its witness",
        _has_rejected, _rem_4_5)
    add("Prop-4.9", "operators on chains are idempotent endomorphisms",
        _is_linear, _prop_4_9)
    add("Prop-4.10", "operators on x^2=x carriers are endomorphisms",
        _is_godel, _prop_4_10)
    add("Ex-4.11", "floor collapses exhaust the operators on Godel chains",
        _is_linear_godel, _ex_4_11)
    add("Prop-4.12", "the identity is the only operator on locally finite carriers",
        _is_locally_finite, _prop_4_12)

    add("Ex-5.2", "diagonal operators give irreducible non-linear state algebras",
        _has_diag, _ex_5_2)
    add("Ex-5.3", "graph operators of homomorphisms have kernel {1} x C",
        _has_hom, _ex_5_3)
    add("Prop-5.4", "generated state-filters match the closure formula",
        _always, _prop_5_4)
    add("Thm-5.5", "irreducible state algebras have linear images",
        _always, _thm_5_5)
    add("Prop-5.7", "image radical sits inside the operator image of the radical",
        _always, _prop_5_7)
    add("Prop-5.8", "co-infinitesimal images belong to maximal state-filters",
        _always, _prop_5_8)
    add("Prop-5.9", "state-filters correspond to image filters", _always, _prop_5_9)
    add("Prop-5.10", "sigma of the state radical is the image radical",
        _always, _prop_5_10)

    add("Prop-6.1", "states on the image pull back to states", _always, _prop_6_1)
    add("Prop-6.2", "extremal states pull back extremally through morphisms",
        _always, _prop_6_2)
    add("Thm-6.4", "compatible states correspond affinely to image states",
        _always, _thm_6_4)
    add("Cor-6.5", "compatible mixtures stay inside the extremal hull",
        _always, _cor_6_5)

    add("Thm-7.3", "simple iff the kernel is a maximal filter", _always, _thm_7_3)
    add("Thm-7.5", "semisimple iff the radical sits inside the kernel", _always, _thm_7_5)
    add("Thm-7.6", "perfect iff radical-faithful with perfect image", _always, _thm_7_6)
    add("Thm-7.8", "local iff the image is local (radical-faithful morphisms)",
        _always, _thm_7_8)
    add("Thm-7.9", "simple iff local with kernel equal to the radical", _always, _thm_7_9)
    return claims


REGISTRY = build_registry()
CLAIM_IDS = tuple(c.claim_id for c in REGISTRY)


# ---------------------------------------------------------------------------
# runner


def run_suite(
    corpus: Sequence[CorpusInstance],
    claim_ids: Iterable[str] | None = None,
    *,
    workers: int = 1,
) -> SuiteReport:
    """Run (claim, instance) tasks one after another, in stable order."""
    # ``workers`` stays only for perfbench, which passes workers=1; drop both together
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    wanted = set(claim_ids) if claim_ids is not None else None
    if wanted is not None:
        unknown = wanted - set(CLAIM_IDS)
        if unknown:
            raise KeyError(f"unknown claim ids: {sorted(unknown)}")
    tasks = [
        (claim, inst)
        for claim in REGISTRY
        if wanted is None or claim.claim_id in wanted
        for inst in corpus
        if claim.applies(inst)
    ]

    def run_one(pair):
        claim, inst = pair
        start = perf_counter()
        try:
            result = claim.check(inst)
        except InternalCheckError as exc:
            result = CheckResult(FAIL, f"internal cross-check: {exc}")
        return SuiteRecord(
            claim_id=claim.claim_id,
            instance=inst.name,
            verdict=result.verdict,
            witness=result.witness,
            elapsed=perf_counter() - start,
        )

    records = [run_one(t) for t in tasks]
    records.sort(key=lambda r: (r.claim_id, r.instance))
    return SuiteReport(records)


def _shown(report: SuiteReport, keep_going: bool):
    """The records to render, whether rendering stopped at the first
    failure, and the verdict counts of the rendered records."""
    shown, stopped = report.records, False
    if not keep_going:
        for i, r in enumerate(shown):
            if r.verdict == FAIL:
                shown, stopped = shown[: i + 1], True
                break
    counts = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
    for r in shown:
        counts[r.verdict] += 1
    return shown, stopped, counts


def render_text(report: SuiteReport, keep_going: bool = True, timings: bool = False) -> str:
    shown, stopped, counts = _shown(report, keep_going)
    lines = []
    for r in shown:
        suffix = f" [{r.elapsed:.3f}s]" if timings else ""
        witness = f": {r.witness}" if r.witness else ""
        lines.append(f"{r.verdict.upper():11s} {r.claim_id} @ {r.instance}{witness}{suffix}")
    summary = (
        f"# {len(shown)} records: {counts[PASS]} pass, {counts[FAIL]} fail, "
        f"{counts[DISCREPANCY]} discrepancy"
    )
    if stopped:
        summary += " (stopped at first failure)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(report: SuiteReport, keep_going: bool = True, timings: bool = False) -> str:
    shown, stopped, counts = _shown(report, keep_going)
    records = []
    for r in shown:
        entry = {
            "claim": r.claim_id,
            "instance": r.instance,
            "verdict": r.verdict,
            "witness": r.witness,
        }
        if timings:
            entry["elapsed"] = round(r.elapsed, 6)
        records.append(entry)
    payload = {
        "format": "blstate-suite/1",
        "records": records,
        "summary": {
            "records": len(records),
            "pass": counts[PASS],
            "fail": counts[FAIL],
            "discrepancy": counts[DISCREPANCY],
            "stopped_early": stopped,
        },
    }
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"
