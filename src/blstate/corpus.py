"""Built-in corpus of algebras and operators for the law suite.

Each instance packages a sealed algebra with its named operators (and,
for small carriers, the fully enumerated state-operator list), plus the
shape metadata that lets shape-specific claims run.  ``_instance`` is
the one builder, for the built-in corpus and ``load_corpus_dir`` alike,
and an instance is a frozen value: its maps are read-only copies of
those it is given, and its pool is built once, on first use, and
memoized on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .algebra import FiniteBLAlgebra, memoized
from .constructors import (
    Homomorphism,
    diagonal_operator_table,
    direct_product,
    four_element_example,
    godel_chain,
    homomorphism,
    mv_chain,
    pair_index,
    sigma_h_table,
)
from .document import parse_algebra, realize_document
from .operators import (
    StateOperator,
    chain_product_sum,
    ChainProductSum,
    enumerate_state_operators,
    godel_floor_table,
    identity_table,
    interval_collapse_table,
    sigma_j_table,
    verify_operator,
)
from .states import RationalState

# carriers up to this size get their state operators fully enumerated
ENUMERATION_LIMIT = 9

_EMPTY = MappingProxyType({})  # the default of ``_instance``'s maps


@dataclass(frozen=True)
class PinnedRejection:
    """Expected data for a catalogued negative operator instance."""

    operator: str
    element: int             # the witness element x
    sigma_of_square: int     # expected sigma(x*x)
    square_of_sigma: int     # expected sigma(x)*sigma(x)


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    algebra: FiniteBLAlgebra
    operators: Mapping[str, StateOperator] = field(default_factory=dict)
    rejected: Mapping[str, StateOperator] = field(default_factory=dict)
    states: Mapping[str, RationalState] = field(default_factory=dict)
    shape: ChainProductSum | None = None
    diag_base: FiniteBLAlgebra | None = None
    hom: Homomorphism | None = None
    pinned_rejection: PinnedRejection | None = None
    enumerated: tuple[StateOperator, ...] | None = None

    def __post_init__(self):
        for name in ("operators", "rejected", "states"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @memoized
    def pool(self) -> tuple[tuple[str, StateOperator], ...]:
        """Named verified operators plus any enumerated ones, deduplicated.

        Built on the first call and memoized on the instance, which is
        frozen, so the pool is never stale; ``dataclasses.replace``
        makes a new instance, which builds its own.
        """
        out = [(name, op) for name, op in self.operators.items() if op.is_state]
        seen = {op.table for _, op in out}
        for i, op in enumerate(self.enumerated or ()):
            if op.table not in seen:
                out.append((f"enum_{i}", op))
                seen.add(op.table)
        return tuple(out)


def _instance(
    name: str, algebra: FiniteBLAlgebra, named: Mapping[str, StateOperator] = _EMPTY,
    states: Mapping[str, RationalState] = _EMPTY, **metadata,
) -> CorpusInstance:
    """The one builder: the identity first, then the ``named`` operators,
    graded into ``operators`` or ``rejected`` by ``is_state``, and every
    state operator of a carrier of at most ``ENUMERATION_LIMIT`` elements."""
    operators, rejected = {"identity": verify_operator(algebra, identity_table(algebra))}, {}
    for key, op in named.items():
        (operators if op.is_state else rejected)[key] = op
    enumerated = None
    if algebra.size <= ENUMERATION_LIMIT:
        enumerated = tuple(enumerate_state_operators(algebra))
    return CorpusInstance(
        name, algebra, operators, rejected, states, enumerated=enumerated, **metadata
    )


def _mv_instance(n: int) -> CorpusInstance:
    return _instance(f"mv_chain({n})", mv_chain(n))


def _godel_instance(n: int) -> CorpusInstance:
    a = godel_chain(n)
    floors = {}  # table -> the name of its first floor
    for x in range(a.size):
        floors.setdefault(godel_floor_table(a, x), f"sigma_le_{a.labels[x]}")
    del floors[identity_table(a)]
    return _instance(f"godel_chain({n})", a, {f: verify_operator(a, t) for t, f in floors.items()})


def _diag_instance(name: str, base: FiniteBLAlgebra) -> CorpusInstance:
    a = direct_product(base, base)
    ops = {
        "sigma_diag_left": verify_operator(a, diagonal_operator_table(base, 1)),
        "sigma_diag_right": verify_operator(a, diagonal_operator_table(base, 2)),
    }
    return _instance(name, a, ops, diag_base=base)


def _shaped_instance(name: str, n: int, dims: tuple[int, ...]) -> CorpusInstance:
    shape = chain_product_sum(n, dims)
    a = shape.algebra
    ops = {}
    k = len(dims)
    for mask in range(1 << k):
        js = frozenset(i for i in range(k) if mask >> i & 1)
        suffix = "none" if not js else "".join(str(i + 1) for i in sorted(js))
        ops[f"sigma_J_{suffix}"] = verify_operator(a, sigma_j_table(shape, js))
    for x in shape.upper_ids:
        if a.prod[x][x] != x:
            continue
        t, covered = interval_collapse_table(a, x, shape.local_zero)
        if covered and t not in {identity_table(a), *(op.table for op in ops.values())}:
            ops[f"sigma_cut_{a.labels[x]}"] = verify_operator(a, t)
    return _instance(name, a, ops, shape=shape)


def _example_3_4_instance() -> CorpusInstance:
    a, sigma = four_element_example()
    return _instance("example_3_4", a, {"sigma": verify_operator(a, sigma)})


def _s4xs4_instance() -> CorpusInstance:
    # 25 elements: above the enumeration limit
    s4 = mv_chain(4)
    a = direct_product(s4, s4)
    cut = pair_index(s4, s4, 0, 4)
    table, covered = interval_collapse_table(a, cut, a.bottom)
    assert not covered
    # catalogued witness: x=(3,1), sigma(x*x)=(0,0) != (2,0)=sigma(x)*sigma(x)
    return _instance(
        "s4xs4",
        a,
        {"sigma_cut_(x0,x4)": verify_operator(a, table)},
        pinned_rejection=PinnedRejection(
            operator="sigma_cut_(x0,x4)",
            element=pair_index(s4, s4, 3, 1),
            sigma_of_square=pair_index(s4, s4, 0, 0),
            square_of_sigma=pair_index(s4, s4, 2, 0),
        ),
    )


def _godel_product_instance() -> CorpusInstance:
    # the collapsing graph operator is a fine state-morphism operator but
    # its state algebra is NOT subdirectly irreducible (the hom flattens a
    # nontrivial filter), so no `hom` metadata is attached here
    g3 = godel_chain(3)
    h = homomorphism(g3, g3, (0, 2, 2))
    a = direct_product(g3, g3)
    ops = {
        "sigma_h_collapse": verify_operator(a, sigma_h_table(g3, g3, h)),
        "sigma_diag_left": verify_operator(a, diagonal_operator_table(g3, 1)),
        "sigma_diag_right": verify_operator(a, diagonal_operator_table(g3, 2)),
    }
    return _instance("godel3xgodel3", a, ops, diag_base=g3)


def _sigma_h_instance() -> CorpusInstance:
    # strictly monotone hom: nothing below the top collapses to the top,
    # which is what makes the graph operator's state algebra irreducible
    g3 = godel_chain(3)
    g4 = godel_chain(4)
    h = homomorphism(g3, g4, (0, 1, 3))
    a = direct_product(g3, g4)
    sigma_h = verify_operator(a, sigma_h_table(g3, g4, h))
    return _instance("godel3xgodel4_h", a, {"sigma_h": sigma_h}, hom=h)


def default_corpus() -> tuple[CorpusInstance, ...]:
    """The built-in corpus, in deterministic order."""
    return (
        *(_mv_instance(n) for n in range(1, 6)),
        *(_godel_instance(n) for n in range(3, 6)),
        _example_3_4_instance(),
        _diag_instance("s1xs1", mv_chain(1)),
        _diag_instance("mv2xmv2", mv_chain(2)),
        _shaped_instance("s1_plus_s1xs1", 1, (1, 1)),
        _shaped_instance("s1_plus_s2xs1", 1, (2, 1)),
        _s4xs4_instance(),
        _godel_product_instance(),
        _sigma_h_instance(),
    )


def load_corpus_dir(path: str | Path) -> tuple[CorpusInstance, ...]:
    """Load a user corpus: every *.json algebra document in the directory."""
    base = Path(path)
    files = sorted(base.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no .json documents in {base}")
    return tuple(
        _instance(f.stem, *realize_document(parse_algebra(f.read_text()))) for f in files
    )
