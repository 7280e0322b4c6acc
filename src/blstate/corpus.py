"""Built-in corpus of algebras and operators for the law suite.

Each instance packages a sealed algebra with its named operators (and,
for small carriers, the fully enumerated state-operator list), plus the
shape metadata that lets shape-specific claims run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .algebra import FiniteBLAlgebra, classify_variety
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


@dataclass(frozen=True)
class PinnedRejection:
    """Expected data for a catalogued negative operator instance."""

    operator: str
    element: int             # the witness element x
    sigma_of_square: int     # expected sigma(x*x)
    square_of_sigma: int     # expected sigma(x)*sigma(x)


@dataclass
class CorpusInstance:
    name: str
    algebra: FiniteBLAlgebra
    operators: dict[str, StateOperator] = field(default_factory=dict)
    rejected: dict[str, StateOperator] = field(default_factory=dict)
    states: dict[str, RationalState] = field(default_factory=dict)
    shape: ChainProductSum | None = None
    diag_base: FiniteBLAlgebra | None = None
    hom: Homomorphism | None = None
    pinned_rejection: PinnedRejection | None = None
    enumerated: tuple[StateOperator, ...] | None = None
    # (key, sources, pool) of the last ``pool()``; see there
    _pooled: tuple = field(default=(None, None, ()), init=False, repr=False, compare=False)

    @property
    def variety(self):
        return classify_variety(self.algebra)

    def pool(self) -> tuple[tuple[str, StateOperator], ...]:
        """Named verified operators plus any enumerated ones, deduplicated.

        The pool is built once and kept until ``operators`` or
        ``enumerated`` changes.  It is keyed by the names and the ids of
        the objects it was built from; it keeps those objects alive, so
        no id in the key can be reused by another object.
        """
        sources = (tuple(self.operators.values()), self.enumerated)
        key = (tuple(self.operators), tuple(map(id, sources[0])), id(self.enumerated))
        if self._pooled[0] != key:
            out = [(name, op) for name, op in self.operators.items() if op.is_state]
            seen = {op.table for _, op in out}
            for i, op in enumerate(self.enumerated or ()):
                if op.table not in seen:
                    out.append((f"enum_{i}", op))
                    seen.add(op.table)
            self._pooled = (key, sources, tuple(out))
        return self._pooled[2]


def _with_enumeration(inst: CorpusInstance) -> CorpusInstance:
    if inst.algebra.size <= ENUMERATION_LIMIT:
        inst.enumerated = tuple(enumerate_state_operators(inst.algebra))
    return inst


def _identity(algebra: FiniteBLAlgebra) -> StateOperator:
    return verify_operator(algebra, identity_table(algebra))


def _mv_instance(n: int) -> CorpusInstance:
    a = mv_chain(n)
    return _with_enumeration(
        CorpusInstance(name=f"mv_chain({n})", algebra=a, operators={"identity": _identity(a)})
    )


def _godel_instance(n: int) -> CorpusInstance:
    a = godel_chain(n)
    ops = {"identity": _identity(a)}
    seen = {ops["identity"].table}
    for x in range(a.size):
        t = godel_floor_table(a, x)
        if t not in seen:
            ops[f"sigma_le_{a.labels[x]}"] = verify_operator(a, t)
            seen.add(t)
    return _with_enumeration(CorpusInstance(name=f"godel_chain({n})", algebra=a, operators=ops))


def _diag_instance(name: str, base: FiniteBLAlgebra) -> CorpusInstance:
    a = direct_product(base, base)
    ops = {
        "identity": _identity(a),
        "sigma_diag_left": verify_operator(a, diagonal_operator_table(base, 1)),
        "sigma_diag_right": verify_operator(a, diagonal_operator_table(base, 2)),
    }
    return _with_enumeration(
        CorpusInstance(name=name, algebra=a, operators=ops, diag_base=base)
    )


def _shaped_instance(name: str, n: int, dims: tuple[int, ...]) -> CorpusInstance:
    shape = chain_product_sum(n, dims)
    a = shape.algebra
    ops = {"identity": _identity(a)}
    k = len(dims)
    for mask in range(1 << k):
        js = frozenset(i for i in range(k) if mask >> i & 1)
        suffix = "none" if not js else "".join(str(i + 1) for i in sorted(js))
        ops[f"sigma_J_{suffix}"] = verify_operator(a, sigma_j_table(shape, js))
    for x in shape.upper_ids:
        if a.prod[x][x] != x:
            continue
        t, covered = interval_collapse_table(a, x, shape.local_zero)
        if covered and t not in {op.table for op in ops.values()}:
            ops[f"sigma_cut_{a.labels[x]}"] = verify_operator(a, t)
    return _with_enumeration(
        CorpusInstance(name=name, algebra=a, operators=ops, shape=shape)
    )


def _example_3_4_instance() -> CorpusInstance:
    a, sigma = four_element_example()
    return _with_enumeration(
        CorpusInstance(
            name="example_3_4",
            algebra=a,
            operators={"identity": _identity(a), "sigma": verify_operator(a, sigma)},
        )
    )


def _s4xs4_instance() -> CorpusInstance:
    s4 = mv_chain(4)
    a = direct_product(s4, s4)
    cut = pair_index(s4, s4, 0, 4)
    table, covered = interval_collapse_table(a, cut, a.bottom)
    assert not covered
    rejected = verify_operator(a, table)
    # catalogued witness: x=(3,1), sigma(x*x)=(0,0) != (2,0)=sigma(x)*sigma(x)
    return CorpusInstance(
        name="s4xs4",
        algebra=a,
        operators={"identity": _identity(a)},
        rejected={"sigma_cut_(x0,x4)": rejected},
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
        "identity": _identity(a),
        "sigma_h_collapse": verify_operator(a, sigma_h_table(g3, g3, h)),
        "sigma_diag_left": verify_operator(a, diagonal_operator_table(g3, 1)),
        "sigma_diag_right": verify_operator(a, diagonal_operator_table(g3, 2)),
    }
    return _with_enumeration(
        CorpusInstance(name="godel3xgodel3", algebra=a, operators=ops, diag_base=g3)
    )


def _sigma_h_instance() -> CorpusInstance:
    # strictly monotone hom: nothing below the top collapses to the top,
    # which is what makes the graph operator's state algebra irreducible
    g3 = godel_chain(3)
    g4 = godel_chain(4)
    h = homomorphism(g3, g4, (0, 1, 3))
    a = direct_product(g3, g4)
    ops = {
        "identity": _identity(a),
        "sigma_h": verify_operator(a, sigma_h_table(g3, g4, h)),
    }
    return _with_enumeration(
        CorpusInstance(name="godel3xgodel4_h", algebra=a, operators=ops, hom=h)
    )


def default_corpus() -> tuple[CorpusInstance, ...]:
    """The built-in corpus, in deterministic order."""
    instances = [
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
    ]
    return tuple(instances)


def load_corpus_dir(path: str | Path) -> tuple[CorpusInstance, ...]:
    """Load a user corpus: every *.json algebra document in the directory."""
    from .document import parse_algebra, realize_document

    base = Path(path)
    files = sorted(base.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no .json documents in {base}")
    out = []
    for f in files:
        algebra, operators, states = realize_document(parse_algebra(f.read_text()))
        inst = CorpusInstance(name=f.stem, algebra=algebra)
        inst.operators["identity"] = _identity(algebra)
        for name, op in operators.items():
            if op.is_state:
                inst.operators[name] = op
            else:
                inst.rejected[name] = op
        inst.states = states
        out.append(_with_enumeration(inst))
    return tuple(out)
