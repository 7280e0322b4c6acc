"""Workbench for finite BL-algebras with internal state operators."""

from .algebra import (
    AxiomViolation,
    BLAxiomError,
    FiniteBLAlgebra,
    INFINITE_ORDER,
    InternalCheckError,
    NoResiduumError,
    VarietyFlags,
    classify_variety,
    residuum_from_monoid,
    verify_bl_axioms,
)
from .constructors import (
    Homomorphism,
    NonLinearSummandError,
    NotAFilterError,
    NotAHomomorphismError,
    diagonal_operator_table,
    direct_product,
    four_element_example,
    godel_chain,
    homomorphism,
    mv_chain,
    ordinal_sum,
    quotient_by_filter,
    sigma_h_table,
)
from .filters import (
    AlgebraClassification,
    all_filters,
    classify_algebra,
    maximal_filters,
    radical,
    state_filters,
    subdirectly_irreducible,
)
from .operators import (
    ChainProductSum,
    StateOperator,
    chain_product_sum,
    classify_state_algebra,
    enumerate_operator_tables,
    enumerate_state_operators,
    interval_collapse_table,
    operator_image,
    sigma_j_table,
    verify_operator,
)
from .states import (
    RationalState,
    check_state,
    extremal_states,
    pull_back_state,
    sigma_compatible_correspondence,
)

__version__ = "0.1.0"
