"""Exact combinatorics of associated graded rings along a valuation.

Integer/rational linear algebra (Smith normal form), lex-ordered block
value groups, pointed affine monoids with parallelepiped decompositions,
monomial extension rewriting into strong monomial form, coset systems,
graded free-module decompositions, value semigroups, and ramification
index bookkeeping.  All arithmetic is exact.
"""

from .errors import GradedValError
from .exact_lattice import (
    ExactMatrix,
    SmithDecomposition,
    adjugate,
    determinant,
    in_column_lattice,
    lattice_index,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
    solve_rational,
    unimodular_inverse,
)
from .ordered_groups import (
    Block,
    GroupElement,
    GroupStructure,
    IsolatedChain,
    Quotient,
    ValueGroup,
    coset_label,
    isolated_level,
    lex_compare,
    quotient_invariant_factors,
    subgroup_index,
)
from .affine_monoids import (
    AffineMonoid,
    ParallelepipedBasis,
    parallelepiped_points,
    saturation_membership,
    verify_disjoint_decomposition,
)
from .monomial_extension import (
    AdjointRelations,
    BlockStructure,
    MonomialExtension,
    SSMForm,
    adjoint_relations,
    induced_x_values,
    is_valid,
    validate,
)
from .monomialization import (
    CosetSystem,
    MonomializationTrace,
    TransformStep,
    coset_system,
    replay,
    strong_monomialize,
)
from .graded_algebra import (
    GradedAlgebra,
    GradedBasisLabel,
    GradedModule,
    GradedModuleElement,
    base_change_unramified,
    element_value,
    expand,
    free_rank,
    galois_character_action,
    invariant_part,
)
from .value_semigroups import (
    ValueSemigroup,
    generating_sequence_semigroup,
    semigroup_difference,
    semigroup_membership,
)
from .ramification import (
    ExtensionRecord,
    compose_tower,
    ostrowski_defect,
    unramified_criterion,
)
from .scenarios import Scenario, load_scenario, run_pipeline

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
