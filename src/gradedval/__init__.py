"""Exact combinatorics of associated graded rings along a valuation.

Integer/rational linear algebra (Smith normal form), lex-ordered block
value groups, pointed affine monoids with parallelepiped decompositions,
monomial extension rewriting into strong monomial form, coset systems,
the free graded module of rank e * f with its invariant part, value
semigroups enumerated in a box (membership and the growth witnesses
S_big minus S_small), and ramification index bookkeeping.  All arithmetic
is exact.
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
    Quotient,
    ValueGroup,
    coset_label,
    generator_rows,
    isolated_level,
    lex_compare,
    quotient_invariant_factors,
    subgroup_index,
)
from .affine_monoids import (
    AffineMonoid,
    ParallelepipedBasis,
    parallelepiped_points,
    verify_disjoint_decomposition,
)
from .monomial_extension import (
    AdjointRelations,
    BlockStructure,
    MonomialExtension,
    SSMForm,
    adjoint_relations,
    induced_x_values,
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
    GradedBasisLabel,
    GradedModule,
    fixed_by_all_characters,
    invariant_part,
    is_sigma_trivial,
)
from .value_semigroups import (
    ValueSemigroup,
    enumerate_elements,
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
