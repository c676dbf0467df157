"""Crossed products of finite-dimensional C*-algebras by finite group actions.

Builds concrete matrix models of crossed products, decides equivalence and
irreducibility of representations through intertwiner spaces, decomposes
representations into irreducibles, and extracts the canonical structural
data of irreducible covariant representations (stabilizer subgroup,
multiplicity, block permutations, projective cocycles, cyclic canonical
form, and the classification over the 3-letter permutation group).
"""

__version__ = "0.1.0"

from .algebra import AlgElement, GroupAction, LabelAction, MatAlg, StarAut, restrict_action
from .analyzer import (
    CyclicReport,
    ProjectiveRep,
    S3Class,
    StructureReport,
    analyze,
    build_cyclic_irrep,
    classify_s3,
    cyclic_analyze,
    factor_tensor,
    homogeneous_irreducibility,
    periodize,
)
from .crossed import (
    CrossedElement,
    CrossedModel,
    build_crossed_model,
    crossed_adjoint,
    crossed_multiply,
    element_to_matrix,
    fixed_point_algebra,
    monomial,
    projection_matrix,
    spectral_projection,
)
from .errors import (
    ActionMismatch,
    BlockStructureViolation,
    CanonicalFormViolation,
    CrossrepError,
    DecompositionFailed,
    DimensionMismatch,
    InvariantViolation,
    LabelMismatch,
    NotFactorable,
    NotIrreducible,
    NotScalarPower,
    NotUnitary,
    SchemaError,
)
from .groups import (
    CharacterTable,
    FiniteGroup,
    Subgroup,
    character_table,
    make_cyclic_group,
    make_symmetric_group_3,
    right_coset_reps,
    subgroup_closure,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    nullspace,
    solve_sylvester_family,
    unitary_eigenspaces,
)
from .reps import (
    CovariantRep,
    Equivalence,
    IrrepDecomposition,
    Rep,
    are_equivalent,
    commutant_basis,
    covariant_character,
    covariant_equivalence,
    decompose,
    decompositions_match,
    defining_rep,
    direct_sum_reps,
    evaluate,
    hom_dim,
    hom_projection,
    induce,
    intertwiners,
    is_irreducible,
    regular_irreducibility_criterion,
    regular_representation,
    rep_compose,
    rep_end_dim,
    rep_from_images,
    translate_stabilizer,
    trivial_covariant,
)
