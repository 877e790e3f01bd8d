"""Finite groupoids in the relational picture."""

from .errors import (
    AlgebraError,
    AxiomViolation,
    BudgetExceeded,
    DocumentError,
    IsMonomorphism,
    PreconditionFailed,
    UniverseError,
    UniverseMismatch,
    UnknownElement,
)
from .relation import FinRel, ONE, Universe, pair_name, product_universe
from .groupoid import (
    Groupoid,
    SubgroupoidRef,
    cartesian_product,
    disjoint_union,
    validate_groupoid,
)
from .builders import (
    GroupTable,
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_form,
    set_groupoid,
    subgroup_table,
    subgroups_of,
    symmetric_table,
    transformation_groupoid,
    trivial_table,
)
from .morphism import (
    CancellationWitness,
    Kernel,
    Morphism,
    compose_morphisms,
    epi_mono_factorization,
    identity_morphism,
    is_mono,
    is_surjective,
    kernel,
    mono_witness,
    separating_pair,
)
from .bisection import (
    Bisection,
    ad,
    all_bisections,
    bisection_group,
    is_bisection,
)
from .action import (
    Action,
    action_groupoid,
    classify_transitive_action,
    coset_space,
    homogeneous_identification,
    induced_action,
    morphism_to_action,
    quotient_groupoid,
)
from .search import (
    EnumBudget,
    check_cancellation,
    enum_actions,
    enum_morphisms,
    enum_morphisms_naive,
    find_groupoid_isomorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
