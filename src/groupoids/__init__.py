"""Finite groupoids in the relational picture.

The package's exports resolve on first access (PEP 562): `import
groupoids` loads no submodule, and `groupoids.Groupoid` or `from
groupoids import Groupoid` imports the defining module then and keeps
the name here.  Submodules resolve the same way, so `groupoids.search`
works after a bare `import groupoids`.
"""

import importlib

# defining module -> the names it exports through the package
_EXPORTS = {
    "errors": (
        "AlgebraError", "AxiomViolation", "BudgetExceeded", "DocumentError",
        "IsMonomorphism", "PreconditionFailed", "UniverseError",
        "UniverseMismatch", "UnknownElement",
    ),
    "relation": ("FinRel", "ONE", "Universe", "pair_name", "product_universe"),
    "groupoid": (
        "Groupoid", "SubgroupoidRef", "cartesian_product", "disjoint_union",
        "validate_groupoid",
    ),
    "builders": (
        "GroupTable", "cyclic_table", "equivalence_groupoid", "group_bundle",
        "group_groupoid", "klein_table", "pair_groupoid", "product_form",
        "set_groupoid", "subgroup_table", "subgroups_of", "symmetric_table",
        "transformation_groupoid", "trivial_table",
    ),
    "morphism": (
        "CancellationWitness", "Kernel", "Morphism", "compose_morphisms",
        "epi_mono_factorization", "identity_morphism", "is_mono",
        "is_surjective", "kernel", "mono_witness", "separating_pair",
    ),
    "bisection": ("Bisection", "ad", "all_bisections", "bisection_group", "is_bisection"),
    "action": (
        "Action", "action_groupoid", "classify_transitive_action", "coset_space",
        "homogeneous_identification", "induced_action", "morphism_to_action",
        "quotient_groupoid",
    ),
    "search": (
        "EnumBudget", "check_cancellation", "enum_actions", "enum_morphisms",
        "enum_morphisms_naive", "find_groupoid_isomorphism",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
