"""The names the package exports, and where each comes from."""

import pytest

import groupoids

# defining module -> the names the package exports from it
EXPORTS = {
    "errors": [
        "AlgebraError", "AxiomViolation", "BudgetExceeded", "DocumentError",
        "IsMonomorphism", "PreconditionFailed", "UniverseError",
        "UniverseMismatch", "UnknownElement",
    ],
    "relation": ["FinRel", "ONE", "Universe", "pair_name", "product_universe"],
    "groupoid": [
        "Groupoid", "SubgroupoidRef", "cartesian_product", "disjoint_union",
        "validate_groupoid",
    ],
    "builders": [
        "GroupTable", "cyclic_table", "equivalence_groupoid", "group_bundle",
        "group_groupoid", "klein_table", "pair_groupoid", "product_form",
        "set_groupoid", "subgroup_table", "subgroups_of", "symmetric_table",
        "transformation_groupoid", "trivial_table",
    ],
    "morphism": [
        "CancellationWitness", "Kernel", "Morphism", "compose_morphisms",
        "epi_mono_factorization", "identity_morphism", "is_mono", "is_surjective",
        "kernel", "mono_witness", "separating_pair",
    ],
    "bisection": ["Bisection", "ad", "all_bisections", "bisection_group", "is_bisection"],
    "action": [
        "Action", "action_groupoid", "classify_transitive_action", "coset_space",
        "homogeneous_identification", "induced_action", "morphism_to_action",
        "quotient_groupoid",
    ],
    "search": [
        "EnumBudget", "check_cancellation", "enum_actions", "enum_morphisms",
        "enum_morphisms_naive", "find_groupoid_isomorphism",
    ],
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}


def test_all_lists_the_exports():
    assert len(HOME) == 63
    assert groupoids.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_an_export_is_its_defining_modules_object(name):
    module = getattr(groupoids, HOME[name])
    assert getattr(groupoids, name) is getattr(module, name)
    assert module.__name__ == f"groupoids.{HOME[name]}"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from groupoids import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOME)


def test_dir_lists_the_exports():
    assert set(HOME) <= set(dir(groupoids))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        groupoids.no_such_name
    with pytest.raises(ImportError):
        exec("from groupoids import no_such_name", {})

