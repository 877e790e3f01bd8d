"""The names the package exports, where each comes from, the names
each module imports, and the reprs of the exported classes."""

import ast
from pathlib import Path

import pytest

import groupoids
from groupoids.action import GammaSet, coset_space, left_mult_action
from groupoids.bisection import all_bisections
from groupoids.builders import cyclic_table, group_groupoid, pair_groupoid, trivial_table
from groupoids.groupoid import SubgroupoidRef
from groupoids.morphism import Morphism, kernel, left_regular, mono_witness
from groupoids.relation import Universe, identity

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



@pytest.mark.parametrize(
    "path", sorted(Path(groupoids.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_imported_name_is_read_in_its_module(path):
    """No module imports a name it never reads: the check a linter's
    unused-import rule makes, on the module's syntax tree."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(imported - read) == []


Z2 = group_groupoid(cyclic_table(2))


def _collapse():
    """The morphism Z2 -> Z1, which is no monomorphism."""
    return Morphism._of_rows(Z2, group_groupoid(trivial_table()), {0: 1, 1: 1})


REPRS = [
    (lambda: cyclic_table(2), "GroupTable('Z2', order 2)"),
    (lambda: Z2, "Groupoid('Z2', 2 elements, 1 units)"),
    (lambda: SubgroupoidRef(Z2, {"0"}), "SubgroupoidRef('Z2', 1 members)"),
    (lambda: Z2.elements, "Universe('Z2', 2 elements)"),
    (lambda: identity(Z2.elements), "FinRel('Z2' -> 'Z2', 2 pairs)"),
    (lambda: left_regular(Z2), "Morphism('Z2' -> 'Pair(Z2)', 4 pairs)"),
    (lambda: kernel(left_regular(Z2)), "Kernel(1 members)"),
    (lambda: mono_witness(_collapse()), "CancellationWitness(mono, probe='Z2.ker@0')"),
    (lambda: left_mult_action(Z2), "Action('Z2' on 'Z2', 4 triples)"),
    (
        lambda: GammaSet(Z2.elements, left_mult_action(Z2)),
        "GammaSet(Action('Z2' on 'Z2', 4 triples))",
    ),
    (lambda: coset_space(Z2, {"0"}), "CosetSpace('Z2', 2 classes)"),
    (
        lambda: all_bisections(pair_groupoid(Universe("X2", ("x", "y"))))[0],
        "Bisection({x,x+y,y})",
    ),
]


@pytest.mark.parametrize("make, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_a_value_reprs_as_its_kind_name_and_size(make, text):
    assert repr(make()) == text
