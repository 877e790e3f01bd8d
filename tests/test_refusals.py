"""Public branches the rest of the suite does not reach.

Each refusal below is a precondition of a public call, held to its
exception type and its exact message in one table.  The last tests
cover the answers that are no refusal: `Morphism.outputs`, equality
against a non-instance, `same_structure` across different unit sets,
and the bisection and isomorphism searches on the empty groupoid.
tests/linecov.py lists the statements that no test runs.
"""

import pytest

from groupoids.action import (
    GammaSet,
    coset_space,
    is_equivariant,
    left_mult_action,
    quotient_groupoid,
    unit_action,
)
from groupoids.bisection import all_bisections, bisection_group, image_bisection
from groupoids.builders import (
    GroupTable,
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    group_table_of,
    pair_groupoid,
    set_groupoid,
    subgroup_table,
)
from groupoids.errors import PreconditionFailed, UnknownElement
from groupoids.morphism import (
    CancellationWitness,
    Morphism,
    fiber_map_left,
    identity_morphism,
    product_pairing,
    wide_inclusion,
)
from groupoids.relation import Universe, identity
from groupoids.search import check_cancellation, find_groupoid_isomorphism

Z2 = group_groupoid(cyclic_table(2))
Z4 = group_groupoid(cyclic_table(4))
P2 = pair_groupoid(Universe("X2", ("x", "y")), "P2")
EMPTY = set_groupoid(Universe("E", ()), "E")
N = Universe("N", ("1", "2"))
ONE_UNIT = {"x,x"}  # a subgroupoid of P2 that misses the unit y,y


def unit_morphism_z2():
    """Z2 -> Z2 sending both elements to the unit."""
    return Morphism(Z2, Z2, [("0", "0"), ("0", "1")])


def _witness_with_one_arrow():
    w = identity_morphism(Z2)
    return CancellationWitness(Z2, w, w, "mono")


def _pairing_across_sources():
    return product_pairing(identity_morphism(Z2), identity_morphism(Z4))


def _equivariance_across_groupoids():
    first = GammaSet(Z2.elements, left_mult_action(Z2))
    second = GammaSet(Z4.elements, left_mult_action(Z4))
    return is_equivariant({}, first, second)


def _image_of_a_foreign_bisection():
    (bisection,) = [b for b in all_bisections(Z4) if b.members == {"0"}]
    return image_bisection(identity_morphism(Z2), bisection)


REFUSALS = [
    (
        "Morphism.outputs, unknown input",
        lambda: identity_morphism(Z2).outputs("zz"),
        UnknownElement,
        "unknown element 'zz' in source universe 'Z2'",
    ),
    (
        "subgroup_table, not closed",
        lambda: subgroup_table(cyclic_table(4), ["0", "1"]),
        PreconditionFailed,
        "['0', '1'] is not closed in group 'Z4'",
    ),
    (
        "group_table_of, not a subgroup",
        lambda: group_table_of(Z4, ["0", "1"]),
        PreconditionFailed,
        "members are not a subgroup of 'Z4'",
    ),
    (
        "group_bundle, no fibre",
        lambda: group_bundle([]),
        PreconditionFailed,
        "group bundle needs at least one fibre",
    ),
    (
        "equivalence_groupoid, empty class",
        lambda: equivalence_groupoid(N, [("1", "2"), ()]),
        PreconditionFailed,
        "equivalence classes must be nonempty",
    ),
    (
        "equivalence_groupoid, unknown point",
        lambda: equivalence_groupoid(N, [("1", "2", "9")]),
        UnknownElement,
        "unknown element '9' in universe 'N'",
    ),
    (
        "coset_space, not wide",
        lambda: coset_space(P2, ONE_UNIT),
        PreconditionFailed,
        "coset space needs a wide subgroupoid",
    ),
    (
        "quotient_groupoid, not wide",
        lambda: quotient_groupoid(P2, ONE_UNIT),
        PreconditionFailed,
        "quotient needs a wide subgroupoid",
    ),
    (
        "wide_inclusion, not wide",
        lambda: wide_inclusion(P2, ONE_UNIT),
        PreconditionFailed,
        "subgroupoid is not wide",
    ),
    (
        "product_pairing, two sources",
        _pairing_across_sources,
        PreconditionFailed,
        "pairing requires a common source",
    ),
    (
        "is_equivariant, two groupoids",
        _equivariance_across_groupoids,
        PreconditionFailed,
        "actions of different groupoids",
    ),
    (
        "image_bisection, a bisection of another groupoid",
        _image_of_a_foreign_bisection,
        PreconditionFailed,
        "bisection lives on a different groupoid",
    ),
    (
        "CancellationWitness, unknown side",
        lambda: CancellationWitness(
            Z2, identity_morphism(Z2), unit_morphism_z2(), "sideways"
        ),
        PreconditionFailed,
        "unknown witness side 'sideways'",
    ),
    (
        "CancellationWitness, equal morphisms",
        _witness_with_one_arrow,
        PreconditionFailed,
        "witness morphisms must differ",
    ),
    (
        "fiber_map_left, not a unit",
        lambda: fiber_map_left(identity_morphism(Z2), "1"),
        PreconditionFailed,
        "'1' is not a unit of 'Z2'",
    ),
    (
        "check_cancellation, unknown side",
        lambda: check_cancellation(identity_morphism(Z2), "up"),
        PreconditionFailed,
        "unknown cancellation side 'up'",
    ),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_public_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_outputs_reads_the_morphism_at_one_input():
    h = unit_morphism_z2()
    assert h.outputs("1") == ("0",)
    assert identity_morphism(Z4).outputs("3") == ("3",)


def test_structures_differ_from_non_instances():
    values = (identity_morphism(Z2), unit_action(Z2), identity(Z2.elements))
    for value in values:
        others = [v for v in (*values, "value", None) if v is not value]
        assert not any(value == other for other in others)


def test_same_structure_needs_the_same_units():
    # one element name set, as a group (unit p) and as a set groupoid
    table = GroupTable("G", ["p", "q"], {
        ("p", "p"): "p", ("p", "q"): "q", ("q", "p"): "q", ("q", "q"): "p",
    })
    group, units_only = group_groupoid(table), set_groupoid(Universe("G", ("p", "q")))
    assert not group.same_structure(units_only)
    assert not units_only.same_structure(group)


def test_searches_on_the_empty_groupoid():
    (empty,) = all_bisections(EMPTY)
    assert empty.members == frozenset()
    table = bisection_group(EMPTY)
    assert len(table) == 1 and table.mult(table.unit, table.unit) == table.unit
    assert find_groupoid_isomorphism(EMPTY, EMPTY) == {}
    assert find_groupoid_isomorphism(EMPTY, Z2) is None
