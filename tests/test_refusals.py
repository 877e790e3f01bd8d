"""Public branches the rest of the suite does not reach.

Each refusal below is a precondition of a public call, held to its
exception type and its exact message in one table.  The last tests
cover the answers that are no refusal: `EnumBudget`'s repr,
`Morphism.outputs`, equality
against a non-instance and across groupoids or carriers, GammaSet's
equality and hash, `same_structure` across different unit sets, and
the bisection and isomorphism searches on the empty groupoid, the cap
of the cancellation hunt, groupoids of unequal orbit shapes, a group
whose generators no isomorphism can match, and an intransitive action
refused the unique fixed point property.
tests/linecov.py lists the statements that no test runs.
"""

import pytest

from groupoids.action import (
    Action,
    GammaSet,
    coset_space,
    functor_to_zm,
    homogeneous_identification,
    induced_action,
    is_equivariant,
    left_mult_action,
    pullback_action,
    quotient_groupoid,
    unit_action,
)
from groupoids.bisection import (
    act,
    all_bisections,
    bisection_group,
    image_bisection,
    is_bisection,
)
from groupoids.builders import (
    GroupTable,
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    group_table_of,
    klein_table,
    pair_groupoid,
    product_form,
    set_groupoid,
    subgroup_table,
    symmetric_table,
    transformation_groupoid,
)
from groupoids.errors import (
    BudgetExceeded,
    PreconditionFailed,
    UniverseError,
    UnknownElement,
)
from groupoids.groupoid import Groupoid, SubgroupoidRef
from groupoids.morphism import (
    CancellationWitness,
    Morphism,
    component_projection,
    fiber_map_left,
    has_unique_fixed_point_property,
    identity_morphism,
    product_pairing,
    wide_inclusion,
)
from groupoids.relation import Universe, identity
from groupoids.search import EnumBudget, check_cancellation, find_groupoid_isomorphism

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


def fixed_points(groupoid, carrier):
    """The action of a one-unit groupoid fixing every point."""
    triples = [(x, g, x) for g in groupoid.elements for x in carrier]
    return Action(groupoid, carrier, triples)


def _pullback_into_another_groupoid():
    space = GammaSet(Z4.elements, left_mult_action(Z4))
    return pullback_action(identity_morphism(Z2), space)


def _functor_value_outside_the_target():
    phi = left_mult_action(Z2)
    return functor_to_zm(phi, dict.fromkeys(phi.domain, "zz"), Z2)


def _induced_by_an_action_over_one_unit():
    units = SubgroupoidRef(P2, {"x,x", "y,y"})
    action = Action(units.as_groupoid(), Universe("Q", ("q",)), [("q", "x,x", "q")])
    return induced_action(P2, units, action)


def _transformations_of_a_colon_named_group():
    # "e:a" acting on "x" and "e" on "a:x" are both named "e:a:x"
    table = GroupTable("G", ["e", "e:a"], {
        ("e", "e"): "e", ("e", "e:a"): "e:a", ("e:a", "e"): "e:a", ("e:a", "e:a"): "e",
    })
    space = Universe("X", ("x", "a:x"))
    return transformation_groupoid(
        table, space, {(g, x): x for g in table.elements for x in space}
    )


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
        "GammaSet, another carrier",
        lambda: GammaSet(N, left_mult_action(Z2)),
        PreconditionFailed,
        "carrier does not match the action",
    ),
    (
        "pullback_action, a morphism into another groupoid",
        _pullback_into_another_groupoid,
        PreconditionFailed,
        "the action does not belong to the target",
    ),
    (
        "functor_to_zm, domain differs",
        lambda: functor_to_zm(left_mult_action(Z2), {}, Z2),
        PreconditionFailed,
        "functor domain differs from the action groupoid",
    ),
    (
        "functor_to_zm, value outside the target",
        _functor_value_outside_the_target,
        UnknownElement,
        "unknown element 'zz' in Z2",
    ),
    (
        "homogeneous_identification, section does not saturate",
        lambda: homogeneous_identification(fixed_points(Z2, N), {"0": "1"}),
        PreconditionFailed,
        "section does not saturate the carrier; '2' unreached",
    ),
    (
        "induced_action, base map not onto",
        _induced_by_an_action_over_one_unit,
        PreconditionFailed,
        "base map is not onto the subgroupoid units",
    ),
    (
        "component_projection, not a union of components",
        lambda: component_projection(P2, ONE_UNIT),
        PreconditionFailed,
        "'y,x' breaks the transitive-component condition",
    ),
    (
        "coset_space, a subgroupoid of another groupoid",
        lambda: coset_space(Z2, SubgroupoidRef(Z4, {"0"})),
        PreconditionFailed,
        "subgroupoid belongs to another groupoid",
    ),
    (
        "product_form, ambiguous names",
        # x|g|y for x = "0", y = "0|0" and for x = "0|0", y = "0" are one name
        lambda: product_form(Universe("X", ("0", "0|0")), cyclic_table(2)),
        PreconditionFailed,
        "ambiguous names in product form over 'X'",
    ),
    (
        "product_form, ambiguous pair names",
        # its names are distinct, but the pairs (a|0|a, a,a|0|a) and
        # (a|0|a,a, a|0|a) join to one name; no pair groupoid on X is built,
        # whose own check would name 'X'
        lambda: product_form(Universe("X", ("a", "a,a")), cyclic_table(1)),
        UniverseError,
        "ambiguous pair names in product of 'X|Z1|X' and 'X|Z1|X'",
    ),
    (
        "equivalence_groupoid, duplicate pair names",
        # the pairs (a, a,a) and (a,a, a) are both named "a,a,a"
        lambda: equivalence_groupoid(Universe("N", ("a", "a,a")), [("a", "a,a")]),
        UniverseError,
        "duplicate element 'a,a,a' in universe 'N*N'",
    ),
    (
        "equivalence_groupoid, ambiguous pair names",
        # the pairs (a,a, a,a,a,a) and (a,a,a,a, a,a) join to one name
        lambda: equivalence_groupoid(
            Universe("N", ("a", "a,a")), [("a",), ("a,a",)]
        ),
        UniverseError,
        "ambiguous pair names in product of 'N*N' and 'N*N'",
    ),
    (
        "transformation_groupoid, ambiguous names",
        _transformations_of_a_colon_named_group,
        PreconditionFailed,
        "ambiguous names in transformation groupoid over 'X'",
    ),
    (
        "Groupoid, an inverse outside the elements",
        lambda: Groupoid("G", ("e",), ("e",), {"e": "zz"}, [("e", "e", "e")]),
        UnknownElement,
        "unknown element 'zz' in inverse map of 'G'",
    ),
    (
        "Groupoid.inv, unknown element",
        lambda: Z2.inv("zz"),
        UnknownElement,
        "unknown element 'zz' in Z2",
    ),
    (
        "Groupoid.isotropy, not a unit",
        lambda: Z2.isotropy("1"),
        UnknownElement,
        "unknown element '1' in units of 'Z2'",
    ),
    (
        "decompose_transitive, base unit not a unit",
        lambda: P2.decompose_transitive(base_unit="x,y"),
        UnknownElement,
        "unknown element 'x,y' in units of 'P2'",
    ),
    (
        "is_bisection, unknown element",
        lambda: is_bisection(Z2, {"0", "zz"}),
        UnknownElement,
        "unknown element 'zz' in Z2",
    ),
    (
        "act, unknown element",
        lambda: act(all_bisections(Z2)[0], "zz"),
        UnknownElement,
        "unknown element 'zz' in Z2",
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


def test_an_enumeration_budget_shows_its_caps():
    assert repr(EnumBudget()) == (
        "EnumBudget(max_pairs=20, max_candidates=1048576, override=False)"
    )
    assert repr(EnumBudget(max_pairs=45, override=True)) == (
        "EnumBudget(max_pairs=45, max_candidates=1048576, override=True)"
    )


def test_outputs_reads_the_morphism_at_one_input():
    h = unit_morphism_z2()
    assert h.outputs("1") == ("0",)
    assert identity_morphism(Z4).outputs("3") == ("3",)


def test_structures_differ_from_non_instances():
    values = (identity_morphism(Z2), unit_action(Z2), identity(Z2.elements))
    for value in values:
        others = [v for v in (*values, "value", None) if v is not value]
        assert not any(value == other for other in others)


def test_structures_on_other_groupoids_or_carriers_differ():
    assert identity_morphism(Z2) != identity_morphism(Z4)
    assert Morphism(Z2, Z2, [("0", "0"), ("0", "1")]) != Morphism(
        Z2, Z4, [("0", "0"), ("0", "1")]
    )
    assert left_mult_action(Z2) != left_mult_action(Z4)
    assert unit_action(Z2) == fixed_points(Z2, Z2.units_universe())
    assert fixed_points(Z2, N) != fixed_points(Z2, Universe("M", ("1", "2")))
    assert left_mult_action(Z2) != fixed_points(Z2, Z2.elements)


def test_gamma_sets_compare_and_hash_by_their_action():
    space = GammaSet(Z2.elements, left_mult_action(Z2))
    same = GammaSet(Z2.elements, Action(Z2, Z2.elements, Z2.table))
    assert space == same and hash(space) == hash(same)
    assert space != GammaSet(Z2.elements, fixed_points(Z2, Z2.elements))
    assert space != GammaSet(Z4.elements, left_mult_action(Z4))
    assert space != left_mult_action(Z2) and space != "space"


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


def test_a_cancellation_hunt_stops_past_its_cap():
    """The identity of Z4 is mono, so the hunt finds no witness and counts
    every pair it examines; past max_candidates it refuses."""
    cap = EnumBudget(max_candidates=1)
    with pytest.raises(BudgetExceeded) as err:
        check_cancellation(identity_morphism(Z4), "left", budget=cap)
    assert type(err.value) is BudgetExceeded
    assert str(err.value) == "examined 2 witness pairs, cap is 1"


def test_groupoids_of_unequal_orbit_shapes_are_not_isomorphic():
    """Z3 + Z1 and P2 have 4 elements and 2 units each, but one orbit
    of two units against two of one."""
    bundle = group_bundle([cyclic_table(3), cyclic_table(1)])
    assert len(bundle.elements) == len(P2.elements) == 4
    assert len(bundle.units) == len(P2.units) == 2
    assert find_groupoid_isomorphism(bundle, P2) is None
    assert find_groupoid_isomorphism(P2, bundle) is None


def test_a_push_that_contradicts_its_own_map_refuses_the_branch():
    """Every element of V4 is its own inverse and Z4's generators are
    not: mapping one to "1" forces its inverse to "3", against the "1"
    it already has, so no branch survives."""
    assert find_groupoid_isomorphism(group_groupoid(klein_table()), Z4) is None


def test_an_intransitive_action_lacks_the_unique_fixed_point_property():
    """S4 on its 4 points and on the 3 ways to pair them off.  A 3-cycle
    fixes one point and no pairing, a 4-cycle one pairing and no point,
    so every point is the unique fixed point of some element; but the
    orbit of point "1" misses the pairings."""
    s4 = symmetric_table(4)
    pairings = ("12|34", "13|24", "14|23")

    def move(g, x):
        if x not in pairings:
            return g[int(x) - 1]
        halves = {"".join(sorted(g[int(i) - 1] for i in half)) for half in x.split("|")}
        return next(p for p in pairings if set(p.split("|")) == halves)

    space = Universe("Y", ("1", "2", "3", "4", *pairings))
    act = {(g, x): move(g, x) for g in s4.elements for x in space}
    assert has_unique_fixed_point_property(s4, space, act) is False
    natural = Universe("N4", ("1", "2", "3", "4"))
    on_points = {(g, x): y for (g, x), y in act.items() if x in natural}
    assert has_unique_fixed_point_property(s4, natural, on_points) is True
