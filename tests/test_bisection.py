"""Bisections, their group, and their conjugation morphisms."""

import gc
import itertools

import pytest
from hypothesis import given, seed, settings
from oracles import bisection_count_reference, generated_groupoids

from groupoids import bisection
from groupoids.bisection import (
    Bisection,
    act,
    ad,
    all_bisections,
    bisection_group,
    image_bisection,
    induced_hom,
    is_bisection,
    subset_mult,
)
from groupoids.builders import (
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    set_groupoid,
    symmetric_table,
)
from groupoids.errors import AxiomViolation, BudgetExceeded, UnknownElement
from groupoids.groupoid import Groupoid, disjoint_union
from groupoids.morphism import (
    compose_morphisms,
    identity_morphism,
    is_mono,
    left_regular,
    to_orbit_pair,
)
from groupoids.relation import Universe
from groupoids.search import find_groupoid_isomorphism

Z2 = group_groupoid(cyclic_table(2))
Z4 = group_groupoid(cyclic_table(4))
P3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
S2 = set_groupoid(Universe("S", ("p", "q")))


def _subsets(elements):
    for k in range(len(elements) + 1):
        yield from map(frozenset, itertools.combinations(elements, k))


def test_units_form_a_bisection():
    for g in (Z2, Z4, P3, S2):
        assert is_bisection(g, g.units)


def test_group_bisections_are_singletons():
    hits = [s for s in _subsets(Z2.elements) if is_bisection(Z2, s)]
    assert sorted(hits) == [frozenset(("0",)), frozenset(("1",))]


def test_is_bisection_raises_when_its_two_tests_disagree(monkeypatch):
    # the product test sees no products, so the units fail it alone
    monkeypatch.setattr(bisection, "subset_mult", lambda *args: frozenset())
    with pytest.raises(AxiomViolation) as err:
        is_bisection(Z2, Z2.units)
    assert err.value.law == "derived:bisection-products"


def test_pair_groupoid_bisections_count_permutations():
    assert len(all_bisections(P3)) == 6


def test_every_bisection_of_a_generated_groupoid_passes_both_tests():
    """Each bisection all_bisections finds on a generated groupoid passes
    is_bisection, which raises where its fiber test and its product test
    disagree."""
    seen = {"groupoids": 0, "bisections": 0}

    @seed(1311)
    @settings(max_examples=60, deadline=None)
    @given(groupoid=generated_groupoids())
    def check(groupoid):
        found = all_bisections(groupoid)
        assert found
        for b in found:
            assert is_bisection(groupoid, b.members), b
        seen["groupoids"] += 1
        seen["bisections"] += len(found)

    check()
    assert seen["groupoids"] >= 50 and seen["bisections"] >= 500, seen


def test_bisections_number_the_product_over_components(catalog):
    """|Bis| = prod |G_i|^|X_i| |X_i|! over the components X_i x G_i x
    X_i, counted from the reference orbits: all_bisections finds that
    many distinct member sets, and bisection_group has that order, on
    the catalog and on generated groupoids."""
    seen = {"groupoids": 0, "bisections": 0}

    def holds(groupoid):
        count = bisection_count_reference(groupoid)
        found = all_bisections(groupoid)
        distinct = {b.members for b in found}
        assert len(found) == len(distinct) == len(bisection_group(groupoid)) == count
        seen["groupoids"] += 1
        seen["bisections"] += count

    for groupoid in catalog.values():
        holds(groupoid)

    @seed(1311)
    @settings(max_examples=60, deadline=None)
    @given(groupoid=generated_groupoids())
    def check(groupoid):
        holds(groupoid)

    check()
    assert seen["groupoids"] >= 61 and seen["bisections"] >= 500, seen


def test_all_bisections_agrees_with_subset_sweep():
    for g in (Z2, S2, P3):
        swept = {s for s in _subsets(g.elements) if is_bisection(g, s)}
        assert {b.members for b in all_bisections(g)} == swept


def test_subset_mult_basics():
    units = frozenset(Z2.units)
    assert subset_mult(Z2, units, units) == units
    assert subset_mult(Z2, frozenset(("1",)), frozenset(("1",))) == units
    for b in all_bisections(P3):
        inv = frozenset(P3.inverse[g] for g in b.members)
        assert subset_mult(P3, b.members, inv) == frozenset(P3.units)
        assert subset_mult(P3, inv, b.members) == frozenset(P3.units)


def test_bisection_group_of_pair_groupoid_is_symmetric():
    table = bisection_group(P3)
    assert len(table) == 6
    model = group_groupoid(symmetric_table(3))
    assert find_groupoid_isomorphism(group_groupoid(table), model) is not None


def _subset_mult_table(g):
    """The Cayley table of Bis(g), pair by pair through subset_mult."""
    bs = all_bisections(g)
    label_of = {b.members: b.label for b in bs}
    return {
        (b1.label, b2.label): label_of[subset_mult(g, b1.members, b2.members)]
        for b1 in bs
        for b2 in bs
    }


def test_bisection_group_matches_the_subset_mult_table(catalog):
    """bisection_group computes only its generators' rows from the
    groupoid and translates them into every other row; each of its
    tables equals subset_mult's, on P1-P4, the catalog, the empty
    groupoid and generated groupoids with at most 64 bisections."""
    seen = {"groupoids": 0}

    def holds(g):
        expected = _subset_mult_table(g)
        table = bisection_group(g)
        assert set(table.elements) == {l1 for l1, _ in expected}, g
        assert {(a, b): table.mult(a, b) for a, b in expected} == expected, g

    pairs = [pair_groupoid(Universe(f"X{n}", "1234"[:n])) for n in range(1, 5)]
    empty = set_groupoid(Universe("none", ()))
    for g in pairs + list(catalog.values()) + [empty]:
        assert all_bisections(g), g
        holds(g)

    @seed(1311)
    @settings(max_examples=60, deadline=None)
    @given(groupoid=generated_groupoids())
    def check(groupoid):
        if len(all_bisections(groupoid)) <= 64:
            holds(groupoid)
            seen["groupoids"] += 1

    check()
    assert seen["groupoids"] >= 40, seen


def test_bisection_group_computes_only_its_generators_rows(catalog, monkeypatch):
    """Each row bisection_group computes from the groupoid is the least
    row not yet known, so Bis(P_n) = S_n computes n of its n! rows."""
    computed = []
    products = bisection._products

    def counted(groupoid, a, columns):
        computed.append(a)
        return products(groupoid, a, columns)

    def direct(g):
        computed.clear()
        bisection_group(g)
        return len(computed)

    monkeypatch.setattr(bisection, "_products", counted)
    pn = {n: pair_groupoid(Universe(f"X{n}", "123456"[:n])) for n in range(1, 7)}
    assert {n: direct(g) for n, g in pn.items()} == {n: n for n in pn}
    counts = {"pt": 1, "Z2": 2, "Z4": 2, "V4": 2, "P3": 3, "PF": 3}
    assert {k: direct(catalog[k]) for k in counts} == counts


def test_induced_hom_matches_images_and_subset_mult():
    for h in (left_regular(Z2), to_orbit_pair(Z4), identity_morphism(P3)):
        src, tgt = h.source, h.target
        image = {
            b: frozenset(d for d, g in h.graph if g in b.members)
            for b in all_bisections(src)
        }
        by_members = {b.members: b for b in image}
        for b1, b2 in itertools.product(image, repeat=2):
            prod = by_members[subset_mult(src, b1.members, b2.members)]
            assert image[prod] == subset_mult(tgt, image[b1], image[b2])
        assert {b: v.members for b, v in induced_hom(h).items()} == image


def test_induced_hom_refuses_images_that_are_not_a_homomorphism(monkeypatch):
    bs = all_bisections(P3)
    moved = bs[1]  # not the units, so moved . moved != moved
    monkeypatch.setattr(bisection, "image_bisection", lambda h, b: moved)
    with pytest.raises(AxiomViolation) as err:
        induced_hom(identity_morphism(P3))
    assert err.value.law == "derived:induced-hom"
    assert err.value.offender == (bs[0].label, bs[0].label)


def _permutation(b):
    """One-line word w of a bisection of Pn: the member "x,y" sets w(y) = x."""
    word = {}
    for g in b.members:
        x, y = g.split(",")
        word[int(y)] = x
    return "".join(word[y] for y in sorted(word))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bisection_group_of_pn_is_the_symmetric_group(n):
    # (x,y).(y,z) = (x,z), so A.B sends y to w_A(w_B(y)): the product
    # a.b of symmetric_table, whose word is a[b(i) - 1] at i
    pn = pair_groupoid(Universe(f"X{n}", "123456789"[:n]))
    sym = symmetric_table(n)
    table = bisection_group(pn)
    perm = {b.label: _permutation(b) for b in all_bisections(pn)}
    assert sorted(perm) == list(table.elements)
    assert sorted(perm.values()) == list(sym.elements)
    assert perm[table.unit] == sym.unit
    for a, b in itertools.product(table.elements, repeat=2):
        assert perm[table.mult(a, b)] == sym.mult(perm[a], perm[b])


def test_bisection_closure_check_fires_on_a_corrupted_table():
    # "1,2"."2,3" = "2,3" instead of "1,3": units, inverses and fibers
    # are untouched, so both bisections below still exist
    index = P3.elements.index
    rows = [dict(row) for row in P3._rows]
    rows[index["1,2"]][index["2,3"]] = index["2,3"]
    units = [index[e] for e in P3.units]
    bad = Groupoid._of_rows("P3*", P3.elements, units, list(P3._inv), rows)
    with pytest.raises(AxiomViolation) as err:
        bisection_group(bad)
    assert err.value.law == "derived:bisection-closure"
    # the first pair, in member-set order, whose subset product is no
    # bisection: the first A holding "1,2" times the first B holding "2,3"
    bs = all_bisections(bad)
    label_of = {b.members: b.label for b in bs}
    first = next(
        (b1.label, b2.label)
        for b1 in bs
        for b2 in bs
        if subset_mult(bad, b1.members, b2.members) not in label_of
    )
    assert err.value.offender == first == ("{1,2+2,1+3,3}", "{1,1+2,3+3,2}")
    with pytest.raises(AxiomViolation) as err:
        induced_hom(identity_morphism(bad))
    assert (err.value.law, err.value.offender) == ("derived:bisection-closure", first)


def test_bisection_group_small_cases():
    assert len(bisection_group(Z2)) == 2
    assert len(bisection_group(S2)) == 1


def test_bisection_group_inverse_is_s():
    table = bisection_group(P3)
    by_label = {b.label: b for b in all_bisections(P3)}
    for label, inv_label in table.inv.items():
        flipped = frozenset(P3.inverse[g] for g in by_label[label].members)
        assert by_label[inv_label].members == flipped


def test_bisection_group_guard():
    with pytest.raises(BudgetExceeded):
        bisection_group(P3, guard=3)


def test_bisection_group_guard_at_the_count(monkeypatch):
    """A groupoid is refused when its bisections number `guard` or more,
    from their count, before any section is made: P3 (6 bisections) at 6
    and not at 7, and P3 + Z2, of two orbits (12), at 12 and not at 13."""
    two_orbits = disjoint_union(P3, Z2)
    for g, count in ((P3, 6), (two_orbits, 12)):
        assert len(bisection_group(g, guard=count + 1)) == count
        with monkeypatch.context() as patch:
            patch.setattr(bisection, "_enum_member_sets", None)
            with pytest.raises(BudgetExceeded) as err:
                bisection_group(g, guard=count)
        assert str(err.value) == f"{g.name!r} has {count} or more bisections"


def test_act_neutral_and_translation():
    neutral = Bisection(P3, frozenset(P3.units))
    for g in P3.elements:
        assert act(neutral, g) == g
    assert act(Bisection(Z2, frozenset(("1",))), "0") == "1"


def test_act_preserves_right_fibers():
    for g in (Z2, Z4, P3):
        for b in all_bisections(g):
            for x in g.elements:
                assert g.e_right(act(b, x)) == g.e_right(x)


def test_act_is_a_group_action():
    for b1, b2 in itertools.product(all_bisections(P3), repeat=2):
        prod = Bisection(P3, subset_mult(P3, b1.members, b2.members))
        for g in P3.elements:
            assert act(prod, g) == act(b1, act(b2, g))


def test_act_moves_left_fibers_coherently():
    for b in all_bisections(P3):
        moved = {}
        for g in P3.elements:
            el = P3.e_left(g)
            target = P3.e_left(act(b, g))
            assert moved.setdefault(el, target) == target


def test_ad_neutral_is_identity():
    neutral = Bisection(P3, frozenset(P3.units))
    assert ad(neutral) == identity_morphism(P3)


def test_ad_is_functorial():
    bs = all_bisections(P3)
    for b1, b2 in itertools.product(bs, repeat=2):
        prod = Bisection(P3, subset_mult(P3, b1.members, b2.members))
        assert ad(prod) == compose_morphisms(ad(b1), ad(b2))


def test_ad_in_a_group_is_conjugation():
    s3 = group_groupoid(symmetric_table(3))
    for b in all_bisections(s3):
        (member,) = b.members
        expected = tuple(
            sorted(
                (s3.mult(s3.mult(member, g), s3.inverse[member]), g)
                for g in s3.elements
            )
        )
        assert ad(b).graph == expected


def test_ad_is_mono():
    for b in all_bisections(Z4):
        assert is_mono(ad(b))


def test_image_bisection_laws():
    for h in (left_regular(Z2), to_orbit_pair(Z4)):
        src, tgt = h.source, h.target
        bs = all_bisections(src)
        for b in bs:
            image = image_bisection(h, b)
            assert is_bisection(tgt, image.members)
            flipped = Bisection(
                src, frozenset(src.inverse[g] for g in b.members)
            )
            assert image_bisection(h, flipped).members == frozenset(
                tgt.inverse[d] for d in image.members
            )
        for b1, b2 in itertools.product(bs, repeat=2):
            prod = Bisection(src, subset_mult(src, b1.members, b2.members))
            assert image_bisection(h, prod).members == subset_mult(
                tgt,
                image_bisection(h, b1).members,
                image_bisection(h, b2).members,
            )


def test_ad_intertwines_with_morphisms():
    for h in (left_regular(Z2), to_orbit_pair(Z4)):
        for b in all_bisections(h.source):
            lhs = compose_morphisms(h, ad(b))
            rhs = compose_morphisms(ad(image_bisection(h, b)), h)
            assert lhs == rhs


def test_induced_hom_of_identity():
    hom = induced_hom(identity_morphism(P3))
    assert all(hom[b] == b for b in hom)


def test_induced_hom_injectivity_tracks_mono():
    lr = left_regular(Z2)
    hom = induced_hom(lr)
    images = [hom[b].members for b in hom]
    assert len(set(images)) == len(images)

    op = to_orbit_pair(Z4)
    hom2 = induced_hom(op)
    images2 = [hom2[b].members for b in hom2]
    assert len(set(images2)) < len(images2)


def test_bisection_rejects_non_sections():
    with pytest.raises(AxiomViolation):
        Bisection(Z2, frozenset(("0", "1")))
    with pytest.raises(AxiomViolation):
        Bisection(P3, frozenset(("1,2",)))


def test_a_section_has_distinct_left_units_and_distinct_right_units():
    """One member over each unit on both sides: P3's arrows into 1 have
    distinct left units, and its arrows out of 1 distinct right units,
    and neither is a bisection, by either test."""
    for members in (("1,1", "2,1", "3,1"), ("1,1", "1,2", "1,3")):
        assert not is_bisection(P3, members)
        with pytest.raises(AxiomViolation) as err:
            Bisection(P3, members)
        assert (err.value.law, err.value.offender) == ("bisection-section", "1,1")


def test_unknown_members_are_refused_by_the_least_name():
    """Bisection and is_bisection refuse the least name that is not an
    element, whatever the set's hash order; the names that are elements
    are not named."""
    unknown = [f"{c}{c}" for c in "zyxwvutsrq"]
    for members in (unknown[:3], unknown, ["1,2", "zz", "3,3", "qq"]):
        least = min(m for m in members if m not in P3.elements)
        for call in (Bisection, is_bisection):
            with pytest.raises(UnknownElement) as err:
                call(P3, frozenset(members))
            assert err.value.element == least
            assert str(err.value) == f"unknown element {least!r} in {P3.name}"


def test_bisection_enumeration_leaves_no_reference_cycle():
    """The enumeration is a loop, not a closure that calls itself, so a
    call leaves nothing for the cyclic collector."""
    p4 = pair_groupoid(Universe("X4", "1234"))
    bisection_group(p4)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            bisection_group(p4)
            all_bisections(p4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
