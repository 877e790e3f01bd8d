"""The derived constructions, each held to an independent oracle.

The package does not re-check what a derived construction returns:
each result is a theorem of its checked inputs, argued in the module
docstrings.  The cases here run every such construction over the grid
of tests/test_trusted.py and the morphisms between catalog members, and
hold each result to an oracle in oracles.py that reads the structures
element by element.  The last test keeps the checks that do run on
derived data to the ones the tests name.
"""

import gc
import itertools
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from oracles import (
    ad_violation,
    classification_violation,
    cosets_reference,
    decomposition_violation,
    factorization_violation,
    generated_groupoids,
    group_classification_violation,
    homogeneous_violation,
    kernel_violation,
    non_epi_reference,
    pairing_violation,
    quotient_violation,
    separating_violation,
)
from test_bisection import _subset_mult_table
from test_trusted import grid_groupoids, wide_parts

import groupoids
from groupoids import bisection
from groupoids.action import (
    classify_transitive_action,
    coset_space,
    homogeneous_identification,
    induced_action,
    left_mult_action,
    product_form_action,
    quotient_groupoid,
    unit_action,
)
from groupoids.bisection import (
    _bisection_count,
    ad,
    all_bisections,
    bisection_group,
    induced_hom,
)
from groupoids.builders import (
    cyclic_table,
    group_bundle,
    group_groupoid,
    is_normal,
    klein_table,
    pair_groupoid,
    product_form,
    quotient_group_table,
    subgroup_table,
    subgroups_of,
    symmetric_table,
)
from groupoids.errors import PreconditionFailed
from groupoids.groupoid import SubgroupoidRef, cartesian_product
from groupoids.morphism import (
    Morphism,
    classify_into_group,
    component_projection,
    compose_morphisms,
    epi_mono_factorization,
    find_non_epi_witness,
    group_action_morphism,
    identity_morphism,
    is_surjective,
    kernel,
    left_regular,
    product_pairing,
    quotient_by_kernel,
    separating_pair,
    to_orbit_pair,
    to_orbit_relation,
    wide_inclusion,
)
from groupoids.relation import Universe, compose
from groupoids.search import _left_cosets, enum_morphisms

# the derived-data checks the tests name: the witness verifications and
# bisection.py's cross-checks
NAMED_DERIVED_LAWS = {
    "bisection-products", "bisection-closure", "induced-hom",
    "mono-witness", "epi-witness",
}


@pytest.fixture(scope="module")
def grid(catalog):
    return grid_groupoids(catalog)


@pytest.fixture(scope="module")
def morphisms(catalog, grid):
    """Every morphism between catalog members, and the identity, left
    regular, orbit and component maps of each grid groupoid."""
    pool = catalog.values()
    out = [h for a in pool for b in pool for h in enum_morphisms(a, b)]
    for g in grid.values():
        out += [identity_morphism(g), left_regular(g), to_orbit_pair(g)]
        out.append(to_orbit_relation(g))
        out += [component_projection(g, c) for c in g.transitive_components()]
    return out


def product_forms(catalog):
    """(space, table, groupoid) for the product forms of the grid."""
    z2, z3, s3 = cyclic_table(2), cyclic_table(3), symmetric_table(3)
    out = [(Universe("B", ("x", "y")), z2, catalog["PF"])]
    for n, t in ((1, z2), (2, z2), (2, z3), (3, z2), (2, s3)):
        space = Universe(f"B{n}", "xyz"[:n])
        out.append((space, t, product_form(space, t)))
    return out


def test_kernels_and_factorizations_match_the_oracle(morphisms):
    groups = 0
    for h in morphisms:
        assert kernel_violation(h, kernel(h).members) is None, h
        if len(h.target.units) == 1:
            groups += 1
            assert group_classification_violation(h, *classify_into_group(h)) is None, h
        if h.domain_elements == frozenset(h.source.elements):
            assert factorization_violation(h, *quotient_by_kernel(h)) is None, h
        assert factorization_violation(h, *epi_mono_factorization(h)) is None, h
    assert groups >= 100


def test_composites_are_the_relational_composites(morphisms, apart_indexed):
    """compose_morphisms, an OR of mask rows, gives compose(k.rel, h.rel)
    for every composable pair of the morphisms above, and for pairs whose
    middle groupoid is given once on a product universe and once on a
    plain one, which index the same names apart."""
    by_source = {}
    for k in morphisms:
        by_source.setdefault(k.source, []).append(k)
    pairs = [(k, h) for h in morphisms for k in by_source.get(h.target, ())]
    delta, copy = apart_indexed
    for middle, other in ((delta, copy), (copy, delta)):
        # h ends on one indexing of the middle, k starts on the other
        inversion = Morphism(other, middle, middle.inverse.items())
        for k in (identity_morphism(other), left_regular(other), to_orbit_pair(other)):
            pairs += [(k, h) for h in (identity_morphism(middle), inversion)]
    assert len(pairs) == 11199 + 12
    for k, h in pairs:
        assert compose_morphisms(k, h).rel == compose(k.rel, h.rel), (k, h)


def test_product_pairing_matches_the_oracle(grid):
    for g in grid.values():
        maps = [identity_morphism(g), to_orbit_pair(g), to_orbit_relation(g)]
        for p1 in maps:
            for p2 in maps:
                assert pairing_violation(p1, p2, product_pairing(p1, p2)) is None


def proper_wide_subgroupoids(g):
    """Every wide subgroupoid of g other than g itself."""
    rest = sorted(set(g.elements) - set(g.units))
    for k in range(len(rest)):
        for extra in itertools.combinations(rest, k):
            part = frozenset(g.units).union(extra)
            if g.is_subgroupoid(part):
                yield part


def test_separating_pairs_match_the_oracle(grid):
    """Over every proper wide subgroupoid of the grid members of at most
    eight elements: both branches, by whether every element outside is
    an involution."""
    branches = Counter()
    for g in grid.values():
        if len(g.elements) > 8:
            continue
        for part in proper_wide_subgroupoids(g):
            outside = set(g.elements) - part
            branches[all(g.inverse[x] == x for x in outside)] += 1
            probe, k1, k2 = separating_pair(g, part)
            verdict = separating_violation(g, part, probe, k1, k2)
            assert verdict is None, (g, part, verdict)
    assert branches == {False: 38, True: 17}


def test_decompositions_match_the_oracle(grid):
    transitive = [g for g in grid.values() if len(g.orbits()) == 1]
    assert len(transitive) >= 15
    for g in transitive:
        for e in g.units:
            base, table, phi = g.decompose_transitive(e)
            assert decomposition_violation(g, base, table, phi) is None, (g, e)


def test_quotient_groupoids_match_the_oracle(grid, morphisms):
    cases = {(g, g.isotropy_bundle().members) for g in grid.values()}
    cases |= {(g, frozenset(g.units)) for g in grid.values()}
    cases |= {
        (h.source, h.kernel_members)
        for h in morphisms
        if h.domain_elements == frozenset(h.source.elements)
    }
    for g, members in cases:
        quotient, pi = quotient_groupoid(g, members)
        assert quotient_violation(g, members, quotient, pi) is None, (g, members)


def check_coset_readers(g, members) -> bool:
    """coset_space, and quotient_groupoid where `members` lie in the
    isotropy bundle and are normal, against cosets_reference: classes,
    labels and their order, the projection in class order, the carrier
    and pi.  True when the quotient was checked too."""
    ref = cosets_reference(g, members)
    labels = [label for label, _ in ref]
    of = {b: label for label, c in ref for b in c}
    space = coset_space(g, members)
    assert space.classes == tuple(c for _, c in ref), (g, members)
    assert list(space.projection.items()) == list(of.items()), (g, members)
    assert space.carrier.elements == tuple(sorted(labels)), (g, members)
    try:
        quotient, pi = quotient_groupoid(g, members)
    except PreconditionFailed:
        return False
    assert sorted(quotient.elements) == sorted(labels), (g, members)
    assert {b: label for label, b in pi.graph} == of, (g, members)
    return True


def test_coset_readers_agree_with_the_name_level_reference(catalog):
    """On the catalog and on generated groupoids, about half of them
    indexed out of name order, with H the whole groupoid, the isotropy
    bundle and the unit set."""
    seen = Counter()

    def check(g):
        for members in (frozenset(g.elements), g.isotropy_bundle().members, g.units):
            seen["quotients"] += check_coset_readers(g, members)
            seen["spaces"] += 1

    for g in catalog.values():
        check(g)

    @seed(4343)
    @settings(max_examples=60, deadline=None)
    @given(groupoid=generated_groupoids())
    def generated(groupoid):
        check(groupoid)
        seen["generated"] += 1

    generated()
    assert seen["generated"] >= 50 and seen["spaces"] >= 180, seen
    assert seen["quotients"] >= 120, seen


def lattice_groups() -> list:
    """S4, A4, D4, V4 and Z6; A4 and D4 are subgroup_tables of S4."""
    s4 = symmetric_table(4)
    subgroups = subgroups_of(s4)
    a4 = subgroup_table(s4, next(s for s in subgroups if len(s) == 12), "A4")
    d4 = subgroup_table(s4, next(s for s in subgroups if len(s) == 8), "D4")
    return [s4, a4, d4, klein_table(), cyclic_table(6)]


def test_subgroup_lattices_agree_with_the_coset_reference():
    """For every subgroup K of S4, A4, D4, V4 and Z6, non-normal ones of
    index up to 12 among them: the coset space and, for normal K, the
    quotient groupoid and quotient_group_table hold to cosets_reference,
    and quotient_group_table refuses every other K; _left_cosets numbers
    K first and the other cosets by least member, with acts[x][j] the
    coset of x r_j."""
    seen = Counter()
    for table in lattice_groups():
        g = group_groupoid(table)
        for members in subgroups_of(table):
            ref = cosets_reference(g, members)
            normal = check_coset_readers(g, members)
            assert normal == is_normal(table, members), (table, members)
            of = {b: label for label, c in ref for b in c}
            if normal:
                quotient, proj = quotient_group_table(table, members)
                assert list(proj.items()) == [(b, of[b]) for b in table.elements]
                assert quotient.elements == tuple(sorted(set(of.values())))
                for a, b in itertools.product(table.elements, repeat=2):
                    assert quotient.mult(of[a], of[b]) == of[table.mult(a, b)]
            else:
                with pytest.raises(PreconditionFailed, match="not a normal subgroup"):
                    quotient_group_table(table, members)
                seen[f"non-normal of index {len(ref)}"] += 1
            # K first, then by least member, as _point_actions reads them
            own = next(c for _, c in ref if table.unit in c)
            classes = [own] + [c for _, c in ref if c != own]
            number = {b: j for j, c in enumerate(classes) for b in c}
            acts = _left_cosets(table, members)
            for x, a in enumerate(table.elements):
                assert acts[x] == [number[table.mult(a, c[0])] for c in classes]
            seen["subgroups"] += 1
    assert seen["subgroups"] == 30 + 10 + 10 + 5 + 4, seen
    assert seen["non-normal of index 12"] == 9 and seen["non-normal of index 6"] > 0, seen


def normal_at_every_element(g, members) -> bool:
    """The all-element test, by name: xN = Nx for every x of each
    isotropy group, N the members in it."""
    for e in g.units:
        group = g.isotropy(e).members
        sub = members & group
        for x in group:
            if {g.mult(x, n) for n in sub} != {g.mult(n, x) for n in sub}:
                return False
    return True


def wide_sub_bundles(g) -> list:
    """The units with one subgroup of each isotropy group, every way."""
    per_unit = []
    for e in g.units:
        rest = sorted(g.isotropy(e).members - {e})
        subsets = (
            {e, *c} for r in range(len(rest) + 1) for c in itertools.combinations(rest, r)
        )
        per_unit.append([c for c in subsets if g.is_subgroupoid(c)])
    return [frozenset().union(*choice) for choice in itertools.product(*per_unit)]


def test_quotient_groupoid_refuses_what_the_all_element_test_refuses(catalog):
    """quotient_groupoid tests normality on one element per coset; it
    refuses exactly the parts the all-element test refuses, over every
    subgroup of S4, A4, D4, V4 and Z6 and every wide sub-bundle of the
    isotropy bundles of the catalog, of S3 over two points and of the
    bundle S3 + Z2."""
    seen = Counter()
    cases = [(group_groupoid(t), s) for t in lattice_groups() for s in subgroups_of(t)]
    s3 = symmetric_table(3)
    bundles = [*catalog.values(), product_form(Universe("B2", "xy"), s3)]
    bundles.append(group_bundle([s3, cyclic_table(2)]))
    cases += [(g, members) for g in bundles for members in wide_sub_bundles(g)]
    for g, members in cases:
        normal = normal_at_every_element(g, frozenset(members))
        try:
            quotient_groupoid(g, members)
        except PreconditionFailed as err:
            assert not normal and "not normal" in str(err), (g, members)
        else:
            assert normal, (g, members)
        seen[normal] += 1
    assert seen == {True: 59, False: 70}, seen


def test_homogeneous_identifications_match_the_oracle(grid):
    """Over left multiplication, the unit action and the coset spaces of
    the transitive grid members, by every wide subgroupoid of those of
    at most eight elements."""
    for g in grid.values():
        if len(g.orbits()) != 1:
            continue
        units = {e: e for e in g.units}
        cases = [(left_mult_action(g), units), (unit_action(g), units)]
        parts = set(wide_parts(g))
        if len(g.elements) <= 8:
            parts.update(proper_wide_subgroupoids(g))
        for part in sorted(parts, key=sorted):
            space = coset_space(g, part)
            cases.append((space.action, {e: space.projection[e] for e in g.units}))
        for action, section in cases:
            ref, psi = homogeneous_identification(action, section)
            assert homogeneous_violation(action, section, ref, psi) is None, action


def test_transitive_action_classification_matches_the_oracle(catalog):
    """classify_transitive_action over the standard actions of product
    forms and the actions product forms carry by left multiplication and
    on their units, at every choice of z0."""
    pq, three = Universe("PQ", "pq"), Universe("T", "123")
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    s3 = symmetric_table(3)
    permute = {(g, x): g[int(x) - 1] for g in s3.elements for x in three}
    fibres = {
        "Z2": [(pq, swap), (pq, {(g, x): x for g in "01" for x in pq})],
        "S3": [(three, permute)],
    }
    for space, table, pf in product_forms(catalog):
        actions = [left_mult_action(pf), unit_action(pf)]
        for fiber, act in fibres.get(table.name, ()):
            actions.append(product_form_action(space, table, fiber, act))
        for action in actions:
            for z0 in action.carrier:
                fiber, fiber_act, psi = classify_transitive_action(
                    space, table, action, z0
                )
                verdict = classification_violation(
                    space, table, action, fiber, fiber_act, psi
                )
                assert verdict is None, (action, z0, verdict)


def test_ad_matches_the_oracle(grid):
    for g in grid.values():
        if len(g.elements) <= 8:
            for b in all_bisections(g):
                assert ad_violation(g, b.members, ad(b)) is None, b


def same_witness(found, ref) -> bool:
    """Both None, or the same side, probe and rows of w1 and w2."""
    if found is None or ref is None:
        return found is ref
    ours = (found.side, found.probe, found.w1._rows, found.w2._rows)
    return ours == (ref.side, ref.probe, ref.w1._rows, ref.w2._rows)


def test_non_epi_witnesses_match_the_object_level_hunt(catalog):
    """find_non_epi_witness gives the witness of non_epi_reference, or
    None with it, on every morphism between catalog members, on Z3 and Z4
    turning the points of P3 and P4, and between generated groupoids,
    some indexed out of name order; is_surjective agrees with the image
    read by name."""
    seen = Counter()

    def check(h):
        found, ref = find_non_epi_witness(h), non_epi_reference(h)
        assert same_witness(found, ref), h
        surjective = h.image_elements == frozenset(h.target.elements)
        assert is_surjective(h) == surjective, h
        seen["twists" if surjective and found else "none" if surjective else "pairs"] += 1

    pool = catalog.values()
    for h in (h for a in pool for b in pool for h in enum_morphisms(a, b)):
        check(h)
    assert seen == {"twists": 27, "none": 71, "pairs": 226}, seen
    # every turn but the identity is a twist witness, and the first in
    # all_bisections order is not the first that the depth-first walk
    # of the sections meets, so the witness pins the order too
    for n in (3, 4):
        points = "1234"[:n]
        turn = {(str(g), x): points[(int(x) - 1 + g) % n] for g in range(n) for x in points}
        h = group_action_morphism(cyclic_table(n), Universe(f"X{n}", points), turn)
        check(h)
    assert seen["twists"] == 29, seen

    @seed(4747)
    @settings(max_examples=40, deadline=None)
    @given(source=generated_groupoids(), target=generated_groupoids(max_size=12))
    def generated(source, target):
        for h in enum_morphisms(source, target)[:24]:
            check(h)
        seen["generated"] += 1

    generated()
    assert seen["generated"] >= 30 and seen["twists"] >= 30, seen


def test_bisections_where_fiber_order_is_not_index_order():
    """Pair(W) on the points a, a+ and b has its units in name order
    a+,a+, a,a, b,b, at indices 4, 0 and 8, so a section in `_fibers`
    order is not in right-unit index order; so has Pair(W) x Z2.  On
    both, bisection_group is subset_mult's table, induced_hom of the
    identity is the images, and find_non_epi_witness is the object-level
    hunt on every morphism from a source that gives twist witnesses."""
    pw = pair_groupoid(Universe("W", ("a", "a+", "b")), "PW")
    pwz = cartesian_product(pw, group_groupoid(cyclic_table(2)))
    assert list(pw._fibers) == [4, 0, 8] and list(pwz._fibers) == [8, 0, 16]
    seen = Counter()
    s3 = group_groupoid(symmetric_table(3))
    for g, count, sources in (
        (pw, 6, (group_groupoid(cyclic_table(3)), s3, pw)),
        (pwz, 48, (group_groupoid(cyclic_table(6)), s3, pwz)),
    ):
        assert len(all_bisections(g)) == count
        expected = _subset_mult_table(g)
        table = bisection_group(g)
        assert {(a, b): table.mult(a, b) for a, b in expected} == expected
        hom = induced_hom(identity_morphism(g))
        assert list(hom.items()) == [(b, b) for b in all_bisections(g)]
        for h in (h for src in sources for h in enum_morphisms(src, g)):
            found = find_non_epi_witness(h)
            assert same_witness(found, non_epi_reference(h)), h
            seen[g.name, found is not None and found.probe == g] += 1
    assert seen[pw.name, True] >= 2 and seen[pwz.name, True] >= 8, seen


def test_non_epi_twists_are_made_once_per_target(fresh_catalog, monkeypatch):
    """Three passes of hunts into pt, Z2, S2 and P2 make each target's
    twists once, keep them on the target as rows, give the same witnesses
    each pass, and leave nothing for the cyclic collector."""
    cat, made, make = fresh_catalog, [], bisection._twists

    def counted(groupoid):
        made.append(groupoid)
        return make(groupoid)

    monkeypatch.setattr(bisection, "_twists", counted)
    keys = ("pt", "Z2", "S2", "P2")
    family = [h for a in keys for b in keys for h in enum_morphisms(cat[a], cat[b])]
    hunts = [h for h in family if is_surjective(h)]
    passes = [[find_non_epi_witness(h) for h in hunts] for _ in range(3)]
    assert len(hunts) == 14 and sum(w is not None for w in passes[0]) == 1
    assert all(map(same_witness, passes[0], passes[1]))
    assert all(map(same_witness, passes[0], passes[2]))
    assert sorted(g.name for g in made) == sorted(keys)
    assert [len(vars(cat[k])["_twists"]) for k in keys] == [0, 0, 0, 1]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        del passes, made
        family.clear()
        hunts.clear()
        cat.clear()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_non_epi_twists_are_kept_up_to_the_bound(grid):
    """Twists are kept where bisections times elements is at most 2^12:
    on P5 (120 x 25) and Z64 (64 x 64), not on Z65 or P6 (720 x 36),
    which keep nothing and give the object-level hunt's witness.  The
    bound is counted from the orbit shapes, which count the bisections."""
    for g in grid.values():
        assert _bisection_count(g) == len(all_bisections(g)), g
    p5, p6 = (pair_groupoid(Universe(f"X{n}", "123456"[:n])) for n in (5, 6))
    z64, z65 = (group_groupoid(cyclic_table(n)) for n in (64, 65))
    for g, kept in ((p5, 119), (z64, 0), (z65, None), (p6, None)):
        assert find_non_epi_witness(identity_morphism(g)) is None
        twists = vars(g).get("_twists")
        assert (None if twists is None else len(twists)) == kept, g
    assert (_bisection_count(p5), _bisection_count(p6)) == (120, 720)
    turn = {(g, x): str((int(g) + int(x) - 1) % 6 + 1) for g in "012345" for x in "123456"}
    space = p6.elements.factors[0]
    h = group_action_morphism(cyclic_table(6), space, turn)
    assert h.target == p6 and is_surjective(h)
    found = find_non_epi_witness(h)
    assert found is not None and same_witness(found, non_epi_reference(h))
    assert "_twists" not in vars(h.target)


def test_only_named_checks_run_on_derived_data():
    """Every `derived:` law the package raises is one the tests name, so
    a new run-time re-proof of a derived construction comes with a test
    that reaches it, or goes."""
    source = "".join(
        path.read_text() for path in Path(groupoids.__file__).parent.glob("*.py")
    )
    laws = set()
    for law in re.findall(r'f?"derived:([^"]*)"', source):
        # check_cancellation's law is "derived:{witness.side}-witness"
        sides = ("mono", "epi") if "{witness.side}" in law else ("",)
        laws |= {law.replace("{witness.side}", side) for side in sides}
    assert laws == NAMED_DERIVED_LAWS


def test_each_construction_checks_its_subgroupoid_argument_once(monkeypatch):
    """The five constructions that take a subgroupoid make one
    SubgroupoidRef of it, whether it comes as a ref of the groupoid
    itself, a ref of an equal but distinct groupoid or a set of members,
    and give the same results; homogeneous_identification makes one for
    its marking subgroupoid."""
    z3, copy = group_groupoid(cyclic_table(3)), group_groupoid(cyclic_table(3))
    assert z3 == copy and z3 is not copy
    # the trivial subgroup: wide, proper, normal, and 1 is no involution
    own, other = SubgroupoidRef(z3, {"0"}), SubgroupoidRef(copy, {"0"})
    acting = left_mult_action(own.as_groupoid())
    constructions = {
        "wide_inclusion": lambda part: wide_inclusion(z3, part),
        "separating_pair": lambda part: separating_pair(z3, part)[1:],
        "coset_space": lambda part: coset_space(z3, part).action,
        "quotient_groupoid": lambda part: quotient_groupoid(z3, part),
        "induced_action": lambda part: induced_action(z3, part, acting),
    }
    made = []
    init = SubgroupoidRef.__init__
    monkeypatch.setattr(
        SubgroupoidRef, "__init__", lambda ref, *args: made.append(args) or init(ref, *args)
    )
    for name, construct in constructions.items():
        results = []
        for part in (own, other, frozenset({"0"})):
            made.clear()
            results.append(construct(part))
            assert made == [(z3, frozenset({"0"}))], (name, part)
        assert results[1] == results[0] and results[2] == results[0], name
    made.clear()
    ref, _ = homogeneous_identification(left_mult_action(z3), {"0": "0"})
    assert made == [(z3, {"0"})] and ref == own
