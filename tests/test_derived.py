"""The derived constructions, each held to an independent oracle.

The package does not re-check what a derived construction returns:
each result is a theorem of its checked inputs, argued in the module
docstrings.  The cases here run every such construction over the grid
of tests/test_trusted.py and the morphisms between catalog members, and
hold each result to an oracle in oracles.py that reads the structures
element by element.  The last test keeps the checks that do run on
derived data to the ones the tests name.
"""

import itertools
import re
from collections import Counter
from pathlib import Path

import pytest
from oracles import (
    ad_violation,
    classification_violation,
    decomposition_violation,
    factorization_violation,
    group_classification_violation,
    homogeneous_violation,
    kernel_violation,
    pairing_violation,
    quotient_violation,
    separating_violation,
)
from test_trusted import grid_groupoids, wide_parts

import groupoids
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
from groupoids.bisection import ad, all_bisections
from groupoids.builders import cyclic_table, group_groupoid, product_form, symmetric_table
from groupoids.groupoid import SubgroupoidRef
from groupoids.morphism import (
    Morphism,
    classify_into_group,
    component_projection,
    compose_morphisms,
    epi_mono_factorization,
    identity_morphism,
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
from groupoids.search import enum_morphisms

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
