"""Acceptance suite: fifteen numbered end-to-end criteria.

Each test prints one pass/fail line (run with -s to see them) and
enforces a wall-clock budget.  All checks are exact.
"""

import itertools
import json
import time
from contextlib import contextmanager

import pytest

from groupoids.action import (
    Action,
    GammaSet,
    action_groupoid,
    action_to_pair_morphism,
    classical_to_relational,
    classify_transitive_action,
    coset_space,
    homogeneous_identification,
    is_equivariant,
    left_mult_action,
    morphism_to_action,
    product_form_action,
    quotient_groupoid,
    right_commuting_to_morphism,
    unit_action,
)
from groupoids.bisection import (
    Bisection,
    ad,
    all_bisections,
    bisection_group,
    image_bisection,
    induced_hom,
    is_bisection,
    subset_mult,
)
from groupoids.builders import (
    GroupTable,
    check_group_action,
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    symmetric_table,
    trivial_table,
)
from groupoids.errors import AxiomViolation, IsMonomorphism
from groupoids.groupoid import Groupoid, disjoint_union, validate_groupoid
from groupoids.morphism import (
    Morphism,
    compose_morphisms,
    epi_mono_factorization,
    find_non_epi_witness,
    group_action_morphism,
    identity_morphism,
    is_mono,
    is_surjective,
    kernel,
    left_regular,
    mono_witness,
    product_pairing,
    quotient_by_kernel,
    separating_pair,
    to_orbit_pair,
    union_projections,
)
from groupoids.relation import Universe, pair_name
from groupoids.search import (
    check_cancellation,
    enum_actions,
    enum_actions_direct,
    enum_morphisms,
    enum_morphisms_naive,
    find_groupoid_isomorphism,
)
from groupoids import cli

FAMILY_KEYS = ("pt", "Z2", "S2", "P2")


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        spent = time.perf_counter() - start
        print(f"criterion {number:02d} FAIL {label} ({spent:.2f}s)")
        raise
    spent = time.perf_counter() - start
    status = "PASS" if spent < budget else "FAIL"
    print(f"criterion {number:02d} {status} {label} ({spent:.2f}s)")
    assert spent < budget, f"criterion {number} exceeded its {budget}s budget"


def small_members(catalog):
    return [g for g in catalog.values() if len(g.elements) <= 8]


def subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def family(catalog):
    out = {}
    for a, b in itertools.product(FAMILY_KEYS, repeat=2):
        out[(a, b)] = enum_morphisms(catalog[a], catalog[b])
    return out


def translation_morphism():
    """Z4 translating itself, packaged as a morphism into the pair
    groupoid over four points."""
    z4 = group_groupoid(cyclic_table(4))
    space = Universe("X", ("0", "1", "2", "3"))
    graph = [
        (pair_name(str((int(g) + int(x)) % 4), x), g)
        for g in z4.elements
        for x in space
    ]
    return Morphism(z4, pair_groupoid(space), graph)


def test_criterion_01_axiom_suite(catalog):
    with criterion(1, "axiom suite", 1.0):
        for g in catalog.values():
            rebuilt = validate_groupoid(
                g.name, tuple(g.elements), g.units, g.inverse, g.table
            )
            assert rebuilt.same_structure(g)

        def z2_data():
            z2 = catalog["Z2"]
            return (
                list(z2.elements),
                list(z2.units),
                dict(z2.inverse),
                list(z2.table),
            )

        # one mutation per failure mode, each reported at the right law
        elements, units, inverse, table = z2_data()
        table.remove(("0", "1", "1"))
        with pytest.raises(AxiomViolation) as err:
            Groupoid("Z2", elements, units, inverse, table)
        assert err.value.law == "m(s(g),g)-in-units"

        elements, units, inverse, table = z2_data()
        inverse["1"] = "0"
        with pytest.raises(AxiomViolation) as err:
            Groupoid("Z2", elements, units, inverse, table)
        assert err.value.law == "s2=id"

        elements, units, inverse, table = z2_data()
        units.append("1")
        with pytest.raises(AxiomViolation) as err:
            Groupoid("Z2", elements, units, inverse, table)
        assert err.value.law == "m(exid)=id"

        elements, units, inverse, table = z2_data()
        table.append(("1", "0", "0"))
        with pytest.raises(AxiomViolation) as err:
            Groupoid("Z2", elements, units, inverse, table)
        assert err.value.law == "m(mxid)=m(idxm)"

        s2 = catalog["S2"]
        with pytest.raises(AxiomViolation) as err:
            Groupoid("S2", tuple(s2.elements), ("p",), s2.inverse, s2.table)
        assert err.value.law == "m(exid)=id"


def test_criterion_02_definition_equivalence(catalog):
    with criterion(2, "definition equivalence", 1.0):
        for g in catalog.values():
            s = dict(g.inverse)
            by_pair = {}
            for out, a, b in g.table:
                assert (a, b) not in by_pair, "duplicate product entry"
                by_pair[(a, b)] = out

            for x in g.elements:
                assert s[s[x]] == x
                assert (x, s[x]) in by_pair and (s[x], x) in by_pair
            el = {x: by_pair[(x, s[x])] for x in g.elements}
            er = {x: by_pair[(s[x], x)] for x in g.elements}

            # the product is a mapping defined exactly on matching fibers
            composable = {
                (a, b)
                for a in g.elements
                for b in g.elements
                if er[a] == el[b]
            }
            assert set(by_pair) == composable

            for x in g.elements:
                assert el[x] in g.units and er[x] in g.units
                assert by_pair[(el[x], x)] == x
                assert by_pair[(x, er[x])] == x
                assert by_pair[(x, s[x])] == el[x]
                assert by_pair[(s[x], x)] == er[x]
            for e in g.units:
                assert s[e] == e and el[e] == e and er[e] == e

            for a, b, c in itertools.product(g.elements, repeat=3):
                ab = by_pair.get((a, b))
                bc = by_pair.get((b, c))
                left = by_pair.get((ab, c)) if ab is not None else None
                right = by_pair.get((a, bc)) if bc is not None else None
                assert left == right


def test_criterion_03_oracle_agreement(catalog):
    with criterion(3, "oracle agreement", 60.0):
        checked = 0
        for src, tgt in itertools.product(catalog.values(), repeat=2):
            if len(tgt.elements) * len(src.elements) > 20:
                continue
            fast = {h.graph for h in enum_morphisms(src, tgt)}
            naive = {h.graph for h in enum_morphisms_naive(src, tgt)}
            assert fast == naive, (src.name, tgt.name)
            checked += 1
        assert checked >= 90

        z2, s2, p2, pt = (
            catalog["Z2"],
            catalog["S2"],
            catalog["P2"],
            catalog["pt"],
        )
        assert len(enum_morphisms(z2, z2)) == 2
        assert len(enum_morphisms(s2, s2)) == 4
        # nothing maps the two point pair groupoid into the one point
        # group: kernel elements must fix their unit, and the off
        # diagonal arrows move theirs.  The reverse direction carries
        # exactly one morphism.
        assert len(enum_morphisms(p2, pt)) == 0
        assert len(enum_morphisms(pt, p2)) == 1


def test_criterion_04_category_laws(catalog):
    with criterion(4, "category laws", 60.0):
        fam = family(catalog)
        graphs = {
            pair: {h.graph for h in morphisms}
            for pair, morphisms in fam.items()
        }

        for a, b, c in itertools.product(FAMILY_KEYS, repeat=3):
            for h in fam[(a, b)]:
                for k in fam[(b, c)]:
                    composite = compose_morphisms(k, h)
                    assert composite.graph in graphs[(a, c)]

        for a, b, c, d in itertools.product(FAMILY_KEYS, repeat=4):
            for h in fam[(a, b)]:
                for k in fam[(b, c)]:
                    for l in fam[(c, d)]:
                        left = compose_morphisms(
                            l, compose_morphisms(k, h)
                        )
                        right = compose_morphisms(
                            compose_morphisms(l, k), h
                        )
                        assert left == right

        for (a, b), morphisms in fam.items():
            for h in morphisms:
                assert compose_morphisms(identity_morphism(h.target), h) == h
                assert compose_morphisms(h, identity_morphism(h.source)) == h


def test_criterion_05_kernel_suite(catalog):
    with criterion(5, "kernel suite", 120.0):
        fam = family(catalog)
        for morphisms in fam.values():
            for h in morphisms:
                src = h.source
                members = kernel(h).members

                # domain units belong to the kernel
                assert h.domain_elements & frozenset(src.units) <= members
                # the kernel sits inside the isotropy bundle
                for g in members:
                    assert src.e_left(g) == src.e_right(g)
                # closed under inverse
                for g in members:
                    assert src.inverse[g] in members
                # closed under defined products
                for g1, g2 in itertools.product(members, repeat=2):
                    prod = src.mult(g1, g2)
                    if prod is not None:
                        assert prod in members
                # closed under conjugation by arbitrary arrows
                for g in members:
                    for g1 in src.elements:
                        if src.e_right(g1) == src.e_left(g):
                            conj = src.mult(
                                src.mult(g1, g), src.inverse[g1]
                            )
                            assert conj in members
                # conjugation by any bisection fixes the kernel setwise
                for b in all_bisections(src):
                    twist = dict((g, d) for d, g in ad(b).graph)
                    assert {twist[g] for g in members} == members


def test_criterion_06_mono_suite(catalog):
    with criterion(6, "mono suite", 120.0):
        fam = family(catalog)
        for morphisms in fam.values():
            for h in morphisms:
                witness = check_cancellation(h, "left")
                assert (witness is None) == is_mono(h)
                if witness is not None:
                    assert witness.w1 != witness.w2
                    assert witness.verify(h)
                if is_mono(h):
                    with pytest.raises(IsMonomorphism):
                        mono_witness(h)
                else:
                    built = mono_witness(h)
                    assert built.w1 != built.w2
                    assert built.verify(h)

        # a transitive source with trivial isotropy only maps injectively
        p2 = catalog["P2"]
        for tgt in catalog.values():
            for h in enum_morphisms(p2, tgt):
                assert is_mono(h)

        # collapsing each orbit to a pair groupoid kills exactly the
        # arrows with equal endpoints
        for g in catalog.values():
            bundle = {
                x for x in g.elements if g.e_left(x) == g.e_right(x)
            }
            assert kernel(to_orbit_pair(g)).members == frozenset(bundle)


def test_criterion_07_epi_suite(catalog):
    with criterion(7, "epi suite", 120.0):
        branches = set()
        swept = 0
        for g in small_members(catalog):
            units = frozenset(g.units)
            extras = sorted(set(g.elements) - units)
            for r in range(len(extras)):
                for combo in itertools.combinations(extras, r):
                    members = units | set(combo)
                    if not g.is_subgroupoid(members):
                        continue
                    probe, k1, k2 = separating_pair(g, members)
                    assert k1 != k2
                    inside1 = {p for p in k1.graph if p[1] in members}
                    inside2 = {p for p in k2.graph if p[1] in members}
                    assert inside1 == inside2
                    outside = set(g.elements) - members
                    moved = any(g.inverse[x] != x for x in outside)
                    branches.add("translated" if moved else "isotropy")
                    swept += 1
        assert swept >= 8
        assert branches == {"translated", "isotropy"}

        # a surjection can still fail right cancellation: translation
        # of Z4 on itself admits a conjugation twist fixing it
        trans = translation_morphism()
        assert is_surjective(trans) and is_mono(trans)
        witness = find_non_epi_witness(trans)
        assert witness is not None and witness.side == "epi"
        assert witness.verify(trans)
        assert identity_morphism(trans.target) in (witness.w1, witness.w2)

        lreg = left_regular(catalog["Z2"])
        witness = find_non_epi_witness(lreg)
        assert witness is not None and witness.verify(lreg)

        # all bijections of three points, mapped onto the pair groupoid:
        # onto and injective yet not bijective as a relation
        s3 = symmetric_table(3)
        space = Universe("T", ("1", "2", "3"))
        nat = {(g, x): g[int(x) - 1] for g in s3.elements for x in "123"}
        h = group_action_morphism(s3, space, nat)
        assert is_surjective(h) and is_mono(h)
        assert len(h.source.elements) == 6 and len(h.target.elements) == 9


def test_criterion_08_bisection_suite(catalog):
    with criterion(8, "bisection suite", 300.0):
        # subset product characterizations against the fiber definition
        for g in small_members(catalog):
            units = frozenset(g.units)
            for combo in subsets(g.elements):
                a = frozenset(combo)
                sa = frozenset(g.inverse[x] for x in a)
                asa = subset_mult(g, a, sa)
                saa = subset_mult(g, sa, a)
                right_injective = len({g.e_right(x) for x in a}) == len(a)
                left_injective = len({g.e_left(x) for x in a}) == len(a)
                assert (asa <= units) == right_injective
                assert (saa <= units) == left_injective
                full = (
                    right_injective
                    and left_injective
                    and {g.e_right(x) for x in a} == set(units)
                    and {g.e_left(x) for x in a} == set(units)
                )
                assert (asa == units and saa == units) == full
                assert is_bisection(g, a) == full

        # the bisections of the three point pair groupoid form S3
        table = bisection_group(catalog["P3"])
        assert len(table.elements) == 6
        assert (
            find_groupoid_isomorphism(
                group_groupoid(table), group_groupoid(symmetric_table(3))
            )
            is not None
        )

        fam = family(catalog)
        vacuous = 0
        for morphisms in fam.values():
            for h in morphisms:
                src_bs = all_bisections(h.source)
                for b in src_bs:
                    image = image_bisection(h, b)
                    assert is_bisection(h.target, image.members)
                    flipped = Bisection(
                        h.source, {h.source.inverse[x] for x in b.members}
                    )
                    assert image_bisection(h, flipped).members == frozenset(
                        h.target.inverse[d] for d in image.members
                    )
                for b1, b2 in itertools.product(src_bs, repeat=2):
                    prod = Bisection(
                        h.source, subset_mult(h.source, b1.members, b2.members)
                    )
                    assert image_bisection(h, prod).members == subset_mult(
                        h.target,
                        image_bisection(h, b1).members,
                        image_bisection(h, b2).members,
                    )
                    # conjugations compose and intertwine with h
                    assert compose_morphisms(ad(b1), ad(b2)) == ad(prod)
                for b in src_bs:
                    assert compose_morphisms(h, ad(b)) == compose_morphisms(
                        ad(image_bisection(h, b)), h
                    )
                hom = induced_hom(h)
                injective = len(set(hom.values())) == len(hom)
                # monomorphisms always induce injective bisection maps;
                # the converse needs the whole groupoid as domain.  A
                # morphism defined on one orbit of the two point set
                # groupoid is not mono, but the only bisection there is
                # the unit set, so injectivity holds vacuously.
                if is_mono(h):
                    assert injective
                if h.domain_elements == frozenset(h.source.elements):
                    assert injective == is_mono(h)
                else:
                    assert not is_mono(h)
                    if injective:
                        vacuous += 1
        assert vacuous > 0


def prop_action_laws(act):
    """Re-derive the pointwise action laws from the raw triples."""
    g, points, triple_set = act.groupoid, list(act.carrier), set(act.triples)
    rho = {}
    for x in points:
        hits = [e for e in g.units if (x, e, x) in triple_set]
        assert len(hits) == 1
        rho[x] = hits[0]
    seen = {(gamma, x) for _, gamma, x in triple_set}
    assert seen == {
        (gamma, x)
        for gamma in g.elements
        for x in points
        if g.e_right(gamma) == rho[x]
    }
    table = {}
    for y, gamma, x in triple_set:
        assert rho[y] == g.e_left(gamma)
        assert (x, g.inverse[gamma], y) in triple_set
        assert (gamma, x) not in table
        table[(gamma, x)] = y
    for x in points:
        assert table[(rho[x], x)] == x
    for g1, g2 in g.composable():
        for x in points:
            step = table.get((g2, x))
            chained = table.get((g1, step)) if step is not None else None
            assert chained == table.get((g.mult(g1, g2), x))


def test_criterion_09_action_suite(catalog):
    with criterion(9, "action suite", 300.0):
        carriers = (
            Universe("W1", ("u",)),
            Universe("W2", ("u", "v")),
            Universe("W3", ("u", "v", "w")),
        )
        for g in catalog.values():
            for space in carriers:
                via_pairs = enum_actions(g, space)
                direct = enum_actions_direct(g, space)
                assert {a.triples for a in via_pairs} == {
                    a.triples for a in direct
                }
                for act in via_pairs:
                    prop_action_laws(act)
                    h = action_to_pair_morphism(act)
                    assert morphism_to_action(h, space) == act
                for h in enum_morphisms(g, pair_groupoid(space)):
                    act = morphism_to_action(h, space)
                    assert action_to_pair_morphism(act) == h

        z2 = catalog["Z2"]
        pq = Universe("PQ", ("p", "q"))
        swap = {
            ("0", "p"): "p",
            ("0", "q"): "q",
            ("1", "p"): "q",
            ("1", "q"): "p",
        }
        moves = classical_to_relational(
            z2, pq, {x: "0" for x in pq}, swap
        )
        assert (
            find_groupoid_isomorphism(action_groupoid(moves), catalog["TR"])
            is not None
        )


def class_representatives(space):
    """Least member of each coset class, keyed by class label."""
    reps = {}
    for member, label in space.projection.items():
        if label not in reps or member < reps[label]:
            reps[label] = member
    return reps


def test_criterion_10_quotient_suite(catalog):
    with criterion(10, "quotient suite", 120.0):
        # cosets by the whole groupoid: the unit action in disguise
        for g in catalog.values():
            cs = coset_space(g, g.elements)
            assert len(cs.classes) == len(g.units)
            reps = class_representatives(cs)
            relabel = {
                label: g.e_left(member) for label, member in reps.items()
            }
            assert len(set(relabel.values())) == len(relabel)
            assert is_equivariant(
                relabel,
                GammaSet(cs.carrier, cs.action),
                GammaSet(unit_action(g).carrier, unit_action(g)),
            )

        # cosets by the isotropy bundle: pairs of orbit-related units
        for g in catalog.values():
            orbit_index = {}
            for block in g.orbits():
                for e in block:
                    orbit_index[e] = block
            bundle = {
                x for x in g.elements if g.e_left(x) == g.e_right(x)
            }
            cs = coset_space(g, bundle)
            model_pairs = [
                (a, b)
                for a in g.units
                for b in g.units
                if orbit_index[a] == orbit_index[b]
            ]
            carrier = Universe(
                f"{g.name}.rel",
                tuple(sorted(pair_name(a, b) for a, b in model_pairs)),
            )
            triples = [
                (
                    pair_name(g.e_left(gamma), b),
                    gamma,
                    pair_name(g.e_right(gamma), b),
                )
                for gamma in g.elements
                for b in g.units
                if orbit_index[g.e_right(gamma)] == orbit_index[b]
            ]
            model = Action(g, carrier, triples)
            assert len(cs.classes) == len(model_pairs)
            reps = class_representatives(cs)
            relabel = {
                label: pair_name(g.e_left(member), g.e_right(member))
                for label, member in reps.items()
            }
            assert len(set(relabel.values())) == len(relabel)
            assert is_equivariant(
                relabel,
                GammaSet(cs.carrier, cs.action),
                GammaSet(carrier, model),
            )

        # cosets of a pair groupoid by an equivalence relation:
        # points times blocks
        p3 = catalog["P3"]
        points = ("1", "2", "3")
        block_of = {"1": "1", "2": "1", "3": "3"}
        cs = coset_space(p3, set(catalog["EQ"].elements))
        assert len(cs.classes) == 6
        carrier = Universe(
            "XY",
            tuple(
                sorted(
                    pair_name(x, y) for x in points for y in ("1", "3")
                )
            ),
        )
        decode = {
            pair_name(a, b): (a, b) for a in points for b in points
        }
        triples = [
            (pair_name(a, y), gamma, pair_name(b, y))
            for gamma in p3.elements
            for a, b in (decode[gamma],)
            for y in ("1", "3")
        ]
        model = Action(p3, carrier, triples)
        reps = class_representatives(cs)
        relabel = {}
        for label, member in reps.items():
            a, b = decode[member]
            relabel[label] = pair_name(a, block_of[b])
        assert len(set(relabel.values())) == len(relabel)
        assert is_equivariant(
            relabel,
            GammaSet(cs.carrier, cs.action),
            GammaSet(carrier, model),
        )

        z4 = catalog["Z4"]
        quotient, _ = quotient_groupoid(z4, {"0", "2"})
        assert find_groupoid_isomorphism(quotient, catalog["Z2"]) is not None

        fam = family(catalog)
        for morphisms in fam.values():
            for h in morphisms:
                if h.domain_elements == frozenset(h.source.elements):
                    pi, reduced = quotient_by_kernel(h)
                    assert is_mono(reduced)
                    assert compose_morphisms(reduced, pi) == h
                onto, injective = epi_mono_factorization(h)
                assert is_surjective(onto)
                assert is_mono(injective)
                assert compose_morphisms(injective, onto) == h


def check_homogeneous(act, section):
    ref, psi = homogeneous_identification(act, section)
    cs = coset_space(act.groupoid, ref.members)
    assert len(set(psi.values())) == len(psi) == len(act.carrier)
    assert len(cs.classes) == len(act.carrier)
    assert is_equivariant(
        psi,
        GammaSet(act.carrier, act),
        GammaSet(cs.carrier, cs.action),
    )
    return ref


def test_criterion_11_homogeneous_classification(catalog):
    with criterion(11, "homogeneous and classification", 60.0):
        z4 = catalog["Z4"]
        ref = check_homogeneous(left_mult_action(z4), {"0": "0"})
        assert ref.members == frozenset(z4.units)

        p2 = catalog["P2"]
        ref = check_homogeneous(unit_action(p2), {e: e for e in p2.units})
        assert ref.members == frozenset(p2.elements)

        carrier = Universe("X12", ("x1", "x2"))
        point_of = {"x,x": "x1", "y,y": "x2"}
        triples = [
            (point_of[p2.e_left(gamma)], gamma, point_of[p2.e_right(gamma)])
            for gamma in p2.elements
        ]
        swapping = Action(p2, carrier, triples)
        ref = check_homogeneous(swapping, dict(point_of))
        assert ref.members == frozenset(p2.elements)

        # classification of an action of a transitive groupoid in
        # product form: fiber, fiber group action, matching bijection
        base = Universe("E", ("x", "y"))
        fiber_points = Universe("Z", ("u0", "u1"))
        table = cyclic_table(2)
        act = {
            (g, z): f"u{(int(g) + int(z[1])) % 2}"
            for g in table.elements
            for z in fiber_points
        }
        big = product_form_action(base, table, fiber_points, act)
        fiber, fiber_act, psi = classify_transitive_action(base, table, big)
        assert len(fiber) == len(fiber_points)
        check_group_action(table, fiber, fiber_act)
        assert len(set(psi.values())) == len(psi) == len(big.carrier)
        assert set(psi.values()) == set(big.carrier)
        model = product_form_action(base, table, fiber, fiber_act)
        assert set(psi) == set(model.carrier)
        assert is_equivariant(
            psi,
            GammaSet(model.carrier, model),
            GammaSet(big.carrier, big),
        )


def test_criterion_12_pairing_uniqueness(catalog):
    with criterion(12, "pairing uniqueness", 120.0):
        targets = (catalog["Z2"], catalog["S2"])
        sources = [catalog[k] for k in FAMILY_KEYS]
        checked = 0
        for g1, g2 in itertools.product(targets, repeat=2):
            union, q1, q2 = union_projections(g1, g2)
            for lam in sources:
                candidates = enum_morphisms(lam, union)
                for p1 in enum_morphisms(lam, g1):
                    for p2 in enum_morphisms(lam, g2):
                        paired = product_pairing(p1, p2)
                        matches = [
                            q
                            for q in candidates
                            if compose_morphisms(q1, q) == p1
                            and compose_morphisms(q2, q) == p2
                        ]
                        assert matches == [paired]
                        checked += 1
        assert checked >= 30


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_13_cli_contract(catalog, capsys, tmp_path):
    with criterion(13, "cli contract", 10.0):
        for key, g in catalog.items():
            text = cli.serialize(cli.payload_of_groupoid(g))
            loaded = cli.groupoid_from_payload(json.loads(text), text)
            assert cli.serialize(cli.payload_of_groupoid(loaded)) == text, key

        z2 = catalog["Z2"]
        lreg = left_regular(z2)
        text = cli.serialize(cli.payload_of_morphism(lreg, "l"))
        payload = json.loads(text)
        loaded, name = cli.morphism_from_payload(payload, text, str(tmp_path))
        assert cli.serialize(cli.payload_of_morphism(loaded, name)) == text

        pq = Universe("PQ", ("p", "q"))
        swap = {
            ("0", "p"): "p",
            ("0", "q"): "q",
            ("1", "p"): "q",
            ("1", "q"): "p",
        }
        moves = classical_to_relational(z2, pq, {x: "0" for x in pq}, swap)
        text = cli.serialize(cli.payload_of_action(moves, "swap"))
        payload = json.loads(text)
        loaded, name = cli.action_from_payload(payload, text, str(tmp_path))
        assert cli.serialize(cli.payload_of_action(loaded, name)) == text

        def doc(name, text):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        z2_doc = doc("z2.json", cli.serialize(cli.payload_of_groupoid(z2)))
        p3_doc = doc(
            "p3.json", cli.serialize(cli.payload_of_groupoid(catalog["P3"]))
        )
        tr_doc = doc(
            "tr.json", cli.serialize(cli.payload_of_groupoid(catalog["TR"]))
        )

        broken = json.loads(open(z2_doc, encoding="utf-8").read())
        broken["compose"] = broken["compose"][1:]
        broken_doc = doc("broken.json", cli.serialize(broken))
        mangled_doc = doc("mangled.json", "{\n  \"kind\": \"groupoid\",\n")
        missing_doc = str(tmp_path / "nowhere.json")

        lreg_doc = doc(
            "lreg.json", cli.serialize(cli.payload_of_morphism(lreg, "l"))
        )
        pt = catalog["pt"]
        collapse = Morphism(z2, pt, (("0", g) for g in z2.elements))
        collapse_doc = doc(
            "collapse.json",
            cli.serialize(cli.payload_of_morphism(collapse, "c")),
        )
        bad_morphism = json.loads(open(lreg_doc, encoding="utf-8").read())
        bad_morphism["graph"][0] = ["0", "0", "0"]
        bad_morphism_doc = doc("badmor.json", cli.serialize(bad_morphism))

        swap_doc = doc(
            "swap.json", cli.serialize(cli.payload_of_action(moves, "swap"))
        )
        dropped = json.loads(open(swap_doc, encoding="utf-8").read())
        dropped["graph"] = dropped["graph"][1:]
        dropped_doc = doc("dropped.json", cli.serialize(dropped))
        short = json.loads(open(swap_doc, encoding="utf-8").read())
        short["graph"][0] = ["p", "0"]
        short_doc = doc("short.json", cli.serialize(short))

        out_doc = str(tmp_path / "out.json")
        cases = {
            "build": (
                ["build", "group", "cyclic:2", "--output", out_doc],
                ["build", "equiv", "--block", "1,2", "--block", "2"],
                ["build", "group", "nosuch:3"],
            ),
            "validate": (
                ["validate", z2_doc],
                ["validate", broken_doc],
                ["validate", mangled_doc],
            ),
            "info": (
                ["info", z2_doc],
                ["info", broken_doc],
                ["info", missing_doc],
            ),
            "restrict": (
                ["restrict", p3_doc, "1,1", "2,2"],
                ["restrict", z2_doc, "1"],
                ["restrict", missing_doc, "0"],
            ),
            "union": (
                ["union", z2_doc, z2_doc],
                ["union", z2_doc, broken_doc],
                ["union", z2_doc, missing_doc],
            ),
            "product": (
                ["product", z2_doc, z2_doc],
                ["product", broken_doc, z2_doc],
                ["product", missing_doc, z2_doc],
            ),
            "decompose": (
                ["decompose", tr_doc],
                ["decompose", broken_doc],
                ["decompose", lreg_doc],
            ),
            "morphism": (
                ["morphism", "validate", lreg_doc],
                ["morphism", "mono", collapse_doc],
                ["morphism", "validate", bad_morphism_doc],
            ),
            "bisections": (
                ["bisections", "list", z2_doc],
                ["bisections", "ad", z2_doc, "0", "1"],
                ["bisections", "list", missing_doc],
            ),
            "action": (
                ["action", "validate", swap_doc],
                ["action", "validate", dropped_doc],
                ["action", "validate", short_doc],
            ),
            "enum": (
                ["enum", "morphisms", z2_doc, z2_doc],
                ["enum", "morphisms", "--naive", p3_doc, p3_doc],
                ["enum", "morphisms", z2_doc, missing_doc],
            ),
        }
        for group, (good, bad, malformed) in cases.items():
            code, _, _ = run_cli(capsys, good)
            assert code == 0, (group, "good", code)
            code, _, _ = run_cli(capsys, bad)
            assert code == 1, (group, "bad", code)
            code, _, _ = run_cli(capsys, malformed)
            assert code == 2, (group, "malformed", code)


def test_criterion_14_two_sided_laws_at_scale():
    # a raw order-120 table and a 144-element groupoid through the
    # checking constructors; associativity once took 12.6 s and 0.68 s
    points = "12345"
    perms = ["".join(p) for p in itertools.permutations(points)]
    mult = {
        (a, b): "".join(a[int(b[i]) - 1] for i in range(5))
        for a in perms
        for b in perms
    }
    with criterion(14, "raw S5 group table", 2.0):
        assert GroupTable("S5", perms, mult) == symmetric_table(5)
    p12 = pair_groupoid(Universe("X", [f"p{i:02d}" for i in range(12)]))
    data = (p12.name, tuple(p12.elements), p12.units, p12.inverse, p12.table)
    with criterion(14, "P(12) validation", 1.0):
        assert validate_groupoid(*data).same_structure(p12)


def test_criterion_14_two_sided_laws_without_the_triple_relation():
    # S5 with a second product at one pair, its left multiplication
    # through the checked Action(...), once with one triple moved, and
    # the morphism read off that action: each built the 1.7M-triple
    # relation once and took 5.7 s, 13.8 s, 12.5 s and 14.9 s.  The
    # offenders are the ones those materialized sides gave.
    s5 = group_groupoid(symmetric_table(5))
    data = (s5.name, tuple(s5.elements), s5.units, s5.inverse)
    table = list(s5.table) + [("12345", "12345", "12354")]
    with criterion(14, "raw S5 with an inserted row", 0.5):
        with pytest.raises(AxiomViolation) as err:
            validate_groupoid(*data, table)
        assert (err.value.law, err.value.offender) == (
            "m(mxid)=m(idxm)",
            ("12345", "12345,12435,12453"),
        )
    lm = left_mult_action(s5)
    with criterion(14, "S5 on itself through Action(...)", 0.5):
        assert Action(s5, s5.elements, lm.triples) == lm
    moved = [
        ("12354", g, x) if (g, x) == ("13254", "13254") else (y, g, x)
        for y, g, x in lm.triples
    ]
    with criterion(14, "S5 on itself with one triple moved", 0.5):
        with pytest.raises(AxiomViolation) as err:
            Action(s5, s5.elements, moved)
        assert (err.value.law, err.value.offender) == (
            "phi(mxid)=phi(idxphi)",
            ("12345", "12354,13245,13254"),
        )
    with criterion(14, "right_commuting_to_morphism on S5", 0.5):
        assert right_commuting_to_morphism(lm, s5) == identity_morphism(s5)


def test_criterion_15_direct_actions_on_four_points(catalog):
    # the direct enumerator once tried all 4^20 tables of S3 on four
    # points and did not finish in ten minutes
    s3 = group_groupoid(symmetric_table(3))
    four = Universe("X4", ("a", "b", "c", "d"))
    via_pairs = {a.triples for a in enum_actions(s3, four)}
    with criterion(15, "S3 on four points, direct", 1.0):
        direct = enum_actions_direct(s3, four)
    assert len(direct) == len(via_pairs) == 34
    assert {a.triples for a in direct} == via_pairs
    with criterion(15, "P3 on four points, direct", 1.0):
        assert enum_actions_direct(catalog["P3"], four) == []
    assert enum_actions(catalog["P3"], four) == []


def test_criterion_16_bisection_group_on_index_rows():
    # Bis(P6) once stored its Cayley table under 518,400 label-pair keys
    # and scanned them for inverses, in 0.42-0.72 s
    p6 = pair_groupoid(Universe("X6", ("1", "2", "3", "4", "5", "6")))
    with criterion(16, "Bis(P6)", 0.5):
        bis = bisection_group(p6)
    assert len(bis) == 720
    assert bis.unit == Bisection(p6, p6.units).label
