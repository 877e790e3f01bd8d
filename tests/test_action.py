"""Relational actions, coset spaces, quotients, and classification."""

import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st
from oracles import action_violation, edit_rows

from groupoids.action import (
    Action,
    GammaSet,
    action_groupoid,
    action_groupoid_functor,
    action_to_pair_morphism,
    as_mapping,
    classical_to_relational,
    classify_transitive_action,
    conjugation_action,
    coset_space,
    functor_to_zm,
    homogeneous_identification,
    induced_action,
    is_equivariant,
    left_mult_action,
    morphism_to_action,
    product_form_action,
    pullback_action,
    quotient_groupoid,
    right_commuting_to_morphism,
    unit_action,
)
from groupoids.builders import (
    GroupTable,
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    pair_groupoid,
    product_form,
    subgroups_of,
    symmetric_table,
    transformation_groupoid,
    trivial_table,
)
from groupoids.errors import (
    AlgebraError,
    AxiomViolation,
    PreconditionFailed,
    UniverseMismatch,
)
from groupoids import (
    action as action_module,
    groupoid as groupoid_module,
    relation as relation_module,
)
from groupoids.groupoid import Groupoid, SubgroupoidRef, _index_pass, cartesian_product
from groupoids.morphism import (
    compose_morphisms,
    identity_morphism,
    is_mono,
    is_surjective,
    left_regular,
    to_orbit_pair,
    to_orbit_relation,
    wide_inclusion,
)
from groupoids.relation import (
    Universe,
    compose,
    first_difference,
    identity,
    pair_name,
    product,
    triples_rel,
    unitor_left,
)
from groupoids.search import enum_actions, find_groupoid_isomorphism

Z2 = group_groupoid(cyclic_table(2))
Z4 = group_groupoid(cyclic_table(4))
P2 = pair_groupoid(Universe("X2", ("1", "2")))
P3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
PQ = Universe("PQ", ("p", "q"))
SWAP = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}


def swap_action() -> Action:
    return classical_to_relational(
        Z2, PQ, {x: "0" for x in PQ}, dict(SWAP)
    )


def test_stock_actions_validate():
    for g in (Z2, Z4, P2, P3):
        lm = left_mult_action(g)
        assert lm.domain == frozenset(
            (a, b)
            for a in g.elements
            for b in g.elements
            if g.mult(a, b) is not None
        )
        unit_action(g)
        conjugation_action(g)


def test_action_axiom_failures():
    lm = left_mult_action(Z2)
    with pytest.raises(AxiomViolation):
        Action(Z2, Z2.elements, lm.triples[1:])
    bad = (("1", "0", "0"),) + lm.triples[1:]
    with pytest.raises(AxiomViolation):
        Action(Z2, Z2.elements, bad)


def test_derived_action_data():
    for action in (left_mult_action(P2), unit_action(Z4), swap_action()):
        g = action.groupoid
        for y, gamma, x in action.triples:
            assert action.base_map[x] == g.e_right(gamma)
            assert action.base_map[y] == g.e_left(gamma)
            assert (x, g.inverse[gamma], y) in set(action.triples)
        seen = {}
        for y, gamma, x in action.triples:
            assert seen.setdefault((gamma, x), y) == y


def test_classical_round_trip():
    lm = left_mult_action(P2)
    rho, table = as_mapping(lm)
    assert classical_to_relational(P2, P2.elements, rho, table) == lm
    ua = unit_action(Z4)
    rho2, table2 = as_mapping(ua)
    assert classical_to_relational(Z4, ua.carrier, rho2, table2) == ua


def test_classical_rejects_non_action():
    broken = dict(SWAP)
    broken[("1", "p")] = "p"
    with pytest.raises((PreconditionFailed, AxiomViolation)):
        classical_to_relational(Z2, PQ, {x: "0" for x in PQ}, broken)


LM_RHO, LM_ACT = as_mapping(left_mult_action(P2))


@pytest.mark.parametrize(
    "groupoid, carrier, rho, act",
    [
        (Z2, PQ, {"p": "0", "q": "1"}, SWAP),
        (Z2, PQ, {"p": "0"}, SWAP),
        # a unit everywhere, but the wrong one over the points at 2,2
        (P2, P2.elements, {x: "1,1" for x in LM_RHO}, LM_ACT),
    ],
    ids=["non-unit-value", "missing-point", "disagrees-with-act"],
)
def test_classical_to_relational_refuses_a_wrong_base_map(groupoid, carrier, rho, act):
    with pytest.raises(PreconditionFailed):
        classical_to_relational(groupoid, carrier, rho, act)


def test_pair_morphism_round_trip():
    lm = left_mult_action(P2)
    h = action_to_pair_morphism(lm)
    assert morphism_to_action(h, P2.elements) == lm
    assert action_to_pair_morphism(unit_action(P2)).graph == to_orbit_pair(P2).graph


def test_right_commuting_recovers_morphisms():
    lm = left_mult_action(P2)
    assert right_commuting_to_morphism(lm, P2) == identity_morphism(P2)
    h0 = to_orbit_relation(Z4)
    delta = h0.target
    composite = compose_morphisms(left_regular(delta), h0)
    action = morphism_to_action(composite, delta.elements)
    assert right_commuting_to_morphism(action, delta) == h0


def test_right_commuting_rejects_unit_action():
    with pytest.raises(UniverseMismatch):
        right_commuting_to_morphism(unit_action(P2), P2)


def test_right_commuting_rejects_conjugation():
    s3 = group_groupoid(symmetric_table(3))
    with pytest.raises(PreconditionFailed):
        right_commuting_to_morphism(conjugation_action(s3), s3)


def test_pullback_cases():
    lm = left_mult_action(P2)
    space = GammaSet(P2.elements, lm)
    assert pullback_action(identity_morphism(P2), space).action == lm
    incl = wide_inclusion(P2, frozenset(P2.units))
    restricted = pullback_action(incl, space)
    assert restricted.action.groupoid == incl.source
    assert set(restricted.action.triples) <= {
        (y, g, x) for y, g, x in lm.triples
    }


def test_is_equivariant():
    lm = left_mult_action(P2)
    space = GammaSet(P2.elements, lm)
    assert is_equivariant({x: x for x in P2.elements}, space, space)
    twist = {"1,1": "1,2", "1,2": "1,1", "2,1": "2,1", "2,2": "2,2"}
    assert not is_equivariant(twist, space, space)


def test_action_groupoid_of_group_action():
    ag = action_groupoid(swap_action())
    tg = transformation_groupoid(cyclic_table(2), PQ, SWAP)
    assert find_groupoid_isomorphism(ag, tg) is not None


def test_action_groupoid_of_unit_action():
    ag = action_groupoid(unit_action(Z4))
    assert find_groupoid_isomorphism(ag, Z4) is not None


def test_action_groupoid_of_left_multiplication():
    ag = action_groupoid(left_mult_action(P2))
    assert len(ag.elements) == len(P2.composable())


def test_coset_space_by_whole_groupoid():
    cs = coset_space(P2, frozenset(P2.elements))
    assert len(cs.classes) == len(P2.units)
    ua = unit_action(P2)
    relabel = {e: cs.projection[e] for e in P2.units}
    assert is_equivariant(
        relabel, GammaSet(ua.carrier, ua), GammaSet(cs.carrier, cs.action)
    )


def test_coset_space_by_isotropy_bundle():
    bundle = Z4.isotropy_bundle()
    cs = coset_space(Z4, bundle.members)
    assert len(cs.classes) == len(Z4.orbits())
    tr = transformation_groupoid(cyclic_table(2), PQ, SWAP)
    cs2 = coset_space(tr, tr.isotropy_bundle().members)
    assert len(cs2.classes) == len(tr.orbit_relation().elements)


def test_coset_space_of_pair_by_equivalence():
    space = Universe("X", ("1", "2", "3"))
    rel = equivalence_groupoid(space, (("1", "2"), ("3",)))
    px = pair_groupoid(space)
    cs = coset_space(px, frozenset(rel.elements))
    assert len(cs.classes) == len(space) * 2


def test_quotient_of_z4():
    quotient, pi = quotient_groupoid(Z4, frozenset(("0", "2")))
    assert find_groupoid_isomorphism(quotient, Z2) is not None
    assert is_surjective(pi)
    assert pi.kernel_members == frozenset(("0", "2"))


def test_quotient_by_units_relabels():
    quotient, pi = quotient_groupoid(Z4, frozenset(Z4.units))
    assert len(quotient.elements) == len(Z4.elements)
    assert is_mono(pi) and is_surjective(pi)


def test_quotient_by_isotropy_bundle():
    bundle = group_bundle([cyclic_table(2), trivial_table()])
    quotient, pi = quotient_groupoid(bundle, frozenset(bundle.elements))
    assert find_groupoid_isomorphism(quotient, bundle.orbit_relation()) is not None


def test_quotient_preconditions():
    with pytest.raises(PreconditionFailed):
        quotient_groupoid(P2, frozenset(P2.elements))
    s3 = group_groupoid(symmetric_table(3))
    two = next(s for s in subgroups_of(symmetric_table(3)) if len(s) == 2)
    with pytest.raises(PreconditionFailed):
        quotient_groupoid(s3, frozenset(two))


def test_quotient_names_the_least_offender_outside_the_bundle():
    with pytest.raises(PreconditionFailed) as info:
        quotient_groupoid(P3, frozenset(P3.elements))
    assert str(info.value) == "'1,2' is outside the isotropy bundle"


def test_homogeneous_left_multiplication():
    lm = left_mult_action(Z4)
    ref, psi = homogeneous_identification(lm, {"0": "0"})
    assert ref.members == frozenset(Z4.units)
    assert len(set(psi.values())) == len(Z4.elements)


def test_homogeneous_unit_action():
    ua = unit_action(P2)
    ref, psi = homogeneous_identification(ua, {e: e for e in P2.units})
    assert ref.members == frozenset(P2.elements)
    assert len(set(psi.values())) == len(P2.units)


def test_homogeneous_pair_on_points():
    carrier = Universe("XX", ("x1", "x2"))
    triples = [
        (f"x{a}", pair_name(a, b), f"x{b}")
        for a in ("1", "2")
        for b in ("1", "2")
    ]
    action = Action(P2, carrier, triples)
    ref, psi = homogeneous_identification(
        action, {"1,1": "x1", "2,2": "x2"}
    )
    assert ref.members == frozenset(P2.elements)
    assert sorted(psi.values()) == sorted(set(psi.values()))


def test_homogeneous_rejects_bad_sections():
    ua = unit_action(P2)
    with pytest.raises(PreconditionFailed):
        homogeneous_identification(ua, {"1,1": "2,2", "2,2": "1,1"})
    bundle = group_bundle([cyclic_table(2), trivial_table()])
    with pytest.raises(PreconditionFailed):
        homogeneous_identification(
            unit_action(bundle), {e: e for e in bundle.units}
        )


def test_induced_action_from_isotropy():
    base = Universe("E2", ("x", "y"))
    pf = product_form(base, cyclic_table(2))
    iso = pf.isotropy("x|0|x")
    fiber = Universe("Zc", ("u0", "u1"))
    reg = [
        (f"u{(int(g) + z) % 2}", f"x|{g}|x", f"u{z}")
        for g in ("0", "1")
        for z in (0, 1)
    ]
    sub_action = Action(iso.as_groupoid(), fiber, reg)
    carrier, induced = induced_action(pf, iso, sub_action)
    assert len(carrier) == len(base) * len(fiber)

    model = product_form_action(
        base,
        cyclic_table(2),
        fiber,
        {(g, f"u{z}"): f"u{(int(g) + z) % 2}" for g in ("0", "1") for z in (0, 1)},
    )
    for y, gamma, x in model.triples:
        e1, g, e2 = gamma.split("|")
        z = x.split(",")[1]
        assert y == pair_name(e1, f"u{(int(g) + int(z[1])) % 2}")

    relabel = {}
    for label in carrier.elements:
        gamma, point = label[1:-1].rsplit(",", 1)
        e1, g, _ = gamma.split("|")
        relabel[label] = pair_name(e1, f"u{(int(g) + int(point[1])) % 2}")
    assert is_equivariant(
        relabel,
        GammaSet(carrier, induced),
        GammaSet(model.carrier, model),
    )


def test_induction_along_everything_is_neutral():
    ref = SubgroupoidRef(P2, frozenset(P2.elements))
    inner = left_mult_action(ref.as_groupoid())
    carrier, induced = induced_action(P2, P2.elements, inner)
    assert len(carrier) == len(P2.elements)


def test_induced_action_with_trivial_fiber():
    base = Universe("E2", ("x", "y"))
    pf = product_form(base, cyclic_table(1))
    iso = pf.isotropy("x|0|x")
    fiber = Universe("Zs", ("w",))
    sub_action = Action(iso.as_groupoid(), fiber, [("w", "x|0|x", "w")])
    carrier, induced = induced_action(pf, iso, sub_action)
    assert len(carrier) == len(base)
    relabel = {}
    for label in carrier.elements:
        gamma, _ = label[1:-1].rsplit(",", 1)
        relabel[label] = pf.e_left(gamma)
    ua = unit_action(pf)
    assert is_equivariant(
        relabel, GammaSet(carrier, induced), GammaSet(ua.carrier, ua)
    )


def test_classification_of_regular_fiber():
    base = Universe("E2", ("x", "y"))
    fiber = Universe("Zc", ("u0", "u1"))
    reg = {(g, f"u{z}"): f"u{(int(g) + z) % 2}" for g in ("0", "1") for z in (0, 1)}
    model = product_form_action(base, cyclic_table(2), fiber, reg)
    out_fiber, out_act, psi = classify_transitive_action(
        base, cyclic_table(2), model
    )
    assert sorted(out_fiber.elements) == ["x,u0", "x,u1"]
    assert sorted(psi.values()) == sorted(model.carrier.elements)
    assert psi[pair_name("y", "x,u1")] == "y,u1"

    moved, _, _ = classify_transitive_action(
        base, cyclic_table(2), model, z0="y,u1"
    )
    assert sorted(moved.elements) == ["y,u0", "y,u1"]


def test_classification_with_trivial_fiber():
    base = Universe("E2", ("x", "y"))
    fiber = Universe("Zs", ("w",))
    model = product_form_action(base, cyclic_table(1), fiber, {("0", "w"): "w"})
    out_fiber, _, psi = classify_transitive_action(base, cyclic_table(1), model)
    assert len(out_fiber) == 1
    assert sorted(psi.values()) == sorted(model.carrier.elements)


def test_classification_rejects_empty_carrier():
    base = Universe("E2", ("x", "y"))
    with pytest.raises(PreconditionFailed):
        classify_transitive_action(
            base,
            cyclic_table(1),
            product_form_action(base, cyclic_table(1), Universe("Z0", ()), {}),
        )


def test_action_groupoid_functor_round_trips():
    for h in (
        identity_morphism(Z4),
        left_regular(Z2),
        to_orbit_pair(P2),
    ):
        phi, functor = action_groupoid_functor(h)
        assert functor_to_zm(phi, functor, h.target) == h


def test_identity_functor_is_first_projection():
    phi, functor = action_groupoid_functor(identity_morphism(Z4))
    assert all(functor[(g, f)] == g for (g, f) in functor)


def test_functor_to_zm_rejects_broken_functors():
    phi, functor = action_groupoid_functor(left_regular(Z2))
    broken = dict(functor)
    key = min(broken)
    others = set(broken.values()) - {broken[key]}
    broken[key] = min(others)
    with pytest.raises((PreconditionFailed, AxiomViolation)):
        functor_to_zm(phi, broken, left_regular(Z2).target)
    # two units: swapping the values of 1 over its two points keeps the
    # graph, but each value now starts at the wrong point
    h = left_regular(Z2)
    phi, functor = action_groupoid_functor(h)
    swapped = dict(functor)
    swapped[("1", "0,0")] = functor[("1", "1,1")]
    swapped[("1", "1,1")] = functor[("1", "0,0")]
    with pytest.raises(AlgebraError):
        functor_to_zm(phi, swapped, h.target)
    # the same domain under the trivial action: values end at the wrong point
    trivial = Action(
        Z2, phi.carrier, [(f, g, f) for g, f in sorted(phi.domain)]
    )
    assert trivial.domain == phi.domain
    with pytest.raises(AlgebraError):
        functor_to_zm(trivial, functor, h.target)
    phi, functor = action_groupoid_functor(identity_morphism(Z4))
    for changes in (
        # 1 goes to 2, but its inverse 3 still goes to 3, not to 2
        {"1": "2"},
        # inverses hold (2 and 0 are their own), but 1 + 1 = 2 goes to 0
        {"2": "0"},
    ):
        broken = {(g, f): changes.get(g, d) for (g, f), d in functor.items()}
        with pytest.raises(AlgebraError):
            functor_to_zm(phi, broken, Z4)


CARRIERS = [Universe("C", points) for points in ("p", "pq", "pqr")]


@pytest.fixture(scope="module")
def enumerated_actions(catalog):
    """Every action of a catalog member on one to three points."""
    return [
        a for g in catalog.values() for c in CARRIERS for a in enum_actions(g, c)
    ]


def test_accepted_triples_satisfy_classical_laws(catalog, enumerated_actions):
    for a in enumerated_actions:
        assert action_violation(a) is None, a
    # every triple set of the small members on one and two points
    for key, carrier in itertools.product(("pt", "Z2", "S2", "P2"), CARRIERS[:2]):
        g = catalog[key]
        rows = list(itertools.product(carrier, g.elements, carrier))
        if len(rows) > 8:
            continue
        for mask in range(2 ** len(rows)):
            try:
                a = Action(g, carrier, [r for i, r in enumerate(rows) if mask >> i & 1])
            except AxiomViolation:
                continue
            assert action_violation(a) is None, a


@seed(1311)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_triples_satisfy_classical_laws_when_accepted(
    enumerated_actions, data
):
    a = data.draw(st.sampled_from(enumerated_actions))
    points, names = a.carrier.names, a.groupoid.elements.names
    triples = list(a.triples)
    for _ in range(data.draw(st.integers(1, 3))):
        edit_rows(data.draw, triples, (points, names, points))
    try:
        mutant = Action(a.groupoid, a.carrier, triples)
    except AxiomViolation:
        return
    assert action_violation(mutant) is None


# -- the two-sided action laws against the materialized sides -----------


@st.composite
def drawn_triples(draw, catalog):
    """A catalog member on at most four elements, a carrier of zero to
    three points (none, or the elements of a catalog member delta), and
    a random triple set on them: a partial map half the time, any set of
    triples otherwise."""
    def members(size):
        return sorted(k for k in catalog if len(catalog[k].elements) <= size)

    g = catalog[draw(st.sampled_from(members(4)))]
    key = draw(st.sampled_from([None, *members(3)]))
    delta = catalog[key] if key else None
    carrier = delta.elements if delta else Universe("E", ())
    cells = list(itertools.product(g.elements, carrier))
    if draw(st.booleans()):
        images = st.sampled_from([None, *carrier])
        drawn = draw(st.lists(images, min_size=len(cells), max_size=len(cells)))
        triples = [(y, a, x) for (a, x), y in zip(cells, drawn) if y is not None]
    else:
        masks = st.integers(0, 2 ** len(carrier) - 1)
        drawn = draw(st.lists(masks, min_size=len(cells), max_size=len(cells)))
        triples = [
            (y, a, x)
            for (a, x), mask in zip(cells, drawn)
            for i, y in enumerate(carrier)
            if mask >> i & 1
        ]
    return g, delta, carrier, triples


@seed(1311)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_action_laws_agree_with_the_materialized_sides(catalog, data):
    """Action(...) rejects at phi(mxid)=phi(idxphi) exactly when the two
    sides built as relations differ, and otherwise at phi(exid)=id
    exactly when that law's two sides differ, with the sorted-least
    difference of the sides as offender; right_commuting_to_morphism
    refuses exactly when phi(id x m) and m(phi x id) differ.  The
    commuting law is decided for any partial map phi, so every
    single-valued draw on a groupoid's elements is handed to it as an
    unchecked action."""
    g, delta, carrier, triples = data.draw(drawn_triples(catalog))
    phi = triples_rel(g.elements, carrier, carrier, triples)
    lhs = compose(phi, product(g.m_rel, identity(carrier)))
    rhs = compose(phi, product(identity(g.elements), phi))
    unit_lhs = compose(phi, product(g.e_rel, identity(carrier)))
    unit_rhs = unitor_left(carrier)
    try:
        Action(g, carrier, triples)
        err = None
    except AxiomViolation as caught:
        err = caught
    rejected = err is not None and err.law == "phi(mxid)=phi(idxphi)"
    assert rejected == (lhs != rhs)
    if rejected:
        assert err.offender == first_difference(lhs, rhs)
        return
    unit_rejected = err is not None and err.law == "phi(exid)=id"
    assert unit_rejected == (unit_lhs != unit_rhs)
    if unit_rejected:
        assert err.offender == first_difference(unit_lhs, unit_rhs)
    assert err is None or unit_rejected
    if delta is None or len({(a, x) for _, a, x in triples}) != len(triples):
        return
    m = delta.m_rel
    commutes = compose(phi, product(identity(g.elements), m)) == compose(
        m, product(phi, identity(carrier))
    )
    try:
        moves, _ = _index_pass(g.elements, carrier, set(triples))
        right_commuting_to_morphism(Action._of_rows(g, carrier, moves), delta)
        refused = False
    except PreconditionFailed:
        refused = True
    except AxiomViolation:  # commutes, but the graph is no morphism
        refused = False
    assert refused == (not commutes)


def test_one_function_decides_both_composition_laws(monkeypatch):
    """Associativity and m(exid)=id are the two laws of G acting on
    itself: a checked Groupoid(...) and a checked Action(...) each decide
    their composition and unit laws through the same function, once."""
    check = groupoid_module._check_composition
    assert action_module._check_composition is check
    laws = []

    def counted(names, *args):
        laws.extend(names)
        return check(names, *args)

    for module in (groupoid_module, action_module):
        monkeypatch.setattr(module, "_check_composition", counted)
    s3 = group_groupoid(symmetric_table(3))
    g = Groupoid("S3", s3.elements, s3.units, s3.inverse, s3.table)
    assert laws == ["m(mxid)=m(idxm)", "m(exid)=id"]
    Action(g, g.elements, s3.table)
    assert laws[2:] == ["phi(mxid)=phi(idxphi)", "phi(exid)=id"]


def test_a_checked_action_that_holds_composes_no_relation(catalog, monkeypatch):
    """Both action laws of a valid action are decided on its move rows:
    left multiplication of every catalog member and of S4, given as
    triples to the checked constructor, makes no compose or product
    call."""
    calls = []

    def counted(make):
        def call(*args):
            calls.append(make.__name__)
            return make(*args)

        return call

    for name in ("compose", "product"):
        wrapped = counted(getattr(relation_module, name))
        for module in (groupoid_module, action_module, relation_module):
            monkeypatch.setattr(module, name, wrapped)
    for g in [*catalog.values(), group_groupoid(symmetric_table(4))]:
        Action(g, g.elements, g.table)
    assert calls == []


def test_stock_actions_name_no_triple_of_their_groupoid():
    """Left multiplication, coset spaces, the unit action and
    conjugation are built from the groupoid's rows, so none of them
    names its product triples, nor its own until they are read."""
    g = product_form(Universe("B3", "xyz"), symmetric_table(3))
    builds = {
        "left_mult_action": left_mult_action,
        "coset_space": lambda g: coset_space(g, g.isotropy_bundle().members),
        "unit_action": unit_action,
        "conjugation_action": conjugation_action,
    }
    for label, build in builds.items():
        action = build(g)
        action = getattr(action, "action", action)  # a coset space's
        assert "table" not in vars(g) and "triples" not in vars(action), label
        assert action.triples == Action(g, action.carrier, action.triples).triples


def test_actions_on_structures_indexed_apart_compare_and_hash_equal(apart_indexed):
    """Left multiplication, on a groupoid and carrier whose product
    universe indexes them out of name order, equals the same action
    checked on their copy on a plain universe, and hashes equal."""
    delta, copy = apart_indexed
    moved = left_mult_action(delta)
    for h in (moved, Action(delta, delta.elements, delta.table)):
        checked = Action(copy, copy.elements, delta.table)
        assert h._moves != checked._moves  # the rows are on different indices
        assert h == checked and checked == h and hash(h) == hash(checked)
    # g moves x to x s(g): another action of the group on itself
    names = copy.elements
    twisted = [(copy.mult(x, copy.inv(g)), g, x) for g in names for x in names]
    assert Action(copy, names, twisted) != moved


def test_right_commuting_reads_a_carrier_indexed_apart_from_delta():
    """A carrier equal to delta's elements by name but indexed as a plain
    universe, where delta's are a product's: a's and a+'s index order is
    not their name order."""
    names = {0: "a", 1: "a+", 2: "b", 3: "c"}
    z4 = {
        (names[x], names[y]): names[(x + y) % 4] for x in range(4) for y in range(4)
    }
    delta = cartesian_product(group_groupoid(GroupTable("Z4", names.values(), z4)), Z2)
    plain = Universe(delta.elements.name, tuple(delta.elements))
    assert plain == delta.elements and plain.names != tuple(delta.elements.names)
    lm = left_mult_action(delta)
    moves, _ = _index_pass(delta.elements, plain, set(lm.triples))
    moved = Action._of_rows(delta, plain, moves)
    assert right_commuting_to_morphism(moved, delta) == identity_morphism(delta)

