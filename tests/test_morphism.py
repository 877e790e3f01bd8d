"""Morphisms as relations: axioms, kernels, witnesses, factorizations."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st
from oracles import (
    edit_rows,
    morphism_relational_verdict,
    morphism_violation,
    naive_candidates,
)

from groupoids import morphism as morphism_module
from groupoids.builders import (
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    set_groupoid,
    symmetric_table,
)
from groupoids.errors import (
    AlgebraError,
    AxiomViolation,
    IsMonomorphism,
    PreconditionFailed,
    UniverseMismatch,
)
from groupoids.bisection import ad, all_bisections
from groupoids.groupoid import SubgroupoidRef, disjoint_union
from groupoids.morphism import (
    Morphism,
    _hm_refutation,
    classify_into_group,
    component_projection,
    compose_morphisms,
    epi_mono_factorization,
    find_non_epi_witness,
    functor_to_morphism,
    group_action_morphism,
    has_unique_fixed_point_property,
    identity_morphism,
    is_mono,
    is_surjective,
    kernel,
    left_regular,
    mono_witness,
    product_injections,
    product_pairing,
    quotient_by_kernel,
    restrict_to_domain,
    separating_pair,
    to_orbit_pair,
    to_orbit_relation,
    union_projections,
    wide_inclusion,
)
from groupoids.relation import (
    FinRel,
    Universe,
    compose,
    first_difference,
    pair_name,
    product,
)
from groupoids.search import EnumBudget, enum_morphisms, find_groupoid_isomorphism

Z2 = group_groupoid(cyclic_table(2))
Z4 = group_groupoid(cyclic_table(4))
P2 = pair_groupoid(Universe("X2", ("1", "2")))
P3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
S2 = set_groupoid(Universe("S", ("p", "q")))
PT = group_groupoid(cyclic_table(1), "pt")


def test_identity_morphism_is_diagonal():
    i = identity_morphism(Z2)
    assert i.graph == tuple(sorted((g, g) for g in Z2.elements))
    assert is_mono(i) and is_surjective(i)


def test_set_groupoid_morphism_is_a_reversed_mapping():
    s3 = set_groupoid(Universe("T", ("a", "b", "c")))
    f = {"p": "a", "q": "a"}
    h = Morphism(s3, S2, ((x, f[x]) for x in f))
    assert h.base_map == f


def test_trivial_hom_valid_and_unit_collapse_invalid():
    h = Morphism(Z2, Z2, (("0", "0"), ("0", "1")))
    assert kernel(h).members == frozenset(Z2.elements)
    with pytest.raises(AxiomViolation):
        Morphism(Z2, Z2, (("1", "0"),))
    with pytest.raises(AxiomViolation) as exc:
        Morphism(Z2, Z2, ())
    assert exc.value.law == "he=e'"


def test_compose_identity_neutral():
    l = left_regular(Z2)
    assert compose_morphisms(l, identity_morphism(Z2)) == l
    assert compose_morphisms(identity_morphism(l.target), l) == l


def test_compose_base_maps_chain():
    h = Morphism(Z2, Z2, (("0", "0"), ("0", "1")))
    k = left_regular(Z2)
    kh = compose_morphisms(k, h)
    for f in kh.target.units:
        assert kh.base_map[f] == h.base_map[k.base_map[f]]


def test_compose_requires_matching_middle():
    with pytest.raises(UniverseMismatch):
        compose_morphisms(left_regular(Z2), identity_morphism(P2))


def test_base_and_fiber_maps():
    from groupoids.morphism import base_map, fiber_map_left, fiber_map_right

    l = left_regular(Z2)
    rho = base_map(l)
    assert set(rho) == set(l.target.units)
    for f in l.target.units:
        right = fiber_map_right(l, f)
        left = fiber_map_left(l, f)
        assert sorted(right) == sorted(
            g for g in Z2.elements if Z2.e_right(g) == rho[f]
        )
        assert len(set(right.values())) == len(right)
        assert len(set(left.values())) == len(left)


def test_group_action_base_map_hits_the_only_unit():
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    h = group_action_morphism(cyclic_table(2), Universe("PQ", ("p", "q")), swap)
    assert set(h.base_map.values()) == {"0"}


def test_kernels_of_standard_morphisms():
    assert kernel(left_regular(Z2)).members == frozenset(Z2.units)
    assert kernel(to_orbit_pair(P2)).members == frozenset(P2.units)
    assert kernel(to_orbit_pair(Z4)).members == frozenset(Z4.elements)
    trivial = Morphism(Z2, PT, (("0", "0"), ("0", "1")))
    assert kernel(trivial).members == frozenset(Z2.elements)


def test_kernel_is_the_isotropy_bundle():
    for g in (Z4, P3, S2):
        assert kernel(to_orbit_pair(g)).members == g.isotropy_bundle().members


def test_morphisms_out_of_pair_groupoids_are_mono():
    assert is_mono(to_orbit_pair(P2))
    assert is_mono(left_regular(P2))
    assert is_mono(identity_morphism(P3))


def test_wide_inclusions_are_mono():
    wi = wide_inclusion(Z4, ("0", "2"))
    assert is_mono(wi) and not is_surjective(wi)


def test_wide_inclusion_reads_a_subgroupoid_given_as_a_groupoid():
    sub = SubgroupoidRef(Z4, ("0", "2")).as_groupoid()
    wi = wide_inclusion(Z4, sub)
    assert wi == wide_inclusion(Z4, ("0", "2")) and wi.source == sub


def test_mono_witness_kernel_branch():
    op = to_orbit_pair(Z4)
    assert not is_mono(op)
    w = mono_witness(op)
    assert w.side == "mono" and w.w1 != w.w2
    assert w.verify(op)


def test_mono_witness_domain_branch():
    du = disjoint_union(Z2, P2)
    members = frozenset(g for g in du.elements if g.startswith("L:"))
    cp = component_projection(du, members)
    assert not is_mono(cp)
    w = mono_witness(cp)
    assert w.verify(cp)


def test_mono_witness_rejects_monos():
    with pytest.raises(IsMonomorphism):
        mono_witness(identity_morphism(Z2))


def test_built_witnesses_raise_when_they_fail_to_verify(monkeypatch):
    """mono_witness and find_non_epi_witness verify the witness they
    build, so one that failed would be refused as a derived law."""
    monkeypatch.setattr(morphism_module.CancellationWitness, "verify", lambda *_: False)
    for build, h, law in (
        (mono_witness, to_orbit_pair(Z4), "derived:mono-witness"),
        (find_non_epi_witness, wide_inclusion(Z2, Z2.units), "derived:epi-witness"),
    ):
        with pytest.raises(AxiomViolation) as err:
            build(h)
        assert err.value.law == law


def test_surjectivity_examples():
    assert is_surjective(component_projection(Z4, Z4.elements))
    assert not is_surjective(wide_inclusion(Z2, Z2.units))
    assert is_surjective(to_orbit_relation(P2))


def test_bijective_on_elements_is_not_required_for_mono_epi():
    s3 = symmetric_table(3)
    space = Universe("T", ("1", "2", "3"))
    nat = {(g, x): g[int(x) - 1] for g in s3.elements for x in "123"}
    h = group_action_morphism(s3, space, nat)
    assert is_surjective(h) and is_mono(h)
    assert len(h.source.elements) == 6 and len(h.target.elements) == 9


def test_left_regular_shape():
    l = left_regular(Z2)
    assert len(l.graph) == 4
    assert kernel(l).members == frozenset(Z2.units)
    d = left_regular(S2)
    assert d.graph == tuple(sorted((pair_name(x, x), x) for x in S2.elements))


def test_to_orbit_pair_on_pair_groupoid_relabels():
    op = to_orbit_pair(P2)
    assert is_mono(op) and is_surjective(op)
    assert len(op.graph) == len(P2.elements)


def test_product_injection_shape():
    i1, i2 = product_injections(Z2, Z2)
    assert len(i1.graph) == 2 and len(i2.graph) == 2
    assert is_mono(i1) and is_mono(i2)
    # with the empty groupoid as a factor the product is empty, and so is
    # each injection's domain
    empty = set_groupoid(Universe("none", ()))
    for pair in ((Z2, empty), (empty, Z2)):
        for h in product_injections(*pair):
            assert h.graph == () and h.domain_elements == frozenset(), h


def test_restrict_to_domain_gives_full_domain():
    du = disjoint_union(Z2, P2)
    left = frozenset(g for g in du.elements if g.startswith("L:"))
    partial = Morphism(
        du, SubgroupoidRef(du, left).as_groupoid(), ((g, g) for g in left)
    )
    full = restrict_to_domain(partial)
    assert full.domain_elements == frozenset(full.source.elements)


def test_functor_to_morphism_cases():
    assert functor_to_morphism(
        Z2, Z2, {g: g for g in Z2.elements}
    ) == identity_morphism(Z2)
    target = pair_groupoid(P2.units_universe())
    ef = functor_to_morphism(
        P2,
        target,
        {g: pair_name(P2.e_left(g), P2.e_right(g)) for g in P2.elements},
    )
    assert is_surjective(ef)
    with pytest.raises(PreconditionFailed):
        functor_to_morphism(S2, PT, {g: "0" for g in S2.elements})


Z3 = group_groupoid(cyclic_table(3))


@pytest.mark.parametrize(
    "source, target, mapping, error",
    [
        (Z2, Z2, {"0": "0"}, PreconditionFailed),
        (Z2, Z2, {"0": "0", "1": "7"}, PreconditionFailed),
        (P2, P2, {g: "1,1" for g in P2.elements}, PreconditionFailed),
        # 1 + 1 = 2 goes to 0, but 3 + 3 = 2
        (Z4, Z4, {"0": "0", "1": "3", "2": "0", "3": "1"}, AlgebraError),
        # the inverse 2 of 1 goes to 1, not to the inverse 2 of 1
        (Z3, Z3, {"0": "0", "1": "1", "2": "1"}, AlgebraError),
    ],
    ids=["partial", "unknown-value", "units-not-bijective", "product", "inverse"],
)
def test_functor_to_morphism_refuses_non_functors(source, target, mapping, error):
    with pytest.raises(error):
        functor_to_morphism(source, target, mapping)


def test_group_action_morphism_cases():
    space = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    h = group_action_morphism(cyclic_table(2), space, swap)
    assert is_mono(h) and is_surjective(h)
    idle = {(g, x): x for g in ("0", "1") for x in ("p", "q")}
    t = group_action_morphism(cyclic_table(2), space, idle)
    assert not is_mono(t)
    assert kernel(t).members == frozenset(t.source.elements)
    one = group_action_morphism(trivial := cyclic_table(1), space, {("0", "p"): "p", ("0", "q"): "q"})
    assert one.graph == tuple(sorted((pair_name(x, x), "0") for x in space))


def test_unique_fixed_point_property():
    s3 = symmetric_table(3)
    space = Universe("T", ("1", "2", "3"))
    nat = {(g, x): g[int(x) - 1] for g in s3.elements for x in "123"}
    assert has_unique_fixed_point_property(s3, space, nat)
    pq = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    assert not has_unique_fixed_point_property(cyclic_table(2), pq, swap)


def test_classify_into_group():
    e0, hom = classify_into_group(identity_morphism(Z2))
    assert e0 == "0" and hom == {"0": "0", "1": "1"}
    e0, hom = classify_into_group(to_orbit_pair(Z4))
    assert e0 == "0" and set(hom) == set(Z4.elements)
    rebuilt = tuple(sorted((hom[g], g) for g in hom))
    assert rebuilt == to_orbit_pair(Z4).graph


def test_quotient_by_kernel_of_group_hom():
    h = functor_to_morphism(Z4, Z2, {g: str(int(g) % 2) for g in Z4.elements})
    assert kernel(h).members == frozenset(("0", "2"))
    pi, reduced = quotient_by_kernel(h)
    assert is_mono(reduced) and is_surjective(reduced)
    assert find_groupoid_isomorphism(pi.target, Z2) is not None
    assert compose_morphisms(reduced, pi) == h


def test_quotient_by_kernel_of_mono_relabels():
    pi, reduced = quotient_by_kernel(left_regular(Z2))
    assert is_mono(pi) and is_surjective(pi)


def test_quotient_by_kernel_needs_full_domain():
    du = disjoint_union(Z2, P2)
    left = frozenset(g for g in du.elements if g.startswith("L:"))
    sub = SubgroupoidRef(du, left).as_groupoid()
    partial = Morphism(du, sub, ((g, g) for g in left))
    with pytest.raises(PreconditionFailed):
        quotient_by_kernel(partial)


def test_factorization_of_orbit_pair_map():
    op = to_orbit_pair(Z4)
    h1, h2 = epi_mono_factorization(op)
    assert is_surjective(h1) and is_mono(h2)
    assert compose_morphisms(h2, h1) == op
    orl = to_orbit_relation(Z4)
    iso = find_groupoid_isomorphism(h1.target, orl.target)
    assert iso is not None
    relabel = functor_to_morphism(h1.target, orl.target, iso)
    assert compose_morphisms(relabel, h1) == orl


def test_factorization_of_partial_domain_morphism():
    du = disjoint_union(Z2, P2)
    left = frozenset(g for g in du.elements if g.startswith("L:"))
    sub = SubgroupoidRef(du, left).as_groupoid()
    partial = Morphism(du, sub, ((g, g) for g in left))
    h1, h2 = epi_mono_factorization(partial)
    assert is_surjective(h1) and is_mono(h2)
    assert compose_morphisms(h2, h1) == partial


def test_pairing_satisfies_projections():
    union, p1, p2 = union_projections(Z2, S2)
    paired = product_pairing(p1, p2)
    assert paired.source == union
    h = Morphism(Z2, Z2, (("0", "0"), ("0", "1")))
    paired2 = product_pairing(identity_morphism(Z2), h)
    assert len(paired2.graph) == 4


def test_separating_pair_branch_a():
    probe, k1, k2 = separating_pair(P2, frozenset(P2.units))
    assert k1 != k2
    inside1 = {p for p in k1.graph if p[1] in set(P2.units)}
    inside2 = {p for p in k2.graph if p[1] in set(P2.units)}
    assert inside1 == inside2


def test_separating_pair_branch_b():
    probe, k1, k2 = separating_pair(Z2, frozenset(Z2.units))
    assert k1 != k2
    assert len(probe.elements) == 2
    assert {p for p in k1.graph if p[1] == "0"} == {
        p for p in k2.graph if p[1] == "0"
    }


def test_separating_pair_preconditions():
    with pytest.raises(PreconditionFailed):
        separating_pair(Z2, frozenset(Z2.elements))
    with pytest.raises(PreconditionFailed):
        separating_pair(P3, frozenset(("1,1",)))


def test_translation_action_witness():
    space = Universe("X", tuple("0123"))
    act = {
        (g, x): str((int(g) + int(x)) % 4) for g in "0123" for x in "0123"
    }
    h = group_action_morphism(cyclic_table(4), space, act)
    assert is_surjective(h)
    w = find_non_epi_witness(h)
    assert w is not None and w.side == "epi"
    assert w.verify(h)


def test_left_regular_is_not_epi():
    l = left_regular(Z2)
    assert is_surjective(l)
    w = find_non_epi_witness(l)
    assert w is not None and w.verify(l)


def test_non_surjective_always_has_witness():
    wi = wide_inclusion(Z2, Z2.units)
    w = find_non_epi_witness(wi)
    assert w is not None and w.verify(wi)


def test_component_projection_no_witness():
    cp = component_projection(Z4, Z4.elements)
    assert find_non_epi_witness(cp) is None


def test_images_of_subgroupoids_are_subgroupoids():
    graphs = [
        (("0", "0"), ("0", "1")),
        tuple(sorted((g, g) for g in Z2.elements)),
    ]
    subsets = [frozenset(("0",)), frozenset(("0", "1"))]
    for graph in graphs:
        h = Morphism(Z2, Z2, graph)
        for members in subsets:
            image = frozenset(d for d, g in h.graph if g in members)
            ref = SubgroupoidRef(h.target, image)
            assert ref.members == image


@pytest.fixture(scope="module")
def enumerated_morphisms(catalog):
    """Every morphism between catalog members of at most 40 pairs."""
    return [
        h
        for a in catalog.values()
        for b in catalog.values()
        if len(a.elements) * len(b.elements) <= 40
        for h in enum_morphisms(a, b)
    ]


def test_accepted_graphs_satisfy_classical_laws(catalog, enumerated_morphisms):
    for h in enumerated_morphisms:
        assert morphism_violation(h) is None, h
    # every graph between the small members
    small = [catalog[key] for key in ("pt", "Z2", "S2", "P2")]
    for src, tgt in itertools.product(small, repeat=2):
        pairs = list(itertools.product(tgt.elements, src.elements))
        if len(pairs) > 8:
            continue
        for mask in range(2 ** len(pairs)):
            graph = [p for i, p in enumerate(pairs) if mask >> i & 1]
            try:
                h = Morphism(src, tgt, graph)
            except AxiomViolation:
                continue
            assert morphism_violation(h) is None, h


@seed(1311)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_graphs_satisfy_classical_laws_when_accepted(
    enumerated_morphisms, data
):
    h = data.draw(st.sampled_from(enumerated_morphisms))
    graph = list(h.graph)
    for _ in range(data.draw(st.integers(1, 3))):
        edit_rows(data.draw, graph, (h.target.elements.names, h.source.elements.names))
    try:
        mutant = Morphism(h.source, h.target, graph)
    except AxiomViolation:
        return
    assert morphism_violation(mutant) is None


@pytest.fixture(scope="module")
def small_morphisms(catalog):
    """Catalog members of at most four elements and the empty groupoid,
    with every morphism between each ordered pair."""
    pool = [g for g in catalog.values() if len(g.elements) <= 4]
    pool.append(set_groupoid(Universe("none", ())))
    return pool, {(a, b): enum_morphisms(a, b) for a in pool for b in pool}


@st.composite
def graphs_between(draw, pool, morphisms):
    """A random graph between two pool members: any set of pairs, so
    empty, multi-valued and partial ones, or a morphism with up to two
    pairs toggled."""
    src, tgt = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    pairs = list(itertools.product(tgt.elements, src.elements))
    found = morphisms[(src, tgt)]
    if found and draw(st.booleans()):
        graph = set(draw(st.sampled_from(found)).graph)
        if pairs:
            for p in draw(st.lists(st.sampled_from(pairs), max_size=2)):
                graph ^= {p}
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        graph = {p for p, k in zip(pairs, keep) if k}
    return src, tgt, sorted(graph)


@seed(1311)
@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_hm_law_agrees_with_the_materialized_sides(small_morphisms, data):
    src, tgt, graph = data.draw(graphs_between(*small_morphisms))
    h = FinRel(src.elements, tgt.elements, graph)
    lhs, rhs = compose(h, src.m_rel), compose(tgt.m_rel, product(h, h))
    try:
        Morphism(src, tgt, graph)
        err = None
    except AxiomViolation as exc:
        err = exc
    # hm=m'(hxh) is the first law checked
    rejected = err is not None and err.law == "hm=m'(hxh)"
    assert rejected == (lhs != rhs)
    if rejected:
        assert err.offender == first_difference(lhs, rhs)


def test_mask_kernel_agrees_with_the_materialized_sides_on_every_naive_candidate(
    catalog,
):
    """_hm_refutation on mask rows, against the built sides of hm = m'(hxh),
    on every candidate of the naive enumerator: the 92 catalog pairs
    within the default budget, and P3 -> Z3 over it.  Each pair's
    candidates share one memo, as they do in the enumerator; each is
    also decided with a memo of its own."""
    z3 = group_groupoid(cyclic_table(3))
    cap = EnumBudget().max_pairs
    members = catalog.values()
    cases = [
        (src, tgt)
        for src in members
        for tgt in members
        if len(src.elements) * len(tgt.elements) <= cap
    ]
    cases.append((catalog["P3"], z3))
    checked = refused = 0
    for src, tgt in cases:
        memo = {}
        for graph in naive_candidates(src, tgt):
            h = FinRel(src.elements, tgt.elements, graph)
            rows = {}
            for d, x in h.pairs:
                rows[x] = rows.get(x, 0) | 1 << d
            differs = compose(h, src.m_rel) != compose(tgt.m_rel, product(h, h))
            with_memo = _hm_refutation(rows, src, tgt, memo)
            alone = _hm_refutation(rows, src, tgt)
            assert (with_memo is not None) == differs, (src.name, tgt.name)
            assert (alone is not None) == differs, (src.name, tgt.name)
            checked += 1
            refused += differs
    # 208 candidates keep hm = m'(hxh); Morphism(...) then decides the rest
    assert (len(cases), checked, checked - refused) == (93, 24656 + 3584, 208)


def _checked_verdict(source, target, graph):
    """(law, offender), or None, from Morphism(...); an accepted
    morphism must hold the graph's relation."""
    try:
        h = Morphism(source, target, graph)
    except AxiomViolation as err:
        assert str(err) == f"axiom {err.law!r} violated at {err.offender!r}"
        return err.law, err.offender
    assert h.graph == tuple(sorted(set(graph)))
    return None


def test_checked_morphisms_agree_with_the_relational_reference(catalog):
    """Every candidate of the naive enumerator on the catalog pairs
    within its default budget, and seeded subsets of target x source
    on the pairs with at most 12 cells (every subset up to 8 cells):
    Morphism(...) rejects at the law and offender that deciding each law
    on relations built in full gives, or accepts as it does.  Every law
    is reached."""
    rng = random.Random(1311)
    cap = EnumBudget().max_pairs
    members = list(catalog.values())
    seen = Counter()
    for src, tgt in itertools.product(members, repeat=2):
        cells = [(d, g) for d in tgt.elements for g in src.elements]
        grid = []
        if len(cells) <= cap:
            grid += naive_candidates(src, tgt)
        if len(cells) <= 12:
            masks = rng.sample(range(2 ** len(cells)), min(2 ** len(cells), 256))
            grid += [[c for i, c in enumerate(cells) if m >> i & 1] for m in masks]
        for graph in grid:
            verdict = morphism_relational_verdict(src, tgt, graph)
            assert _checked_verdict(src, tgt, graph) == verdict, (
                src.name, tgt.name, graph
            )
            seen[verdict and verdict[0]] += 1
    assert set(seen) == {None, "hm=m'(hxh)", "hs=s'h", "he=e'"}


def test_built_morphisms_name_their_graph_only_when_read(catalog):
    """identity_morphism, left_regular, compose_morphisms and ad hold a
    morphism as its mask rows: rel and graph are not in vars(h) until
    one of them is read."""
    g = catalog["PF"]
    twist = next(b for b in all_bisections(g) if b.members != frozenset(g.units))
    built = {
        "identity_morphism": identity_morphism(g),
        "left_regular": left_regular(g),
        "compose_morphisms": compose_morphisms(left_regular(g), ad(twist)),
        "ad": ad(twist),
    }
    for label, h in built.items():
        assert not {"rel", "graph"} & set(vars(h)), label
        assert h.graph == tuple(sorted(h.rel.graph)) and "rel" in vars(h), label


def test_morphisms_on_groupoids_indexed_apart_compare_and_hash_equal(apart_indexed):
    """The same morphism, once on a groupoid whose product universe
    indexes its elements out of name order and once on its copy on a
    plain universe, is equal and hashes equal, whichever side is built
    from rows and whichever from a named graph."""
    delta, copy = apart_indexed
    inversion, regular = list(delta.inverse.items()), left_regular(delta)
    cases = [
        (regular, Morphism(copy, regular.target, regular.graph)),
        (Morphism(delta, delta, inversion), Morphism(copy, copy, inversion)),
        (Morphism(delta, copy, inversion), Morphism(copy, delta, inversion)),
    ]
    for h, other in cases:
        assert h._rows != other._rows  # the rows are on different indices
        assert h == other and other == h and hash(h) == hash(other)
    assert cases[1][1] != identity_morphism(delta) != cases[2][1]


def test_the_morphisms_between_two_groupoids_hash_apart(catalog):
    """A morphism and its relation hash their pairs in sorted(graph)
    order by rank, so the several morphisms between two groupoids, which
    may have as many inputs each, hash apart."""
    for a, b, count in (("V4", "P3", 10), ("PF", "PF", 8), ("BD", "P3", 14)):
        found = enum_morphisms(catalog[a], catalog[b])
        assert len(found) == count, (a, b)
        assert len({hash(h) for h in found}) == count, (a, b)
        assert len({hash(h.rel) for h in found}) == count, (a, b)


def test_a_checked_morphism_that_holds_composes_no_relation(monkeypatch, catalog):
    """The three laws are decided on mask rows: a valid graph through
    Morphism(...) makes no compose or product call; a refused one makes
    them only when its offender is read."""
    calls = []

    def counted(name, function):
        return lambda *args: calls.append(name) or function(*args)

    for name in ("compose", "product"):
        monkeypatch.setattr(
            morphism_module, name, counted(name, getattr(morphism_module, name))
        )
    s4 = group_groupoid(symmetric_table(4))
    cases = [(g, g, identity_morphism(g).graph) for g in catalog.values()]
    for g in catalog.values():
        regular = left_regular(g)
        cases.append((g, regular.target, regular.graph))
    cases.append((s4, s4, identity_morphism(s4).graph))
    for src, tgt, graph in cases:
        Morphism(src, tgt, graph)
    assert calls == []
    z2 = catalog["Z2"]
    with pytest.raises(AxiomViolation) as err:
        Morphism(z2, z2, ())
    assert err.value.law == "he=e'"
    assert calls == []
    assert err.value.offender == ("0", "1")
    assert calls == ["compose"]


VIEWS = ("base_map", "domain_elements", "image_elements", "kernel_members")


def test_a_morphism_names_its_views_only_when_one_is_read(catalog):
    """A morphism built from rows holds only its groupoids and rows until
    a view is read, also after it is hashed, compared and composed; the
    first read names all four views in one pass, with their values."""
    pf, bd = catalog["PF"], catalog["BD"]
    proj = component_projection(bd, {"0:0", "0:1"})
    cases = [
        (
            compose_morphisms(to_orbit_pair(pf), identity_morphism(pf)),
            to_orbit_pair(pf),
            {"x|0|x,x|0|x": "x|0|x", "y|0|y,y|0|y": "y|0|y"},
            set(pf.elements),
            {"x|0|x,x|0|x", "x|0|x,y|0|y", "y|0|y,x|0|x", "y|0|y,y|0|y"},
            {"x|0|x", "x|1|x", "y|0|y", "y|1|y"},
        ),
        (
            compose_morphisms(to_orbit_pair(proj.target), proj),
            compose_morphisms(to_orbit_pair(proj.target), proj),
            {"0:0,0:0": "0:0"},
            {"0:0", "0:1"},
            {"0:0,0:0"},
            {"0:0", "0:1"},
        ),
    ]
    for name in VIEWS:  # read on the class, a view is its descriptor
        assert getattr(Morphism, name).name == name
    for h, k, *values in cases:
        assert set(vars(h)) == {"source", "target", "_rows"}
        assert h == k and hash(h) == hash(k)
        compose_morphisms(h, identity_morphism(h.source))
        compose_morphisms(identity_morphism(h.target), h)
        assert set(vars(h)) == {"source", "target", "_rows"}
        assert h.kernel_members == frozenset(values[3])
        assert set(VIEWS) <= set(vars(h))
        for name, value in zip(VIEWS, values):
            assert getattr(h, name) == value, name
