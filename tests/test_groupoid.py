"""Groupoid validation, named axiom failures, and structural queries."""

import itertools
import json
import random

import pytest
from hypothesis import given, seed, settings, strategies as st
from oracles import (
    edit_rows,
    groupoid_violation,
    relational_verdict,
    subgroupoid_loop,
)

from groupoids import groupoid as groupoid_module
from groupoids.builders import (
    GroupTable,
    cyclic_table,
    group_bundle,
    group_groupoid,
    pair_groupoid,
    product_form,
    set_groupoid,
    subgroups_of,
    symmetric_table,
)
from groupoids.cli import groupoid_from_payload, payload_of_groupoid
from groupoids.errors import AxiomViolation, PreconditionFailed
from groupoids.groupoid import (
    Groupoid,
    SubgroupoidRef,
    _generators,
    cartesian_product,
    disjoint_union,
    validate_groupoid,
)
from groupoids.relation import (
    FinRel,
    ONE,
    Universe,
    compose,
    first_difference,
    flip,
    identity,
    product,
    triples_rel,
)
from groupoids.search import find_groupoid_isomorphism

Z2_ELEMENTS = ("0", "1")
Z2_UNITS = ("0",)
Z2_INVERSE = {"0": "0", "1": "1"}
Z2_TABLE = (("0", "0", "0"), ("1", "0", "1"), ("1", "1", "0"), ("0", "1", "1"))


def z2_data():
    return list(Z2_ELEMENTS), list(Z2_UNITS), dict(Z2_INVERSE), list(Z2_TABLE)


def test_catalog_groupoids_validate(catalog):
    for g in catalog.values():
        assert validate_groupoid(
            g.name, tuple(g.elements), g.units, g.inverse, g.table
        ).same_structure(g)


def test_dropped_product_row_fails_inverse_law():
    elements, units, inverse, table = z2_data()
    table.remove(("0", "1", "1"))
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z2", elements, units, inverse, table)
    assert err.value.law == "m(s(g),g)-in-units"
    assert err.value.offender == "1"
    assert str(err.value) == (
        "axiom 'm(s(g),g)-in-units' violated at '1': product undefined"
    )


def test_broken_involution_fails_s2():
    elements, units, inverse, table = z2_data()
    inverse["1"] = "0"
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z2", elements, units, inverse, table)
    assert err.value.law == "s2=id"
    assert err.value.offender == ("0", "1")


def test_stray_unit_fails_left_unit_law():
    elements, units, inverse, table = z2_data()
    units.append("1")
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z2", elements, units, inverse, table)
    assert err.value.law == "m(exid)=id"


def test_stray_product_row_fails_associativity():
    elements, units, inverse, table = z2_data()
    table.append(("1", "0", "0"))
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z2", elements, units, inverse, table)
    assert err.value.law == "m(mxid)=m(idxm)"


def test_removed_unit_fails_unit_law():
    s2 = set_groupoid(Universe("S", ("p", "q")))
    with pytest.raises(AxiomViolation) as err:
        Groupoid("S2", tuple(s2.elements), ("p",), s2.inverse, s2.table)
    assert err.value.law == "m(exid)=id"


def test_constant_involution_reported_at_s2():
    # s(g) = e also breaks the antihomomorphism law, but the involution
    # check runs first
    elements, units, inverse, table = z2_data()
    inverse["1"] = "0"
    inverse["0"] = "0"
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z2", elements, units, inverse, table)
    assert err.value.law == "s2=id"


def test_identity_involution_on_s3_isolates_antihomomorphism():
    # the identity is an involution fixing the unit, and every unit and
    # associativity law still holds, so the first failure is the
    # antihomomorphism axiom
    s3 = group_groupoid(symmetric_table(3))
    with pytest.raises(AxiomViolation) as err:
        Groupoid(
            "S3id",
            tuple(s3.elements),
            s3.units,
            {g: g for g in s3.elements},
            s3.table,
        )
    assert err.value.law == "sm=m.flip(sxs)"
    assert err.value.offender == ("132", "213,231")


def test_associative_multivalued_table_fails_first_at_left_unit_law():
    # every product is {a, b}: both sides of associativity are the full
    # relation, so the first failure is the unit law
    ab = ("a", "b")
    table = [(c, x, y) for c in ab for x in ab for y in ab]
    with pytest.raises(AxiomViolation) as err:
        Groupoid("AB", ab, ("a",), {"a": "a", "b": "b"}, table)
    assert err.value.law == "m(exid)=id"
    assert err.value.offender == ("a", "1,b")


@pytest.mark.parametrize(
    "row, offender",
    [
        (("0", "1", "1"), ("0", "1,2,2")),
        (("1", "1", "1"), ("0", "1,1,2")),
        (("1", "0", "0"), ("0", "0,0,2")),
    ],
)
def test_z3_with_an_inserted_row_fails_associativity(row, offender):
    # the inserted row makes m multi-valued at one pair
    z3 = group_groupoid(cyclic_table(3))
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z3", tuple(z3.elements), z3.units, z3.inverse, z3.table + (row,))
    assert err.value.law == "m(mxid)=m(idxm)"
    assert err.value.offender == offender


def test_colliding_triple_names_do_not_refuse_a_groupoid():
    # pairs of these names are unambiguous, but "a,b" + "c,d" and
    # "a" + "b" + "c,d" are not; no law names a triple
    names = ("a", "b", "c", "d", "a,b", "c,d")
    g = Groupoid("G", names, names, {x: x for x in names}, [(x, x, x) for x in names])
    assert g.units == tuple(sorted(names))


def test_identity_involution_on_z4_isolates_inverse_law():
    # on an abelian group the identity involution keeps s(ab)=s(b)s(a)
    # true, so the failure surfaces at m(s(g),g)
    z4 = group_groupoid(cyclic_table(4))
    with pytest.raises(AxiomViolation) as err:
        Groupoid(
            "Z4id",
            tuple(z4.elements),
            z4.units,
            {g: g for g in z4.elements},
            z4.table,
        )
    assert err.value.law == "m(s(g),g)-in-units"


def test_partial_operation_matches_axioms(catalog):
    """The table, read as a partial operation, satisfies the classical laws."""
    for g in catalog.values():
        assert groupoid_violation(g.elements, g.units, g.inverse, g.table) is None
        assert set(g.composable()) == {(a, b) for _, a, b in g.table}
        for c, a, b in g.table:
            assert g.mult(a, b) == c
        for a in g.elements:
            assert g.e_left(a) == g.mult(a, g.inverse[a])
            assert g.e_right(a) == g.mult(g.inverse[a], a)


def _rejection(elements, units, inverse, table):
    try:
        Groupoid("M", elements, units, inverse, table)
    except AxiomViolation as err:
        return err
    return None


def _accepts(elements, units, inverse, table):
    return _rejection(elements, units, inverse, table) is None


def _subsets(items):
    return [c for n in range(len(items) + 1) for c in itertools.combinations(items, n)]


@st.composite
def mutated_tables(draw, catalog):
    """A catalog groupoid's data after 1-3 random edits."""
    g = catalog[draw(st.sampled_from(sorted(catalog)))]
    names = g.elements.elements
    units, inverse, table = set(g.units), dict(g.inverse), list(g.table)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("row", "inverse", "unit")))
        if edit == "row":
            edit_rows(draw, table, (names, names, names))
        elif edit == "inverse":
            inverse[draw(st.sampled_from(names))] = draw(st.sampled_from(names))
        else:
            units ^= {draw(st.sampled_from(names))}
    return names, units, inverse, table


@seed(1311)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_tables_accepted_iff_classical_laws_hold(catalog, data):
    candidate = data.draw(mutated_tables(catalog))
    verdict = groupoid_violation(*candidate)
    assert _accepts(*candidate) == (verdict is None), verdict


def test_every_structure_on_two_elements_accepted_iff_classical_laws_hold():
    accepted = 0
    for elements in ((), ("a",), ("a", "b")):
        rows = list(itertools.product(elements, repeat=3))
        for units, images, mask in itertools.product(
            _subsets(elements),
            itertools.product(elements, repeat=len(elements)),
            range(2 ** len(rows)),
        ):
            inverse = dict(zip(elements, images))
            table = [row for i, row in enumerate(rows) if mask >> i & 1]
            verdict = groupoid_violation(elements, units, inverse, table)
            assert _accepts(elements, units, inverse, table) == (verdict is None)
            accepted += verdict is None
    # the empty groupoid, pt, and on {a, b}: Z2 twice, two units once
    assert accepted == 5


@st.composite
def partial_tables(draw):
    """A random table on at most four elements: single-valued, or with
    any set of products at each pair."""
    elements = "abcd"[: draw(st.integers(0, 4))]
    pairs = list(itertools.product(elements, repeat=2))
    # one bit mask of products per pair; single-valued masks have at
    # most one bit
    if draw(st.booleans()):
        masks = st.integers(0, 2 ** len(elements) - 1)
    else:
        masks = st.sampled_from([0] + [1 << i for i in range(len(elements))])
    drawn = draw(st.lists(masks, min_size=len(pairs), max_size=len(pairs)))
    table = [
        (z, x, y)
        for (x, y), mask in zip(pairs, drawn)
        for i, z in enumerate(elements)
        if mask >> i & 1
    ]
    return tuple(elements), table


@seed(1311)
@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_associativity_agrees_with_the_materialized_sides(data):
    elements, table = data.draw(partial_tables())
    u = Universe("M", elements)
    m, idu = triples_rel(u, u, u, table), identity(u)
    lhs, rhs = compose(m, product(m, idu)), compose(m, product(idu, m))
    # associativity is the first law, whatever the units and inverse
    err = _rejection(elements, (), {x: x for x in elements}, table)
    rejected = err is not None and err.law == "m(mxid)=m(idxm)"
    assert rejected == (lhs != rhs)
    if rejected:
        assert err.offender == first_difference(lhs, rhs)


def one_product_edits(g, rng, per_kind):
    """g's table after one single-valued edit of one product: a defined
    product changed to another element or deleted, or a product set on
    a pair that does not compose; at most per_kind of each, picked by
    rng."""
    names, rows = tuple(g.elements), list(g.table)
    composable = {(a, b) for _, a, b in rows}
    changes = [(r, c) for r in rows for c in names if c != r[0]]
    inserts = [
        (c, a, b)
        for a, b in itertools.product(names, repeat=2)
        if (a, b) not in composable
        for c in names
    ]
    for row, c in rng.sample(changes, min(per_kind, len(changes))):
        yield [r for r in rows if r != row] + [(c,) + row[1:]]
    for row in rng.sample(rows, min(per_kind, len(rows))):
        yield [r for r in rows if r != row]
    for row in rng.sample(inserts, min(per_kind, len(inserts))):
        yield rows + [row]


def test_associativity_on_few_generators_agrees_with_the_materialized_sides():
    """Tables larger than the catalog's, whose greedy generators are few,
    after one single-valued edit of one product: rejected at
    m(mxid)=m(idxm) exactly when the materialized sides differ."""
    rng = random.Random(1311)
    checked = rejected = 0
    for g, generators in (
        (group_groupoid(cyclic_table(12)), 2),
        (group_groupoid(symmetric_table(4)), 4),
        (pair_groupoid(Universe("X4", "abcd")), 7),
    ):
        assert len(list(_generators(g._rows, g._cols))) == generators
        u = g.elements
        idu = identity(u)
        for table in one_product_edits(g, rng, per_kind=8):
            m = triples_rel(u, u, u, table)
            lhs, rhs = compose(m, product(m, idu)), compose(m, product(idu, m))
            err = _rejection(tuple(u), g.units, g.inverse, table)
            at_law = err is not None and err.law == "m(mxid)=m(idxm)"
            assert at_law == (lhs != rhs)
            if at_law:
                assert err.offender == first_difference(lhs, rhs)
            checked += 1
            rejected += at_law
    assert checked == 56  # the groups have no pair that does not compose
    assert rejected > 0


@st.composite
def involuted_groupoids(draw, pool):
    """A valid groupoid's table under a random total involution."""
    g = draw(st.sampled_from(pool))
    names = draw(st.permutations(g.elements.elements))
    swaps = draw(st.integers(0, len(names) // 2))
    inverse = {x: x for x in names}
    for x, y in zip(names[: 2 * swaps : 2], names[1 : 2 * swaps : 2]):
        inverse[x], inverse[y] = y, x
    return tuple(g.elements), g.units, inverse, g.table


@seed(1311)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_antihomomorphism_agrees_with_the_materialized_sides(catalog, data):
    pool = sorted(catalog.values(), key=lambda g: g.name)
    pool.append(group_groupoid(symmetric_table(3)))
    elements, units, inverse, table = data.draw(involuted_groupoids(pool))
    u = Universe("M", elements)
    m = triples_rel(u, u, u, table)
    s = FinRel(u, u, [(inverse[x], x) for x in elements])
    sm = compose(s, m)
    msxs = compose(m, compose(flip(u, u), product(s, s)))
    # the table and units are a groupoid's and s is an involution, so
    # every law before this one holds
    err = _rejection(elements, units, inverse, table)
    rejected = err is not None and err.law == "sm=m.flip(sxs)"
    assert rejected == (sm != msxs)
    if rejected:
        assert err.offender == first_difference(sm, msxs)


def double_coset_data(table, sub):
    """The double cosets HgH of a subgroup H, named by their least
    members: a multi-valued product HxH.HyH = {HxhyH : h in H} that
    keeps associativity and the unit laws, with unit H and inverse
    HgH -> Hs(g)H."""
    rep = {
        g: min(table.mult(table.mult(h1, g), h2) for h1 in sub for h2 in sub)
        for g in table.elements
    }
    names = sorted(set(rep.values()))
    products = {
        (rep[table.mult(table.mult(x, h), y)], x, y)
        for x in names
        for y in names
        for h in sub
    }
    return names, [rep[table.unit]], {x: rep[table.inv[x]] for x in names}, products


def involutions(names, rng):
    """Every total involution of names when there are at most four of
    them, else five picked by rng."""
    if len(names) <= 4:
        perms = itertools.permutations(names)
        maps = (dict(zip(names, p)) for p in perms)
        return [s for s in maps if all(s[s[x]] == x for x in names)]
    out = []
    for _ in range(5):
        inverse, shuffled = {x: x for x in names}, rng.sample(names, len(names))
        k = rng.randint(0, len(names) // 2)
        for x, y in zip(shuffled[: 2 * k : 2], shuffled[1 : 2 * k : 2]):
            inverse[x], inverse[y] = y, x
        out.append(inverse)
    return out


def test_antihomomorphism_on_multivalued_tables_agrees_with_the_materialized_sides():
    """The double coset tables of S4 by its subgroups of order 1 to 4,
    under their own inverse and other total involutions: every law
    before sm=m.flip(sxs) holds, and the table is multi-valued unless
    the subgroup is normal.  Rejected at that law exactly when the
    materialized sides differ, with their sorted-least difference as
    offender."""
    rng = random.Random(1311)
    s4 = symmetric_table(4)
    seen = set()
    for sub in subgroups_of(s4):
        if len(sub) > 4:
            continue
        names, units, inverse, table = double_coset_data(s4, sub)
        u = Universe("M", names)
        m = triples_rel(u, u, u, table)
        multi = len(m.pairs) != len(m._rows)
        for involution in [inverse, *involutions(names, rng)]:
            s = FinRel(u, u, [(involution[x], x) for x in names])
            sm = compose(s, m)
            msxs = compose(m, compose(flip(u, u), product(s, s)))
            err = _rejection(names, units, involution, table)
            assert err is None or err.law in ("sm=m.flip(sxs)", "m(s(g),g)-in-units")
            rejected = err is not None and err.law == "sm=m.flip(sxs)"
            assert rejected == (sm != msxs)
            if rejected:
                assert err.offender == first_difference(sm, msxs)
            seen.add((multi, rejected))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def single_row_mutations(g):
    """g's raw data after one edit: each row of its table deleted, or
    changed to another product, each triple not in it inserted, and each
    inverse changed to another element."""
    elements, units, inverse = tuple(g.elements), g.units, g.inverse
    table = list(g.table)
    for row in table:
        rest = [r for r in table if r != row]
        yield elements, units, inverse, rest
        for c in elements:
            if c != row[0]:
                yield elements, units, inverse, rest + [(c,) + row[1:]]
    present = set(table)
    for row in itertools.product(elements, repeat=3):
        if row not in present:
            yield elements, units, inverse, table + [row]
    for x, sx in inverse.items():
        for y in elements:
            if y != sx:
                yield elements, units, {**inverse, x: y}, table


def _verdict(elements, units, inverse, table):
    """(law, offender, detail) of the checked constructor, or None."""
    err = _rejection(elements, units, inverse, table)
    return None if err is None else (err.law, err.offender, err.detail)


def test_checked_constructor_agrees_with_the_relational_reference():
    """Every single-row mutation of P4 and S3, a seeded sample of those of
    the product form over S3, S4 and a bundle, every structure on at most
    two elements, and the double coset tables of S4 under their inverse
    and other involutions: the checked constructor rejects at the law,
    offender and detail that deciding each law on relations built in
    full gives, or accepts as it does.  Every law is reached, and a
    multi-valued table reaches the last two."""
    rng = random.Random(1311)
    s3 = symmetric_table(3)
    grid = []
    for g in (pair_groupoid(Universe("X4", "1234")), group_groupoid(s3)):
        grid += single_row_mutations(g)
    for g, k in (
        (product_form(Universe("B2", "xy"), s3), 60),
        (group_groupoid(symmetric_table(4)), 20),
        (group_bundle([cyclic_table(4), s3, cyclic_table(2)]), 120),
    ):
        grid += rng.sample(list(single_row_mutations(g)), k)
    for elements in ((), ("a",), ("a", "b")):
        rows = list(itertools.product(elements, repeat=3))
        for units, images, mask in itertools.product(
            _subsets(elements),
            itertools.product(elements, repeat=len(elements)),
            range(2 ** len(rows)),
        ):
            table = [row for i, row in enumerate(rows) if mask >> i & 1]
            grid.append((elements, units, dict(zip(elements, images)), table))
    s4 = symmetric_table(4)
    for sub in subgroups_of(s4):
        if len(sub) <= 4:
            names, units, inverse, table = double_coset_data(s4, sub)
            grid += [
                (names, units, involution, table)
                for involution in [inverse, *involutions(names, rng)]
            ]
    seen = set()
    for elements, units, inverse, table in grid:
        verdict = relational_verdict(elements, units, inverse, table)
        assert _verdict(elements, units, inverse, table) == verdict, (
            elements, units, inverse, table
        )
        multi = len({(a, b) for _, a, b in table}) < len(set(table))
        seen.add((multi, verdict and verdict[0]))
    assert {law for _, law in seen} == {
        None, "m(mxid)=m(idxm)", "m(exid)=id", "m(idxe)=id", "s2=id",
        "sm=m.flip(sxs)", "m(s(g),g)-in-units",
    }
    multi_laws = {law for multi, law in seen if multi}
    assert {"sm=m.flip(sxs)", "m(s(g),g)-in-units"} <= multi_laws
    assert None not in multi_laws


def test_a_multi_valued_unit_law_reads_s_g_times_g():
    """The double cosets of S4 by {1234, 3214}, with s swapping 1243 and
    1324 and fixing the rest, pass every law before the last.  Their
    m(s(g), g) and m(g, s(g)) hold different strays at g = 1243, and the
    constructor reports the first, as the relational reference does."""
    names, units, _, table = double_coset_data(symmetric_table(4), ["1234", "3214"])
    involution = {**{x: x for x in names}, "1243": "1324", "1324": "1243"}
    verdict = ("m(s(g),g)-in-units", "1243", "'1342' is not a unit")
    assert relational_verdict(names, units, involution, table) == verdict
    assert _verdict(names, units, involution, table) == verdict


def test_structure_relations_equal_the_relations_of_their_names():
    """m_rel, s_rel and e_rel, built on mask rows, equal the relations
    read by name from the table, the inverse map and the units, and hold
    no zero mask, the empty groupoid's included."""
    for g in (
        set_groupoid(Universe("E", ())),
        group_groupoid(cyclic_table(3)),
        pair_groupoid(Universe("X2", ("a", "b"))),
        product_form(Universe("B2", "xy"), symmetric_table(3)),
    ):
        u = g.elements
        named = (
            triples_rel(u, u, u, g.table),
            FinRel(u, u, [(g.inverse[x], x) for x in u]),
            FinRel(ONE, u, [(e, "1") for e in g.units]),
        )
        for built, by_name in zip((g.m_rel, g.s_rel, g.e_rel), named):
            assert built == by_name and 0 not in built._rows.values()


def test_a_single_valued_table_is_checked_without_a_relation(monkeypatch):
    """A valid P6 document and a raw S4 table are checked on index rows:
    no triple relation, composite, product or index-pair relation is
    built.  A Z3 table with an inserted row is multi-valued, and its
    laws are decided on the relation of its triples."""
    p6 = payload_of_groupoid(pair_groupoid(Universe("X6", "123456"), "P6"))
    s4 = symmetric_table(4)
    s4_raw = {(a, b): s4.mult(a, b) for a in s4.elements for b in s4.elements}
    z3 = group_groupoid(cyclic_table(3))
    calls = []

    def counted(name, function):
        return lambda *args: calls.append(name) or function(*args)

    for name in ("triples_rel", "compose", "product"):
        wrapped = counted(name, getattr(groupoid_module, name))
        monkeypatch.setattr(groupoid_module, name, wrapped)
    of_rows = counted("_of_rows", FinRel._of_rows)
    monkeypatch.setattr(FinRel, "_of_rows", staticmethod(of_rows))
    g = groupoid_from_payload(p6, json.dumps(p6))
    GroupTable("S4", s4.elements, s4_raw)
    assert calls == []
    assert len(g.table) == 6**3 and g.inverse["1,2"] == "2,1"
    inserted = z3.table + (("0", "1", "1"),)
    with pytest.raises(AxiomViolation) as err:
        Groupoid("Z3", tuple(z3.elements), z3.units, z3.inverse, inserted)
    assert err.value.law == "m(mxid)=m(idxm)"
    assert calls[0] == "triples_rel"


def test_composable_pairs(catalog):
    assert set(catalog["S2"].composable()) == {("p", "p"), ("q", "q")}
    assert len(catalog["Z2"].composable()) == 4
    assert len(catalog["P2"].composable()) == 8


def test_orbits(catalog):
    assert catalog["P2"].orbits() == (("x,x", "y,y"),)
    assert catalog["BD"].orbits() == (("0:0",), ("1:0",))
    assert len(catalog["TR"].orbits()) == 1
    assert catalog["EQ"].orbits() == (("1,1", "2,2"), ("3,3",))


def test_isotropy(catalog):
    p2 = catalog["P2"]
    assert catalog["P2"].isotropy("x,x").members == frozenset(("x,x",))
    z2 = catalog["Z2"]
    assert z2.isotropy("0").members == frozenset(z2.elements)
    tr = catalog["TR"]
    unit = min(tr.units)
    assert tr.isotropy(unit).members == frozenset((unit,))
    bundle = p2.isotropy_bundle()
    assert bundle.members == frozenset(("x,x", "y,y"))
    assert bundle.is_wide


def test_transitive_components(catalog):
    du = disjoint_union(catalog["P2"], catalog["Z2"])
    assert len(du.transitive_components()) == 2
    assert len(catalog["PF"].transitive_components()) == 1
    assert len(catalog["BD"].transitive_components()) == 2


def test_restrict_pair_groupoid():
    p3 = pair_groupoid(Universe("X", ("1", "2", "3")))
    small = p3.restrict(("1,1", "2,2"))
    assert small.same_structure(pair_groupoid(Universe("Y", ("1", "2"))))


def test_restrict_to_all_units_is_identity(catalog):
    for g in catalog.values():
        assert g.restrict(g.units) == g


def test_restrict_to_orbit_gives_component(catalog):
    eq = catalog["EQ"]
    block = eq.orbits()[0]
    component = eq.restrict(block)
    refs = eq.transitive_components()
    matching = [r for r in refs if set(r.units) == set(block)]
    assert len(matching) == 1
    assert component.same_structure(matching[0].as_groupoid())


def test_restrict_rejects_non_units(catalog):
    with pytest.raises(PreconditionFailed):
        catalog["Z2"].restrict(("1",))


def test_empty_restriction_is_valid(catalog):
    empty = catalog["Z2"].restrict(())
    assert len(empty.elements) == 0
    assert empty.orbits() == ()


def test_disjoint_union_size(catalog):
    du = disjoint_union(catalog["P2"], catalog["Z2"])
    assert len(du.elements) == 6
    assert {g[:2] for g in du.elements} == {"L:", "R:"}


def test_product_of_z2s_is_klein(catalog):
    prod = cartesian_product(catalog["Z2"], catalog["Z2"])
    assert find_groupoid_isomorphism(prod, catalog["V4"]) is not None


def test_product_with_two_point_base_doubles(catalog):
    prod = cartesian_product(catalog["S2"], catalog["Z2"])
    doubled = disjoint_union(catalog["Z2"], catalog["Z2"])
    assert find_groupoid_isomorphism(prod, doubled) is not None


def test_subgroupoid_predicates(catalog):
    z2 = catalog["Z2"]
    assert z2.is_subgroupoid(z2.units)
    assert z2.is_wide(z2.units)
    assert not z2.is_subgroupoid(("1",))
    p2 = catalog["P2"]
    assert p2.is_subgroupoid(("x,x", "y,y"))
    assert not p2.is_wide(("x,x",))


def test_subgroupoid_refs_compare_and_hash_by_parent_and_members(catalog):
    """Two refs are equal, and hash equal, when their parents are equal
    groupoids, distinct or not, and their members are the same set."""
    z2, z4 = catalog["Z2"], catalog["Z4"]
    ref = SubgroupoidRef(z2, ["0"])
    same = SubgroupoidRef(group_groupoid(cyclic_table(2)), ("0",))
    assert ref == same and hash(ref) == hash(same)
    assert len({ref, same, SubgroupoidRef(z2, z2.elements)}) == 2
    assert ref != SubgroupoidRef(z4, ["0"])
    assert ref != SubgroupoidRef(z2, z2.elements)
    assert ref != frozenset(["0"])


def test_is_subgroupoid_agrees_with_the_direct_loop(catalog):
    verdicts = []
    for g in catalog.values():
        elements = sorted(g.elements)
        for r in range(len(elements) + 1):
            for subset in itertools.combinations(elements, r):
                for members in (subset, subset + ("stray",)):
                    verdict = g.is_subgroupoid(members)
                    assert verdict == subgroupoid_loop(g, members), (g.name, members)
                    verdicts.append(verdict)
    assert len(verdicts) > 1000 and 0 < sum(verdicts) < len(verdicts)


def test_orbit_relation(catalog):
    p2 = catalog["P2"]
    assert p2.orbit_relation().same_structure(
        pair_groupoid(Universe("U", tuple(p2.units)))
    )
    bd = catalog["BD"]
    assert find_groupoid_isomorphism(
        bd.orbit_relation(), set_groupoid(Universe("U", tuple(bd.units)))
    ) is not None
    eq = catalog["EQ"]
    assert find_groupoid_isomorphism(eq.orbit_relation(), eq) is not None


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def test_partition_into_subgroupoids_respects_components(catalog):
    """Blocks of a subgroupoid partition are unions of transitive components."""
    for g in catalog.values():
        if len(g.elements) > 8:
            continue
        components = [frozenset(r.members) for r in g.transitive_components()]
        for part in _set_partitions(g.elements):
            if not all(g.is_subgroupoid(block) for block in part):
                continue
            for block in part:
                covered = {c for c in components if c & set(block)}
                assert set(block) == set().union(*covered) if covered else not block


def test_decompose_transitive_round_trip(catalog):
    for key in ("Z2", "P2", "P3", "TR", "PF"):
        g = catalog[key]
        base, table, phi = g.decompose_transitive()
        assert set(phi.values()) == set(g.elements)
        assert len(phi) == len(g.elements)
        keys = [
            (x, a, y)
            for x in base
            for a in table.elements
            for y in base
        ]
        for (x1, g1, y1), (x2, g2, y2) in itertools.product(keys, repeat=2):
            a = phi[f"{x1}|{g1}|{y1}"]
            b = phi[f"{x2}|{g2}|{y2}"]
            if y1 != x2:
                assert g.e_right(a) != g.e_left(b)
                continue
            assert g.mult(a, b) == phi[f"{x1}|{table.mult(g1, g2)}|{y2}"]


def test_decompose_transitive_shapes(catalog):
    base, table, phi = catalog["TR"].decompose_transitive()
    assert len(base) == 2 and len(table) == 1
    base, table, phi = catalog["Z4"].decompose_transitive()
    assert len(base) == 1 and len(table) == 4
    base, table, phi = catalog["P2"].decompose_transitive()
    assert len(base) == 2 and len(table) == 1


def test_decompose_requires_transitive(catalog):
    with pytest.raises(PreconditionFailed):
        catalog["BD"].decompose_transitive()


def test_subgroupoid_ref_as_groupoid(catalog):
    z4 = catalog["Z4"]
    ref = SubgroupoidRef(z4, frozenset(("0", "2")))
    sub = ref.as_groupoid()
    assert sorted(sub.elements) == ["0", "2"]
    assert sub.mult("2", "2") == "0"


@pytest.mark.parametrize(
    "units, inverse, table, error, message",
    [
        # several stray names: the units are named first, then a
        # missing inverse, the inverse map, and the table, in its order
        (["a", "z"], {"a": "a"}, [("y", "a", "a")], "UnknownElement",
         "unknown element 'z' in units of 'G'"),
        (["a"], {}, [("y", "a", "a")], "AxiomViolation",
         "axiom 'inverse-total' violated at 'a'"),
        (["a"], {"a": "a", "q": "a"}, [("y", "a", "a")], "UnknownElement",
         "unknown element 'q' in inverse map of 'G'"),
        (["a"], {"a": "a"}, [("a", "a", "a"), ("a", "x", "y")], "UnknownElement",
         "unknown element 'x' in table of 'G'"),
        # names the inclusion cannot hash or read are left to the loops
        (["a"], {"a": "a", "q": ["a"]}, [], "UnknownElement",
         "unknown element 'q' in inverse map of 'G'"),
        (["a"], {"a": ["a"]}, [], "TypeError", "unhashable type: 'list'"),
        (["a"], {"a": "a"}, [5], "TypeError", "cannot unpack non-iterable int object"),
    ],
)
def test_structure_check_names_the_first_stray_entry(
    units, inverse, table, error, message
):
    with pytest.raises(Exception) as err:
        Groupoid("G", ["a"], units, inverse, table)
    assert (type(err.value).__name__, str(err.value)) == (error, message)

