"""Example-family constructors and group tables."""

import itertools

import pytest
from oracles import groupoid_violation

from groupoids.action import (
    action_groupoid,
    conjugation_action,
    left_mult_action,
    quotient_groupoid,
    unit_action,
)
from groupoids.bisection import bisection_group
from groupoids.builders import (
    GroupTable,
    check_group_action,
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    group_table_of,
    is_normal,
    klein_table,
    pair_groupoid,
    product_form,
    quotient_group_table,
    set_groupoid,
    subgroup_table,
    subgroups_of,
    symmetric_table,
    transformation_groupoid,
    trivial_table,
)
from groupoids.errors import (
    AxiomViolation,
    PreconditionFailed,
    UniverseError,
    UnknownElement,
)
from groupoids import morphism
from groupoids.groupoid import Groupoid, cartesian_product, disjoint_union
from groupoids.relation import Universe
from groupoids.search import find_groupoid_isomorphism


def test_stock_tables():
    assert len(cyclic_table(4)) == 4
    assert len(trivial_table()) == 1
    assert len(klein_table()) == 4
    assert len(symmetric_table(3)) == 6
    z4 = cyclic_table(4)
    assert z4.mult("1", "3") == "0"
    assert z4.inv["3"] == "1"
    # V4 on the labels of Z4: the same labels, another table
    v4, at = klein_table(), {g: str(i) for i, g in enumerate("eabc")}
    relabelled = {(at[a], at[b]): at[v4.mult(a, b)] for a in at for b in at}
    assert GroupTable("V4", "0123", relabelled) != z4


def test_group_table_rejects_bad_data():
    with pytest.raises(PreconditionFailed):
        GroupTable(
            "bad",
            ("e", "a"),
            {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"},
        )


def test_group_table_checks_raw_tables_as_one_unit_groupoids():
    # a.a = b.b = e, a.b = a, b.a = b: one idempotent and an inverse
    # for every row, but (aa)b = b while a(ab) = e
    rows = {("a", "a"): "e", ("b", "b"): "e", ("a", "b"): "a", ("b", "a"): "b"}
    rows.update({(x, "e"): x for x in "eab"} | {("e", x): x for x in "eab"})
    with pytest.raises(AxiomViolation) as err:
        GroupTable("bad", "eab", rows)
    assert err.value.law == "m(mxid)=m(idxm)"
    with pytest.raises(PreconditionFailed):
        GroupTable("short", "ea", {("e", "e"): "e", ("e", "a"): "a"})
    z5 = cyclic_table(5)
    rows = {(a, b): z5.mult(a, b) for a in z5.elements for b in z5.elements}
    raw = GroupTable("Z5", z5.elements, rows)
    assert raw == z5 and (raw.unit, raw.inv) == (z5.unit, z5.inv)


@pytest.mark.parametrize(
    "pair, product, error, fields",
    [
        (("1", "1"), "9", UnknownElement, {"element": "9"}),
        # 1.2 = 1 leaves the row of 1 without the unit: 1 has no inverse
        (("1", "2"), "1", AxiomViolation, {"law": "inverse-total", "offender": "1"}),
        (
            ("1", "1"),
            "0",
            AxiomViolation,
            {"law": "m(mxid)=m(idxm)", "offender": ("0", "1,2,2")},
        ),
        (
            ("0", "0"),
            "1",
            PreconditionFailed,
            {"args": ("group 'Z3': no unique idempotent",)},
        ),
    ],
    ids=["outside-labels", "row-without-unit", "unit-twice-in-row", "no-idempotent"],
)
def test_raw_tables_with_one_entry_changed_are_refused(pair, product, error, fields):
    z3 = cyclic_table(3)
    mult = {(a, b): z3.mult(a, b) for a in z3.elements for b in z3.elements}
    mult[pair] = product
    with pytest.raises(error) as err:
        GroupTable("Z3", z3.elements, mult)
    assert {key: getattr(err.value, key) for key in fields} == fields


def test_bisection_labels_sort_otherwise_than_their_member_lists():
    # the member lists sort [a!,a a,a!] before [a!,a! a,a], the labels
    # {a!,a!+a,a} before {a!,a+a,a!}: the table is re-indexed by label
    bis = bisection_group(pair_groupoid(Universe("Y", ("a", "a!"))))
    swap, unit = "{a!,a+a,a!}", "{a!,a!+a,a}"
    assert bis.elements == (unit, swap)
    assert bis.unit == unit
    assert bis.inv == {unit: unit, swap: swap}
    assert [bis.mult(a, b) for a in bis.elements for b in bis.elements] == [
        unit, swap, swap, unit
    ]


def package_tables(catalog):
    """Every kind of table the package derives from a group it holds,
    each of order at most 24."""
    tables = [cyclic_table(n) for n in range(1, 9)]
    tables += [klein_table()] + [symmetric_table(n) for n in range(1, 5)]
    s4 = symmetric_table(4)
    tables += [subgroup_table(s4, members) for members in subgroups_of(s4)]
    for group in (s4, cyclic_table(12)):
        for members in subgroups_of(group):
            if is_normal(group, members):
                tables.append(quotient_group_table(group, members)[0])
    for g in catalog.values():
        tables += [group_table_of(g, g.isotropy(e).members) for e in g.units]
    p4 = pair_groupoid(Universe("X4", ("1", "2", "3", "4")))
    tables += [bisection_group(catalog["P3"]), bisection_group(p4)]
    return tables


def test_package_tables_are_groups(catalog):
    tables = package_tables(catalog)
    assert len(tables) == 13 + 30 + 4 + 6 + 20 + 2
    for t in tables:
        triples = [(t.mult(a, b), a, b) for a in t.elements for b in t.elements]
        assert groupoid_violation(t.elements, [t.unit], t.inv, triples) is None, t.name
        for g in t.elements:
            assert t.mult(t.unit, g) == g == t.mult(g, t.unit), t.name
            assert t.mult(g, t.inv[g]) == t.unit == t.mult(t.inv[g], g), t.name
        raw = {(a, b): t.mult(a, b) for a in t.elements for b in t.elements}
        checked = GroupTable(t.name, t.elements, raw)
        assert checked == t and hash(checked) == hash(t), t.name


def _rotation(n):
    """Z_n acting on the points 0..n-1 by addition."""
    return {(str(g), str(x)): str((g + x) % n) for g in range(n) for x in range(n)}


def builder_grid(catalog):
    """Yield (label, groupoid) for every kind of groupoid the package
    builds unchecked, over small inputs."""
    for n in range(1, 6):
        space = Universe(f"X{n}", [str(i) for i in range(1, n + 1)])
        yield f"pair {n}", pair_groupoid(space)
        yield f"set {n}", set_groupoid(space)
        for size in range(1, n + 1):
            blocks = [space.elements[i : i + size] for i in range(0, n, size)]
            yield f"equiv {blocks}", equivalence_groupoid(space, blocks)
    z1, z2, z3 = trivial_table(), cyclic_table(2), cyclic_table(3)
    v4, s3 = klein_table(), symmetric_table(3)
    # names with different numbers of commas whose pairs do not collide
    mixed = Universe("M", ("a", "b,c"))
    yield "pair mixed", pair_groupoid(mixed)
    yield "set mixed", set_groupoid(mixed)
    yield "equiv mixed", equivalence_groupoid(mixed, [["a"], ["b,c"]])
    yield "product form mixed", product_form(mixed, z2)
    tables = [cyclic_table(n) for n in range(1, 9)]
    tables += [v4] + [symmetric_table(n) for n in range(1, 5)]
    for t in tables:
        yield f"group {t.name}", group_groupoid(t)
    for fibres in ([z1], [z2, z1], [z3, z2, z1], [v4, s3], [s3, s3]):
        yield f"bundle {len(fibres)}", group_bundle(fibres)
    for n in range(1, 4):
        space = Universe(f"B{n}", "xyz"[:n])
        for t in (z1, z2, z3, v4, s3):
            yield f"product form {n} {t.name}", product_form(space, t)
    pq, three = Universe("PQ", "pq"), Universe("T", "123")
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    for i, (table, space, act) in enumerate((
        (z2, pq, swap),
        (z2, pq, {(g, x): x for g in z2.elements for x in pq}),
        (z3, Universe("R3", "012"), _rotation(3)),
        (cyclic_table(4), Universe("R4", "0123"), _rotation(4)),
        (s3, three, {(g, x): g[int(x) - 1] for g in s3.elements for x in three}),
    )):
        label = f"transformation {i}: {table.name} on {len(space)}"
        yield label, transformation_groupoid(table, space, act)
    for key, g in catalog.items():
        for k in range(len(g.units) + 1):
            for units in itertools.combinations(g.units, k):
                yield f"{key} restricted to {units}", g.restrict(units)
        for e in g.units:
            yield f"{key} isotropy at {e}", g.isotropy(e).as_groupoid()
        for i, component in enumerate(g.transitive_components()):
            yield f"{key} component {i}", component.as_groupoid()
        for action in (left_mult_action, unit_action, conjugation_action):
            label = f"{key} {action.__name__} groupoid"
            yield label, action_groupoid(action(g))
        yield f"{key} over its units", quotient_groupoid(g, g.units)[0]
    small = ("pt", "Z2", "S2", "P2", "BD")
    for left, right in itertools.combinations_with_replacement(small, 2):
        g1, g2 = catalog[left], catalog[right]
        yield f"{left}+{right}", disjoint_union(g1, g2)
        yield f"{left}x{right}", cartesian_product(g1, g2)


def test_unchecked_builds_pass_the_checked_constructor_and_the_oracle(catalog):
    """Each groupoid the package builds unchecked, rebuilt by the checking
    constructor, is the same groupoid and keeps every classical law."""
    count = 0
    for label, g in builder_grid(catalog):
        count += 1
        try:
            checked = Groupoid(g.name, g.elements, g.units, g.inverse, g.table)
        except AxiomViolation as err:
            pytest.fail(f"{label}: {err}")
        assert checked == g, label
        for read_off in ("_rows", "_inv", "_left", "_right"):
            assert getattr(checked, read_off) == getattr(g, read_off), label
        verdict = groupoid_violation(g.elements, g.units, g.inverse, g.table)
        assert verdict is None, label
    assert count == 10 + 15 + 4 + 13 + 5 + 15 + 5 + 44 + 20 + 14 + 33 + 11 + 30


def _s3_permutations():
    """S3 from its raw permutations of 1, 2, 3 in one-line notation, each
    with its action on the points; gh moves x to g(h(x))."""
    perms = ["".join(p) for p in itertools.permutations("123")]
    moves = {g: dict(zip("123", g)) for g in perms}

    def mult(g, h):
        return "".join(moves[g][moves[h][x]] for x in "123")

    inv = {g: next(h for h in perms if mult(g, h) == "123") for g in perms}
    return perms, moves, mult, inv


def test_product_form_and_transformation_groupoid_of_s3_match_the_oracle():
    """The product form X x S3 x X multiplies (x|g|y)(y|h|z) = x|gh|z,
    and the transformation groupoid of S3 on 1, 2, 3 multiplies
    (g:h(x))(h:x) = gh:x, with gh read off S3's raw permutations: the
    tables, units and inverse maps are the ones these formulas name."""
    perms, moves, mult, inv = _s3_permutations()
    s3 = symmetric_table(3)
    space = Universe("B2", "xy")
    pf = product_form(space, s3)
    assert set(pf.table) == {
        (f"{x}|{mult(g, h)}|{z}", f"{x}|{g}|{y}", f"{y}|{h}|{z}")
        for x, y, z in itertools.product(space, repeat=3)
        for g, h in itertools.product(perms, repeat=2)
    }
    assert pf.units == tuple(sorted(f"{x}|123|{x}" for x in space))
    assert pf.inverse == {
        f"{x}|{g}|{y}": f"{y}|{inv[g]}|{x}"
        for x, y in itertools.product(space, repeat=2)
        for g in perms
    }
    act = {(g, x): moves[g][x] for g in perms for x in "123"}
    tg = transformation_groupoid(s3, Universe("T", "123"), act)
    assert set(tg.table) == {
        (f"{mult(g, h)}:{x}", f"{g}:{moves[h][x]}", f"{h}:{x}")
        for g, h in itertools.product(perms, repeat=2)
        for x in "123"
    }
    assert tg.units == tuple(f"123:{x}" for x in "123")
    assert tg.inverse == {
        f"{g}:{x}": f"{inv[g]}:{moves[g][x]}" for g in perms for x in "123"
    }


def test_builds_name_their_triples_only_when_read(catalog):
    """A groupoid the package builds holds its product on index rows: it
    names neither its triples nor its inverse map until one is read."""
    z2, z6, s3 = cyclic_table(2), cyclic_table(6), symmetric_table(3)
    space, pq = Universe("X4", "abcd"), Universe("PQ", "pq")
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    pf = catalog["PF"]
    built = {
        "pair": pair_groupoid(space),
        "set": set_groupoid(space),
        "group": group_groupoid(symmetric_table(4)),
        "bundle": group_bundle([z6, s3, trivial_table()]),
        "equivalence": equivalence_groupoid(space, [["a", "c"], ["b", "d"]]),
        "product form": product_form(Universe("B3", "xyz"), s3),
        "transformation": transformation_groupoid(z2, pq, swap),
        "cartesian product": cartesian_product(catalog["P2"], catalog["BD"]),
        "disjoint union": disjoint_union(catalog["P2"], catalog["BD"]),
        "restriction": pf.restrict(["x|0|x"]),
        "component": catalog["BD"].transitive_components()[0].as_groupoid(),
    }
    for label, g in built.items():
        g.orbits()
        assert "table" not in vars(g) and "inverse" not in vars(g), label


def test_quotients_and_action_groupoids_build_on_rows():
    """A quotient by the isotropy bundle, a quotient by a kernel and the
    groupoid of the unit action are built from their parent's rows: no
    triple of the parent or of the result is named."""
    g = product_form(Universe("B3", "xyz"), symmetric_table(3))
    built = {
        "quotient": quotient_groupoid(g, g.isotropy_bundle().members)[0],
        "kernel quotient": morphism.quotient_by_kernel(morphism.to_orbit_pair(g))[0],
        "action groupoid": action_groupoid(unit_action(g)),
    }
    for label, q in built.items():
        assert "table" not in vars(g) and "table" not in vars(q), label


def test_separating_pair_builds_one_pair_groupoid(catalog, monkeypatch):
    """The pair groupoid on PF's elements is both the probe and the
    target of the left translations, built once and never named."""
    pf, make, calls = catalog["PF"], morphism.pair_groupoid, []

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(morphism, "pair_groupoid", counted)
    probe, k1, k2 = morphism.separating_pair(pf, pf.units)
    assert len(calls) == 1
    assert probe is k1.target is k2.target
    assert "table" not in vars(probe)


@pytest.mark.parametrize(
    "build",
    [
        lambda space: set_groupoid(space),
        lambda space: equivalence_groupoid(space, [["a"], ["a,a"]]),
        lambda space: product_form(space, trivial_table()),
    ],
    ids=["set", "equiv", "product-form"],
)
def test_unchecked_builds_refuse_ambiguous_pair_names(build):
    """'a'+'a,a' and 'a,a'+'a' both join to 'a,a,a'."""
    with pytest.raises(UniverseError, match="ambiguous pair names"):
        build(Universe("X", ("a", "a,a")))


def test_subgroups_of_z4():
    subs = subgroups_of(cyclic_table(4))
    assert [set(s) for s in subs] == [{"0"}, {"0", "2"}, {"0", "1", "2", "3"}]


def test_subgroups_of_s3():
    assert len(subgroups_of(symmetric_table(3))) == 6


def test_subgroups_of_s4():
    orders = [len(s) for s in subgroups_of(symmetric_table(4))]
    counts = {n: orders.count(n) for n in sorted(set(orders))}
    assert counts == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}


def test_subgroup_and_quotient_tables():
    z4 = cyclic_table(4)
    sub = subgroup_table(z4, ("0", "2"))
    assert len(sub) == 2 and sub.mult("2", "2") == "0"
    assert is_normal(z4, ("0", "2"))
    quot = quotient_group_table(z4, ("0", "2"))
    assert len(quot) == 2
    s3 = symmetric_table(3)
    orders = sorted(len(s) for s in subgroups_of(s3))
    assert orders == [1, 2, 2, 2, 3, 6]
    three = next(s for s in subgroups_of(s3) if len(s) == 3)
    two = next(s for s in subgroups_of(s3) if len(s) == 2)
    assert is_normal(s3, three)
    assert not is_normal(s3, two)
    with pytest.raises(PreconditionFailed):
        quotient_group_table(s3, two)
    # holds the unit and is closed under conjugation, but not a subgroup
    with pytest.raises(PreconditionFailed, match="not a normal subgroup"):
        quotient_group_table(s3, ("123", "132", "213", "321"))
    with pytest.raises(PreconditionFailed):
        subgroup_table(s3, [])


@pytest.mark.parametrize("build", [subgroup_table, quotient_group_table])
def test_members_outside_the_table_raise_unknown_element(build):
    z4 = cyclic_table(4)
    z4.rows = []  # any product taken before the check would raise IndexError
    with pytest.raises(UnknownElement) as err:
        build(z4, ["0", "9"])
    assert err.value.element == "9"


def test_check_group_action():
    space = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    assert check_group_action(cyclic_table(2), space, swap) == swap
    broken = dict(swap)
    broken[("1", "p")] = "p"
    with pytest.raises(PreconditionFailed):
        check_group_action(cyclic_table(2), space, broken)


def test_check_group_action_reports_the_first_fault_in_scan_order():
    """Acts that break the identity and composition laws at several
    points: the undefined or unknown moves come first, then the identity
    law at its least point, then the composition law at the first
    (g, h, x) of the scan over g, then h, then x, with these messages."""
    z3, s3 = cyclic_table(3), symmetric_table(3)
    turn = {(g, x): str((int(g) + int(x)) % 3) for g in z3.elements for x in "012"}
    both = {**turn, ("0", "1"): "2", ("0", "2"): "1", ("1", "1"): "1"}
    gaps = {k: v for k, v in both.items() if k != ("1", "0")}
    shifts = {**turn, **{(g, x): str((int(x) + 1) % 3) for g in "12" for x in "012"}}
    permute = {(g, x): g[int(x) - 1] for g in s3.elements for x in "123"}
    inverse = {(g, x): str(g.index(x) + 1) for g in s3.elements for x in "123"}
    swapped = {**permute, ("231", "1"): "1", ("231", "3"): "2", ("312", "2"): "2"}
    r3, t = Universe("R3", "012"), Universe("T", "123")
    cases = [
        (z3, r3, {**gaps, ("2", "2"): "9"}, "action undefined at ('1', '0')"),
        (z3, r3, {**both, ("2", "2"): "9"}, "unknown element '9' in action on 'R3'"),
        (z3, r3, both, "identity moves '1'"),
        (z3, r3, shifts, "action not compatible at ('1', '1', '0')"),
        (s3, t, inverse, "action not compatible at ('132', '213', '1')"),
        (s3, t, swapped, "action not compatible at ('132', '213', '2')"),
    ]
    for table, space, act, message in cases:
        with pytest.raises((PreconditionFailed, UnknownElement)) as err:
            check_group_action(table, space, act)
        assert str(err.value) == message
        fault = UnknownElement if message.startswith("unknown") else PreconditionFailed
        assert type(err.value) is fault
    assert check_group_action(s3, t, permute) == permute


@pytest.mark.parametrize(
    "key, element",
    [(("9", "p"), "9"), (("1", "zz"), "zz")],
    ids=["not-a-group-element", "not-a-point"],
)
def test_check_group_action_names_a_move_outside_g_times_x(key, element):
    """A move at a pair outside G x X is named as itself, even when the
    moves at G x X form an action."""
    space = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    with pytest.raises(UnknownElement) as err:
        check_group_action(cyclic_table(2), space, {**swap, key: "p"})
    assert err.value.element == element


def test_pair_groupoid_shape():
    p3 = pair_groupoid(Universe("X", ("1", "2", "3")))
    assert len(p3.elements) == 9
    assert len(p3.units) == 3
    assert len(p3.orbits()) == 1
    assert p3.mult("1,2", "2,3") == "1,3"
    single = pair_groupoid(Universe("X", ("x",)))
    assert len(single.elements) == 1


def test_pair_groupoid_rejects_name_collisions():
    with pytest.raises(ValueError):
        pair_groupoid(Universe("X", ("a", "a,a")))


def test_set_groupoid_shape():
    s = set_groupoid(Universe("S", ("a", "b")))
    assert set(s.units) == set(s.elements)
    assert len(s.composable()) == 2
    assert all(len(b) == 1 for b in s.orbits())
    assert s.mult("a", "a") == "a"


def test_group_groupoid_shape():
    z2 = group_groupoid(cyclic_table(2))
    assert len(z2.elements) == 2 and len(z2.units) == 1
    assert all(z2.e_left(g) == z2.e_right(g) for g in z2.elements)


def test_group_bundle_shape():
    bd = group_bundle([cyclic_table(2), trivial_table()])
    assert len(bd.elements) == 3 and len(bd.units) == 2
    assert all(bd.e_left(g) == bd.e_right(g) for g in bd.elements)
    assert sorted(bd.elements) == ["0:0", "0:1", "1:0"]


def test_equivalence_groupoid_shapes():
    space = Universe("N", ("1", "2", "3"))
    eq = equivalence_groupoid(space, (("1", "2"), ("3",)))
    assert len(eq.elements) == 5
    singles = equivalence_groupoid(space, (("1",), ("2",), ("3",)))
    assert find_groupoid_isomorphism(singles, set_groupoid(space)) is not None
    whole = equivalence_groupoid(space, (("1", "2", "3"),))
    assert whole.same_structure(pair_groupoid(space))


def test_equivalence_groupoid_rejects_bad_partition():
    space = Universe("N", ("1", "2"))
    with pytest.raises(PreconditionFailed):
        equivalence_groupoid(space, (("1",),))
    with pytest.raises(PreconditionFailed):
        equivalence_groupoid(space, (("1", "2"), ("2",)))


def test_product_form_shape():
    pf = product_form(Universe("B", ("x", "y")), cyclic_table(2))
    assert len(pf.elements) == 8
    assert len(pf.orbits()) == 1
    assert pf.mult("x|1|y", "y|1|x") == "x|0|x"
    for e in pf.units:
        iso = pf.isotropy(e)
        table = group_table_of(pf, iso.members)
        assert len(table) == 2


def test_transformation_groupoid_shape():
    space = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    tr = transformation_groupoid(cyclic_table(2), space, swap)
    assert len(tr.elements) == 4
    assert len(tr.orbits()) == 1


def test_transformation_groupoid_rejects_non_action():
    space = Universe("PQ", ("p", "q"))
    broken = {("0", "p"): "q", ("0", "q"): "p", ("1", "p"): "q", ("1", "q"): "p"}
    with pytest.raises(PreconditionFailed):
        transformation_groupoid(cyclic_table(2), space, broken)


def test_trivial_action_on_point_is_the_group():
    space = Universe("P", ("p",))
    act = {("0", "p"): "p", ("1", "p"): "p"}
    tr = transformation_groupoid(cyclic_table(2), space, act)
    assert find_groupoid_isomorphism(tr, group_groupoid(cyclic_table(2))) is not None


def test_trivial_action_on_two_points_is_a_bundle():
    space = Universe("PQ", ("p", "q"))
    act = {(g, x): x for g in ("0", "1") for x in ("p", "q")}
    tr = transformation_groupoid(cyclic_table(2), space, act)
    bundle = group_bundle([cyclic_table(2), cyclic_table(2)])
    assert find_groupoid_isomorphism(tr, bundle) is not None


def test_transitive_transformation_matches_product_form():
    space = Universe("PQ", ("p", "q"))
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    tr = transformation_groupoid(cyclic_table(2), space, swap)
    base, stab, phi = tr.decompose_transitive()
    assert len(stab) == 1
    model = product_form(Universe("B", tuple(base)), stab)
    assert len(model.elements) == len(tr.elements)
    assert find_groupoid_isomorphism(tr, model) is not None


def test_group_table_of_requires_a_group():
    pf = product_form(Universe("B", ("x", "y")), cyclic_table(2))
    with pytest.raises(PreconditionFailed):
        group_table_of(pf, pf.elements)
