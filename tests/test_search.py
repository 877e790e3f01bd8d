"""Enumeration oracles and brute-force cross-checks."""

import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings

from oracles import (
    action_count_reference,
    action_violation,
    actions_direct_reference,
    generated_groupoids,
    morphism_violation,
    naive_candidates,
    renamed,
)
from groupoids import action, builders, groupoid, morphism, relation, search
from groupoids.action import quotient_groupoid
from groupoids.builders import (
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_form,
    set_groupoid,
    symmetric_table,
    trivial_table,
)
from groupoids.errors import AxiomViolation, BudgetExceeded, PreconditionFailed
from groupoids.morphism import (
    CancellationWitness,
    Morphism,
    component_projection,
    compose_morphisms,
    identity_morphism,
    is_mono,
    left_regular,
    mono_witness,
    separating_pair,
    to_orbit_pair,
    wide_inclusion,
)
from groupoids.relation import Universe
from groupoids.search import (
    EnumBudget,
    check_cancellation,
    enum_actions,
    enum_actions_direct,
    enum_morphisms,
    enum_morphisms_naive,
    find_groupoid_isomorphism,
)

Z1 = group_groupoid(trivial_table())
Z2 = group_groupoid(cyclic_table(2))
Z4 = group_groupoid(cyclic_table(4))
V4 = group_groupoid(klein_table())
S2 = set_groupoid(Universe("pts", ("p", "q")))
P2 = pair_groupoid(Universe("X2", ("1", "2")))
EQ = equivalence_groupoid(Universe("E3", ("1", "2", "3")), (("1", "2"), ("3",)))
BD = group_bundle([cyclic_table(2), trivial_table()])
EMPTY = set_groupoid(Universe("none", ()))


def test_pinned_morphism_counts():
    assert len(enum_morphisms_naive(Z2, Z2)) == 2
    assert len(enum_morphisms_naive(S2, S2)) == 4
    assert len(enum_morphisms_naive(P2, Z1)) == 0
    assert len(enum_morphisms_naive(Z1, P2)) == 1
    assert len(enum_morphisms(Z2, V4)) == 4
    assert len(enum_morphisms(S2, Z2)) == 2
    assert len(enum_morphisms(P2, P2)) == 2


def test_naive_budget():
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
    with pytest.raises(BudgetExceeded):
        enum_morphisms_naive(p3, p3)
    generous = EnumBudget(max_pairs=30)
    assert {h.graph for h in enum_morphisms_naive(p3, BD, generous)} == {
        h.graph for h in enum_morphisms(p3, BD)
    }
    with pytest.raises(PreconditionFailed):
        EnumBudget(max_pairs=0)


def test_naive_examines_every_candidate_whatever_pair_it_compares_first():
    # a pair that a prefix of the choices fixes refutes the whole subtree
    # below it, and each of the 3,584 P3 -> Z3 candidates in such a
    # subtree is still counted against the budget
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
    z3 = group_groupoid(cyclic_table(3))
    with pytest.raises(BudgetExceeded):
        enum_morphisms_naive(p3, z3, EnumBudget(max_pairs=27, max_candidates=3583))
    budget = EnumBudget(max_pairs=27, max_candidates=3584)
    assert enum_morphisms_naive(p3, z3, budget) == []


def _refuted_before(source, target, graph, late):
    # True when a pair (x, y) with outputs at x and y, and with x, y and xy
    # (where defined) outside `late`, has h(xy) != h(x)h(y)
    outs = {}
    for d, g in graph:
        if g not in late:
            outs.setdefault(g, set()).add(d)
    for x, y in itertools.product(outs, repeat=2):
        xy = source.mult(x, y)
        if xy not in late:
            products = {target.mult(d1, d2) for d1 in outs[x] for d2 in outs[y]}
            if outs.get(xy, set()) != products - {None}:
                return True
    return False


def test_naive_decides_only_the_candidates_no_prefix_refutes(monkeypatch):
    # a candidate reaches hm=m'(hxh) in full only when no pair fixed before
    # its last choice refutes it; every one still counts against the budget
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
    z3 = group_groupoid(cyclic_table(3))
    leaves = []

    def counted(rows, *args):
        leaves.append(rows)
        return morphism._hm_refutation(rows, *args)

    monkeypatch.setattr(search, "_hm_refutation", counted)
    assert enum_morphisms_naive(p3, z3, EnumBudget(override=True)) == []
    # the last choice sets 2,3 and 3,2, in 8 ways after each prefix
    late = ("2,3", "3,2")
    prefixes = {
        frozenset((d, g) for d, g in graph if g not in late)
        for graph in naive_candidates(p3, z3)
    }
    reached = 8 * sum(not _refuted_before(p3, z3, p, late) for p in prefixes)
    assert len(leaves) == reached < 3584 // 10
    with pytest.raises(BudgetExceeded) as err:
        enum_morphisms_naive(p3, z3, EnumBudget(max_pairs=27, max_candidates=3583))
    assert str(err.value) == "examined 3584 candidates, cap is 3583"
    budget = EnumBudget(max_pairs=27, max_candidates=3584)
    assert enum_morphisms_naive(p3, z3, budget) == []


def test_naive_agrees_with_a_filter_beyond_the_catalog():
    # Z5 and Z6 fix the pair (1, 1) only at the choice of 2 = 1 + 1, which
    # comes after the choice of 1; the unit profiles run over 1 to 3
    # source and 1 to 3 target units, and the budget counts every candidate
    z5 = group_groupoid(cyclic_table(5))
    z6 = group_groupoid(cyclic_table(6))
    bundle = group_bundle([cyclic_table(3), cyclic_table(2)])
    pts2 = set_groupoid(Universe("T2", ("a", "b")))
    pts3 = set_groupoid(Universe("T3", ("a", "b", "c")))
    cases = [(z5, z5), (z6, Z2), (bundle, P2), (pts3, S2), (pts2, pts3)]
    for src, tgt in cases:
        expected = [h.graph for h in _naive_filter(src, tgt)]
        n = sum(1 for _ in naive_candidates(src, tgt))
        over = EnumBudget(max_pairs=30, max_candidates=n - 1)
        with pytest.raises(BudgetExceeded) as err:
            enum_morphisms_naive(src, tgt, over)
        assert str(err.value) == f"examined {n} candidates, cap is {n - 1}"
        budget = EnumBudget(max_pairs=30, max_candidates=n)
        found = [h.graph for h in enum_morphisms_naive(src, tgt, budget)]
        assert expected and found == expected, (src.name, tgt.name)


def test_naive_rejections_compute_no_offender(monkeypatch):
    # every P3 -> Z3 candidate fails hm=m'(hxh); the enumerator reads only
    # the law, so no offender may be computed
    calls = []

    def counted(lhs, rhs):
        calls.append((lhs, rhs))
        return relation.first_difference(lhs, rhs)

    monkeypatch.setattr(morphism, "first_difference", counted)
    monkeypatch.setattr(groupoid, "_first_difference", counted)
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
    z3 = group_groupoid(cyclic_table(3))
    assert enum_morphisms_naive(p3, z3, EnumBudget(override=True)) == []
    assert calls == []


def test_naive_rejections_build_no_relation(monkeypatch):
    # hm=m'(hxh) is read off index rows: a rejected candidate builds no
    # composite, no product and no relation beyond its own graph
    built = []
    of_rows = relation.FinRel._of_rows.__func__

    def counted(name, fn):
        def wrapper(*args):
            built.append(name)
            return fn(*args)

        return wrapper

    for module in (morphism, relation):
        monkeypatch.setattr(module, "compose", counted("compose", relation.compose))
        monkeypatch.setattr(module, "product", counted("product", relation.product))
    monkeypatch.setattr(
        relation.FinRel, "_of_rows", classmethod(counted("index", of_rows))
    )
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
    z3 = group_groupoid(cyclic_table(3))
    assert enum_morphisms_naive(p3, z3, EnumBudget(override=True)) == []
    assert built == []


def _naive_filter(source, target):
    # the naive enumerator's definition: every candidate through the
    # checked constructor, the survivors in canonical order
    found = []
    for graph in naive_candidates(source, target):
        try:
            found.append(Morphism(source, target, graph))
        except AxiomViolation as err:
            assert err.law == "hm=m'(hxh)"
    found.sort(key=lambda h: sorted(h.graph))
    return found


def test_naive_agrees_with_a_filter_over_every_candidate(catalog):
    z3 = group_groupoid(cyclic_table(3))
    members = catalog.values()
    cases = [(src, tgt, None) for src in members for tgt in members]
    override = EnumBudget(override=True)
    cases += [(catalog["P3"], z3, override), (z3, z3, override)]
    checked = 0
    for src, tgt, budget in cases:
        try:
            naive = enum_morphisms_naive(src, tgt, budget)
        except BudgetExceeded:
            continue
        expected = [h.graph for h in _naive_filter(src, tgt)]
        assert [h.graph for h in naive] == expected, (src.name, tgt.name)
        checked += 1
    assert checked == 94


def _count_builds(monkeypatch, unchecked):
    """A counter of calls to Morphism(...), Action(...) and the public
    FinRel constructor, and to the `unchecked` class's _of_rows."""
    built = Counter()

    def counted(cls, name):
        init = cls.__init__

        def wrapper(self, *args):
            built[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", wrapper)

    counted(morphism.Morphism, "Morphism")
    counted(action.Action, "Action")
    counted(relation.FinRel, "FinRel")
    of_rows = unchecked._of_rows.__func__

    def trusted(cls, *args):
        built["_of_rows"] += 1
        return of_rows(cls, *args)

    monkeypatch.setattr(unchecked, "_of_rows", classmethod(trusted))
    return built


def test_naive_builds_morphisms_only_for_survivors(monkeypatch):
    # every candidate is decided once, on index rows: a refused one builds
    # nothing, and a survivor is held as its rows, through neither
    # Morphism(...) nor the public FinRel constructor
    built = _count_builds(monkeypatch, morphism.Morphism)
    p3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
    z3 = group_groupoid(cyclic_table(3))
    assert enum_morphisms_naive(p3, z3, EnumBudget(override=True)) == []
    assert built == Counter()
    found = enum_morphisms_naive(z3, z3, EnumBudget(override=True))
    assert len(found) == 3
    assert built == Counter(_of_rows=3)


def test_direct_actions_are_held_as_their_move_rows(monkeypatch):
    # a lawful table is decided once, by forward checking, and held as
    # its move rows, through neither Action(...) nor the public FinRel
    # constructor
    built = _count_builds(monkeypatch, action.Action)
    xs = Universe("W3", ("u", "v", "w"))
    assert len(enum_actions_direct(Z4, xs)) == 4
    assert len(enum_actions_direct(P2, Universe("one", ("x",)))) == 0
    assert built == Counter(_of_rows=4)


def test_structured_agrees_with_naive():
    catalog = [Z1, Z2, Z4, V4, S2, P2, EQ, BD, EMPTY]
    checked = 0
    for src, tgt in itertools.product(catalog, repeat=2):
        try:
            naive = enum_morphisms_naive(src, tgt)
        except BudgetExceeded:
            continue
        structured = enum_morphisms(src, tgt)
        assert {h.graph for h in naive} == {h.graph for h in structured}, (
            src.name,
            tgt.name,
        )
        checked += 1
    assert checked >= 50


def _grid(catalog):
    """The catalog with Z3, S3, P4, X x S3 x X on two points and the
    bundle Z2 + Z3: 16 groupoids."""
    grid = dict(catalog)
    grid["Z3"] = group_groupoid(cyclic_table(3))
    grid["S3"] = group_groupoid(symmetric_table(3))
    grid["P4"] = pair_groupoid(Universe("X4", ("1", "2", "3", "4")))
    grid["XS3X"] = product_form(Universe("B2", ("x", "y")), symmetric_table(3))
    grid["Z2+Z3"] = group_bundle([cyclic_table(2), cyclic_table(3)])
    return grid


def test_structured_candidates_are_all_morphisms(catalog):
    """enum_morphisms holds its reconstructions unchecked, as facts (a)
    and (b) make each one a morphism: on the catalog and on the
    16-groupoid grid (every pair with |G||G'| <= 600), each result,
    rebuilt by the checking constructor, is itself and keeps every
    classical law; the results agree with the naive enumerator's
    wherever it runs within its default budget."""
    grid = _grid(catalog)
    found, by_naive = Counter(), 0
    for (a, source), (b, target) in itertools.product(grid.items(), repeat=2):
        if len(source.elements) * len(target.elements) > 600:
            continue
        structured = enum_morphisms(source, target)
        for h in structured:
            assert Morphism(source, target, h.graph) == h, (a, b)
            assert morphism_violation(h) is None, (a, b, h)
        found["grid"] += len(structured)
        found["catalog"] += len(structured) * (a in catalog and b in catalog)
        try:
            naive = enum_morphisms_naive(source, target)
        except BudgetExceeded:
            continue
        assert structured == naive, (a, b)
        by_naive += 1
    assert found == {"grid": 1572, "catalog": 324}
    assert by_naive == 141


def test_structured_enumerator_on_generated_groupoids():
    """On generated pairs of groupoids, each a disjoint union of up to
    three X x G x X, renamed and some indexed out of name order: every
    result of enum_morphisms, rebuilt by the checking constructor, is
    itself and keeps every classical law, and the results equal the
    naive enumerator's wherever it runs within its default budget."""
    seen = Counter()

    @seed(1311)
    @settings(max_examples=60, deadline=None)
    @given(source=generated_groupoids(), target=generated_groupoids())
    def check(source, target):
        found = enum_morphisms(source, target)
        for h in found:
            assert Morphism(source, target, h.graph) == h
            assert morphism_violation(h) is None, h
        seen["pairs"] += 1
        try:
            naive = enum_morphisms_naive(source, target)
        except BudgetExceeded:
            return
        assert found == naive
        seen["by naive"] += 1

    check()
    assert seen["pairs"] >= 50 and seen["by naive"] >= 10


def _morphism_route(groupoid, carrier) -> list:
    """The actions read off the morphisms into the pair groupoid, in
    their order: the route enum_actions generated them by before."""
    pairs = pair_groupoid(carrier)
    return [action._pair_action(h, carrier) for h in enum_morphisms(groupoid, pairs)]


def _same_actions(found, expected):
    """Equal lists of actions, order included, with equal move rows."""
    assert found == expected
    assert [a.triples for a in found] == [a.triples for a in expected]
    assert [a._moves for a in found] == [a._moves for a in expected]


# the carriers of the three routes; "a+,a" sorts before "a,a" in their
# pair groupoids, so an order by point index is not their name order
ROUTE_CARRIERS = [
    Universe(f"W{len(p)}", p) for p in ((), ("a",), ("a", "a+"), ("a", "a+", "b"))
]


def test_action_enumerators_agree_on_generated_groupoids():
    """On generated groupoids, the three routes give the same actions:
    enum_actions equals the morphism route, order included, and holds
    the direct enumerator's actions, as many as the count oracle gives;
    on carriers of up to two points and, for groupoids of at most 8
    elements, of three.  The direct ones keep the classical picture."""
    seen = Counter()

    @seed(1311)
    @settings(max_examples=60, deadline=None)
    @given(groupoid=generated_groupoids())
    def check(groupoid):
        for carrier in ROUTE_CARRIERS[: 3 + (len(groupoid.elements) <= 8)]:
            direct = enum_actions_direct(groupoid, carrier)
            found = enum_actions(groupoid, carrier)
            _same_actions(found, _morphism_route(groupoid, carrier))
            assert sorted(a.triples for a in found) == sorted(a.triples for a in direct)
            assert len(found) == action_count_reference(groupoid, len(carrier))
            for a in direct:
                assert action_violation(a) is None, a
            seen["actions"] += len(direct)
        seen["groupoids"] += 1

    check()
    assert seen["groupoids"] >= 50 and seen["actions"] >= 100, seen


def test_action_enumerators_agree_with_the_morphism_route(catalog):
    """On the catalog, S3 and Z3, with 0-4 points: enum_actions gives the
    morphism route's actions in its order, and both enumerators give as
    many as the count oracle.  Four points put two over each unit of a
    two-unit orbit, where the bijections of fibers along a path are more
    than one."""
    groupoids = [*catalog.values(), group_groupoid(symmetric_table(3))]
    groupoids.append(group_groupoid(cyclic_table(3)))
    counts = []
    for g in groupoids:
        for carrier in [*ROUTE_CARRIERS, Universe("W4", ("a", "a+", "b", "c"))]:
            found = enum_actions(g, carrier)
            _same_actions(found, _morphism_route(g, carrier))
            count = action_count_reference(g, len(carrier))
            assert len(found) == len(enum_actions_direct(g, carrier)) == count
            counts.append(count)
    assert (sum(counts), max(counts)) == (375, 52), counts


def _refuse_everywhere(monkeypatch, names):
    """Make each function in `names` raise, under every name a package
    module binds it to."""

    def refuse(*args, **kwargs):
        raise AssertionError("the enumerator reached the morphism side")

    for module in (action, builders, morphism, search):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_generated_actions_read_no_morphism(monkeypatch):
    """enum_actions generates its actions without enum_morphisms, the
    pair groupoid or _pair_action."""
    s3, xs = group_groupoid(symmetric_table(3)), Universe("W3", ("u", "v", "w"))
    expected = {g: _morphism_route(g, xs) for g in (Z4, s3, EQ)}
    _refuse_everywhere(monkeypatch, ("enum_morphisms", "pair_groupoid", "_pair_action"))
    for g, actions in expected.items():
        _same_actions(enum_actions(g, xs), actions)
    assert [len(a) for a in expected.values()] == [4, 10, 7]


def test_structured_enumerator_keeps_each_groupoids_shapes(monkeypatch, apart_indexed):
    """A groupoid's orbit shapes and its arrows by right unit are read on
    its first enumeration and kept on it: later calls, as source or as
    target, recompute neither.  Groupoids indexed apart keep their own
    and give equal results."""
    fresh = [
        pair_groupoid(Universe("X3", ("1", "2", "3"))),
        group_bundle([cyclic_table(2), trivial_table()]),
        pair_groupoid(Universe("X2", ("1", "2"))),
    ]
    built = Counter()
    for owner, name, label in (
        (groupoid.Groupoid, "orbits", "orbits"),
        (search, "_FiberSearch", "_FiberSearch"),
        (groupoid.Groupoid._fibers, "func", "_fibers"),
    ):

        def counted(*args, made=getattr(owner, name), label=label):
            built[label] += 1
            return made(*args)

        monkeypatch.setattr(owner, name, counted)

    def every_pair(groupoids):
        return [enum_morphisms(s, t) for s, t in itertools.product(groupoids, repeat=2)]

    first, once = every_pair(fresh), {"orbits": 3, "_FiberSearch": 4, "_fibers": 3}
    assert built == once
    assert every_pair(fresh) == first and built == once
    # (delta, delta), (delta, copy), (copy, delta) and (copy, copy)
    apart = every_pair(apart_indexed)
    counts = Counter(built)
    assert every_pair(apart_indexed) == apart and built == counts
    assert all(r == apart[0] for r in apart) and len(apart[0]) > 1


def test_fiber_tables_give_each_unit_of_a_row_one_arrow():
    """Fact (b) as a constraint of the table search: the tables of P2
    into P4 over a base map with two units over each unit, and of S3
    into P2 over its one base map, are exactly the restrictions of the
    morphisms to the right fiber, and no row of them sends two units of
    F0 to one left unit.  The constraint refuses tried values on both,
    and on S3 -> P2 a forced one as well."""
    p4 = pair_groupoid(Universe("X4", ("1", "2", "3", "4")))
    s3 = group_groupoid(symmetric_table(3))
    for source, target, rho in (
        (P2, p4, {"1,1": "1,1", "2,2": "1,1", "3,3": "2,2", "4,4": "2,2"}),
        (s3, P2, dict.fromkeys(P2.units, s3.units[0])),
    ):
        ((_, e0, _, fiber_search),) = search._orbit_shapes(source)
        # rho and F0 on unit indices, F0 in name order
        s_at, t_at, names = source._index, target._index, target._names
        at_rho = {t_at[f]: s_at[e] for f, e in rho.items()}
        F0 = [t_at[f] for f in target.units if at_rho[t_at[f]] == e0]
        tables = fiber_search.tables(target, at_rho, F0)
        nf = len(F0)
        rows = {
            tuple(tuple(names[d] for d in table[g : g + nf]) for g in range(0, len(table), nf))
            for table in tables
        }
        for row in itertools.chain.from_iterable(rows):
            assert len({target.e_left(d) for d in row}) == nf
        fiber = [source._names[g] for g in fiber_search.fiber]
        restrictions = {
            tuple(
                tuple(
                    next(d for d in h.outputs(g) if target.e_right(d) == names[f])
                    for f in F0
                )
                for g in fiber
            )
            for h in enum_morphisms(source, target)
            if h.base_map == rho
        }
        assert len(tables) == len(rows) == len(restrictions) > 1
        assert rows == restrictions


def test_fiber_search_forces_a_product_from_either_factor():
    """X x Z2 x X on two points, renamed so that the fiber over its least
    unit lists the two arrows out of that unit before its isotropy
    group.  A product g x with g one of those arrows is then set before
    x, and only the rule fired by setting x holds it to T(g, -) T(x, -).
    The renamed groupoid has the product form's 8 endomorphisms, into
    the product form and into itself, and each is a morphism."""
    pf = product_form(Universe("B", ("x", "y")), cyclic_table(2))

    def label(name):  # x|g|y, from y to x, as "y a g x", or "y b g x" if x = y
        x, g, y = name.split("|")
        return f"{y}{'b' if x == y else 'a'}{g}{x}"

    rename = {name: label(name) for name in pf.elements}
    source = renamed(pf, rename, rename.values(), "R")
    ((_, _, _, fiber_search),) = search._orbit_shapes(source)
    assert fiber_search.iso == [2, 3]
    for target in (pf, source):
        found = enum_morphisms(source, target)
        assert len(found) == len(enum_morphisms(pf, pf)) == 8
        for h in found:
            assert Morphism(source, target, h.graph) == h


def test_s4_endomorphisms_by_image_order():
    # by kernel: S4 gives the trivial one; A4 the sign onto each of the 9
    # subgroups of order 2; V4 gives S4/V4 = S3 onto each of the 4 point
    # stabilizers in 6 ways; the trivial kernel the 24 automorphisms
    s4 = group_groupoid(symmetric_table(4))
    by_image = Counter(len(h.image_elements) for h in enum_morphisms(s4, s4))
    assert by_image == {1: 1, 2: 9, 6: 24, 24: 24}


def test_enumerated_morphisms_compose_within_the_set():
    ms = enum_morphisms(Z2, Z2)
    graphs = {h.graph for h in ms}
    for h1, h2 in itertools.product(ms, repeat=2):
        assert compose_morphisms(h1, h2).graph in graphs


def test_right_fiber_determines_morphisms_from_transitive_sources():
    for src, tgt in [(Z2, Z2), (P2, P2), (Z2, V4), (P2, Z2)]:
        e0 = src.units[0]
        fiber = {g for g in src.elements if src.e_right(g) == e0}
        restrictions = set()
        morphisms = enum_morphisms(src, tgt)
        for h in morphisms:
            restrictions.add(frozenset(p for p in h.graph if p[1] in fiber))
        assert len(restrictions) == len(morphisms)


def test_action_enumerators_agree():
    x2 = Universe("two", ("x", "y"))
    x1 = Universe("one", ("x",))
    x0 = Universe("none", ())
    cases = [(Z2, x2), (S2, x2), (P2, x1), (Z4, x2), (P2, x2)]
    cases += [(g, x0) for g in (Z1, Z2, S2, P2, EMPTY)]
    for g, xs in cases:
        via_morphisms = enum_actions(g, xs)
        direct = enum_actions_direct(g, xs)
        assert {a.triples for a in via_morphisms} == {
            a.triples for a in direct
        }, (g.name, xs.name)
    assert len(enum_actions(Z2, x2)) == 2
    assert len(enum_actions(S2, x2)) == 4
    assert len(enum_actions(P2, x1)) == 0
    # every groupoid acts on the empty carrier, in exactly one way
    assert len(enum_actions(Z1, x0)) == len(enum_actions(EMPTY, x0)) == 1


def test_direct_actions_keep_the_reference_order(catalog):
    # the same actions in the same order as the full product of slot
    # values, filtered after each table is built
    for g in catalog.values():
        for n in range(4):
            xs = Universe(f"W{n}", "uvw"[:n])
            direct = [a.triples for a in enum_actions_direct(g, xs)]
            reference = [a.triples for a in actions_direct_reference(g, xs)]
            assert direct == reference, (g.name, xs.name)


def test_lawful_tables_match_the_filtered_product():
    # seeded constraint systems that need not come from a groupoid, so no
    # constraint is implied by others: each one filed under each role
    # must be tested for the result to match the filtered product
    rng = random.Random(1980)
    for _ in range(300):
        names = rng.sample("abcd", rng.randint(1, 3))
        points = sorted(rng.sample("uvw", rng.randint(1, 3)))
        slots = sorted(itertools.product(names, points))
        cand = [
            tuple(sorted(rng.sample(points, rng.randint(1, len(points)))))
            for _ in slots
        ]
        left_factors = {
            g2: [
                (rng.choice(names), rng.choice(names))
                for _ in range(rng.randint(0, 2))
            ]
            for g2 in names
        }
        expected = [
            values
            for values in itertools.product(*cand)
            if all(
                phi[(g1, y)] == phi[(c, x)]
                for phi in [dict(zip(slots, values))]
                for (g2, x), y in phi.items()
                for g1, c in left_factors[g2]
            )
        ]
        got = list(search._lawful_tables(slots, cand, left_factors))
        assert got == expected, (slots, cand, left_factors)


def test_direct_actions_agree_on_four_points(catalog):
    rng = random.Random(1311)
    pool = [*"abcdefgh", "p0", "p1", "q", "z9"]
    for g in catalog.values():
        xs = Universe("X4", rng.sample(pool, 4))
        direct = {a.triples for a in enum_actions_direct(g, xs)}
        assert direct == {a.triples for a in enum_actions(g, xs)}, (
            g.name,
            xs.elements,
        )


def test_direct_actions_read_no_morphism(monkeypatch):
    xs = Universe("W3", ("u", "v", "w"))
    expected = [a.triples for a in actions_direct_reference(Z4, xs)]
    names = ("enum_morphisms", "pair_groupoid", "_pair_action", "Morphism")
    _refuse_everywhere(monkeypatch, names)
    assert [a.triples for a in enum_actions_direct(Z4, xs)] == expected
    assert len(expected) == 4


def test_cancellation_finds_nothing_for_monos():
    for h in (identity_morphism(Z4), left_regular(Z2)):
        assert check_cancellation(h, "left") is None


def test_cancellation_matches_constructed_witness_on_z2():
    collapse = to_orbit_pair(Z2)
    assert not is_mono(collapse)
    found = check_cancellation(collapse, "left")
    built = mono_witness(collapse)
    assert {found.w1.graph, found.w2.graph} == {built.w1.graph, built.w2.graph}


def test_cancellation_verifies_on_z4():
    collapse = to_orbit_pair(Z4)
    found = check_cancellation(collapse, "left")
    built = mono_witness(collapse)
    assert found is not None and found.verify(collapse)
    assert built.verify(collapse)


def test_cancellation_raises_when_its_witness_fails_to_verify(monkeypatch):
    monkeypatch.setattr(CancellationWitness, "verify", lambda self, h: False)
    for side, h, law in (
        ("left", to_orbit_pair(Z2), "derived:mono-witness"),
        ("right", wide_inclusion(Z2, frozenset(Z2.units)), "derived:epi-witness"),
    ):
        with pytest.raises(AxiomViolation) as err:
            check_cancellation(h, side)
        assert err.value.law == law


def test_cancellation_builds_the_probes_once_per_groupoid(monkeypatch):
    # the probes are built on a groupoid's first hunt and kept on it; each
    # hunt finds the witness a freshly built probe list gives
    bundle = group_bundle([cyclic_table(2), trivial_table()])
    collapse = to_orbit_pair(bundle)
    fresh = search._build_probes(bundle)
    expected = check_cancellation(collapse, "left", probes=fresh)
    built = Counter()
    for name in ("set_groupoid", "group_groupoid"):

        def counted(*args, make=getattr(search, name), name=name):
            built[name] += 1
            return make(*args)

        monkeypatch.setattr(search, name, counted)
    first = check_cancellation(collapse, "left")
    once = Counter(built)
    second = check_cancellation(collapse, "left")
    assert built == once and sum(once.values()) == len(fresh)
    for found in (first, second):
        assert (found.probe, found.w1, found.w2) == (
            expected.probe, expected.w1, expected.w2
        )
    probes = search.proof_probes(bundle)
    assert probes == fresh and probes is not search.proof_probes(bundle)


def _outcome(h, side, **options):
    """A hunt's witness as (probe, w1, w2, side), None, or the message of
    the budget it exceeded."""
    try:
        w = check_cancellation(h, side, **options)
    except BudgetExceeded as err:
        return str(err)
    return w and (w.probe, w.w1, w.w2, w.side)


def test_cancellation_enumerates_each_probes_arrows_once(fresh_catalog, monkeypatch):
    """The hunts on every morphism among pt, Z2, S2 and P2, on both sides:
    each (groupoid, probe, side) has its arrows enumerated once, on its
    first hunt, and kept on the groupoid.  The witnesses, and the budget
    refusals of a one-pair budget, are those of the same probes passed
    explicitly, which keeps nothing."""
    cat = fresh_catalog
    keys = ("pt", "Z2", "S2", "P2")
    family = [h for a in keys for b in keys for h in enum_morphisms(cat[a], cat[b])]
    hunts = [(h, side) for h in family for side in ("left", "right")]
    tight = EnumBudget(max_candidates=1)
    expected = []
    for h, side in hunts:
        probes = search._build_probes(h.source if side == "left" else h.target)
        for budget in (None, tight):
            expected.append(_outcome(h, side, probes=probes, budget=budget))
    kept = ("_hunted", "_probes")
    assert not any(name in vars(g) for g in cat.values() for name in kept)
    calls, make = [], search.enum_morphisms

    def counted(source, target):
        calls.append((source, target))
        return make(source, target)

    monkeypatch.setattr(search, "enum_morphisms", counted)
    for _ in range(2):
        found = [
            _outcome(h, side, budget=budget)
            for h, side in hunts
            for budget in (None, tight)
        ]
        assert found == expected
        assert len(calls) == 24
    owners = {id(g) for g in cat.values()}
    triples = {
        (id(t), id(s), "right") if id(s) in owners else (id(s), id(t), "left")
        for s, t in calls
    }
    assert len(triples) == len(calls)
    assert len(hunts) == 48 and expected.count(None) == 50
    assert sum(isinstance(w, str) for w in expected) == 10


def test_cancellation_hunts_leave_no_reference_cycle(fresh_catalog):
    """A hunt keeps its arrows on the groupoid as rows, which name no
    groupoid, so the 48 hunts on the morphisms among pt, Z2, S2 and P2
    leave nothing for the cyclic collector once the catalog is dropped."""
    cat = fresh_catalog
    keys = ("pt", "Z2", "S2", "P2")
    family = [h for a in keys for b in keys for h in enum_morphisms(cat[a], cat[b])]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for h, side in itertools.product(family, ("left", "right")):
            check_cancellation(h, side)
        assert len(family) == 24 and "_hunted" in vars(cat["P2"])
        del h
        family.clear()
        cat.clear()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_cancellation_on_partial_domain():
    members = frozenset(g for g in BD.elements if g.startswith("0:"))
    proj = component_projection(BD, members)
    assert not is_mono(proj)
    found = check_cancellation(proj, "left")
    assert found is not None and found.verify(proj)


def test_cancellation_epi_side():
    inc = wide_inclusion(Z2, frozenset(Z2.units))
    found = check_cancellation(inc, "right")
    assert found is not None and found.verify(inc)
    probe, k1, k2 = separating_pair(Z2, frozenset(Z2.units))
    assert k1 != k2


def test_isomorphism_search():
    quot, _ = quotient_groupoid(Z4, frozenset(("0", "2")))
    assert find_groupoid_isomorphism(quot, Z2) is not None
    assert find_groupoid_isomorphism(Z4, V4) is None
    mapping = find_groupoid_isomorphism(Z4, Z4)
    assert mapping is not None
    for a in Z4.elements:
        for b in Z4.elements:
            c = Z4.mult(a, b)
            if c is not None:
                assert Z4.mult(mapping[a], mapping[b]) == mapping[c]


def test_isomorphism_respects_structure_not_just_counts():
    s2 = set_groupoid(Universe("D", ("a", "b")))
    assert find_groupoid_isomorphism(Z2, s2) is None


def test_isomorphism_search_leaves_no_reference_cycle():
    """The search is a loop, not a closure that calls itself, so a call
    leaves nothing for the cyclic collector."""
    find_groupoid_isomorphism(EQ, EQ)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(100):
            find_groupoid_isomorphism(EQ, EQ)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# the pair groupoid on W indexes "a+,a" after "a,a", but sorts it before
W = pair_groupoid(Universe("W", ("a", "a+", "b")))


def test_enumerators_return_morphisms_in_name_order(catalog, apart_indexed):
    """Both enumerators return their morphisms as sorted(h.graph) orders
    them: from the small catalog members into P2, P3 and the pair
    groupoid on W, and from Z2 into a groupoid indexed out of name
    order, where an order by index differs."""
    assert W.elements.names != sorted(W.elements.names)
    small = [g for g in catalog.values() if len(g.elements) <= 5]
    cases = [(g, t) for g in small for t in (catalog["P2"], catalog["P3"], W)]
    cases.append((catalog["Z2"], apart_indexed[0]))
    budget, by_index = EnumBudget(max_pairs=45), 0
    for source, target in cases:
        structured = enum_morphisms(source, target)
        assert structured == enum_morphisms_naive(source, target, budget)
        assert structured == sorted(structured, key=lambda h: sorted(h.graph))
        indexed = sorted(structured, key=lambda h: sorted(h.rel.pairs))
        by_index += indexed != structured
    assert by_index >= 2
