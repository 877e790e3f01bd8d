"""The unit laws and hm=m'(hxh) report lazily the law, offender and
message the materialized comparison reports.

Each corpus below runs an exhaustive family of small inputs through
the checked constructors, keeps the rejections at m(exid)=id,
m(idxe)=id, hm=m'(hxh) and phi(exid)=id, and rebuilds both sides of
the failed law as materialized relations.  The offender must be the
sorted-least pair on which they differ, the message must be the one an
eager offender gives, and the whole record is pinned by a digest taken
when offenders were still computed eagerly.  The structured morphism
enumerator's checked entry, given rows one bit away from each morphism
that enumerator returns over the catalog, is compared with the
relational reference of the morphism laws.

The two-sided laws m(mxid)=m(idxm) and sm=m.flip(sxs) are decided on
index rows; their corpus compares each rejection with both sides built
as the relation formulas read.
"""

import hashlib
import itertools
import json
import random

import pytest

from oracles import morphism_relational_verdict, naive_candidates
from groupoids.action import Action, left_mult_action
from groupoids.builders import (
    cyclic_table,
    group_groupoid,
    pair_groupoid,
    set_groupoid,
    symmetric_table,
)
from groupoids.errors import AxiomViolation
from groupoids.groupoid import Groupoid, cartesian_product
from groupoids.morphism import Morphism
from groupoids.relation import (
    ONE,
    FinRel,
    Universe,
    compose,
    first_difference,
    flip,
    identity,
    product,
    triples_rel,
    unitor_left,
    unitor_right,
)
from groupoids.search import enum_morphisms

P3 = pair_groupoid(Universe("X3", ("1", "2", "3")))
Z3 = group_groupoid(cyclic_table(3))
Z2 = group_groupoid(cyclic_table(2))
S2 = set_groupoid(Universe("pts", ("p", "q")))
PQ = Universe("PQ", ("p", "q"))


def _subsets(items):
    return [c for n in range(len(items) + 1) for c in itertools.combinations(items, n)]


def groupoid_rejections():
    """Every structure on at most two elements, as the exhaustive
    groupoid test builds them, rejected at a unit law."""
    for elements in ((), ("a",), ("a", "b")):
        rows = list(itertools.product(elements, repeat=3))
        for units, images, mask in itertools.product(
            _subsets(elements),
            itertools.product(elements, repeat=len(elements)),
            range(2 ** len(rows)),
        ):
            inverse = dict(zip(elements, images))
            table = [row for i, row in enumerate(rows) if mask >> i & 1]
            try:
                Groupoid("G", elements, units, inverse, table)
            except AxiomViolation as err:
                if err.law not in ("m(exid)=id", "m(idxe)=id"):
                    continue
                u = Universe("G", elements)
                m, idu = triples_rel(u, u, u, table), identity(u)
                e = FinRel(ONE, u, [(x, "1") for x in units])
                if err.law == "m(exid)=id":
                    yield err, compose(m, product(e, idu)), unitor_left(u)
                else:
                    yield err, compose(m, product(idu, e)), unitor_right(u)


def morphism_rejections():
    """Every candidate the naive enumerator rejects on P3 -> Z3 and
    Z3 -> Z3.

    The naive enumerator refuses on index rows and builds no Morphism
    for a refused candidate, so its candidates come, in its order, from
    the reference lattice `naive_candidates`, each through the checked
    constructor here.  The structured enumerator refuses none of its
    reconstructions; the next corpus gives its checked entry refused
    rows directly.
    """
    rejected = []
    for source, target in ((P3, Z3), (Z3, Z3)):
        for graph in naive_candidates(source, target):
            try:
                Morphism(source, target, graph)
            except AxiomViolation as err:
                rejected.append((err, source, target, graph))
    for err, source, target, graph in rejected:
        assert err.law == "hm=m'(hxh)"
        h = FinRel(source.elements, target.elements, graph)
        yield err, compose(h, source.m_rel), compose(target.m_rel, product(h, h))


def action_rejections():
    """Every triple set of Z2 and of S2 on two points rejected at the
    unit law."""
    for g in (Z2, S2):
        cells = list(itertools.product(PQ, g.elements, PQ))
        for triples in _subsets(cells):
            try:
                Action(g, PQ, triples)
            except AxiomViolation as err:
                if err.law != "phi(exid)=id":
                    continue
                phi = triples_rel(g.elements, PQ, PQ, triples)
                lhs = compose(phi, product(g.e_rel, identity(PQ)))
                yield err, lhs, unitor_left(PQ)


def test_lazy_offenders_match_the_materialized_difference():
    records = []
    for corpus in (
        groupoid_rejections(),
        morphism_rejections(),
        action_rejections(),
    ):
        for err, lhs, rhs in corpus:
            offender = first_difference(lhs, rhs)
            assert offender is not None
            assert err.offender == offender
            assert str(err) == f"axiom {err.law!r} violated at {offender!r}"
            records.append([err.law, repr(offender), str(err)])
    counts = {}
    for law, _, _ in records:
        counts[law] = counts.get(law, 0) + 1
    assert counts == {
        "m(exid)=id": 723,
        "m(idxe)=id": 44,
        "hm=m'(hxh)": 3589,
        "phi(exid)=id": 29,
    }
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "0343e292ad958614"


def test_refused_reconstructions_report_the_materialized_difference(catalog):
    """The graphs one pair away from each morphism enum_morphisms
    returns, on the catalog pairs with |G||G'| <= 24, given to
    Morphism(...): it refuses every one, and reports the law and
    offender of deciding each law on relations built in full, and its
    message."""
    counts = {}
    for source, target in itertools.product(catalog.values(), repeat=2):
        if len(source.elements) * len(target.elements) > 24:
            continue
        s_names, t_names = source.elements.names, target.elements.names
        for h, x, d in itertools.product(
            enum_morphisms(source, target), range(len(s_names)), range(len(t_names))
        ):
            rows = {**h._rows, x: h._rows.get(x, 0) ^ 1 << d}
            graph = [
                (t_names[d], s_names[x])
                for x, mx in rows.items()
                for d in range(len(t_names))
                if mx >> d & 1
            ]
            with pytest.raises(AxiomViolation) as caught:
                Morphism(source, target, graph)
            err = caught.value
            verdict = morphism_relational_verdict(source, target, graph)
            assert (err.law, err.offender) == verdict
            assert str(err) == f"axiom {err.law!r} violated at {err.offender!r}"
            counts[err.law] = counts.get(err.law, 0) + 1
    assert counts == {"he=e'": 217, "hm=m'(hxh)": 2443, "hs=s'h": 80}


# -- the two-sided laws, decided on index rows --------------------------

TWO_SIDED = ("m(mxid)=m(idxm)", "sm=m.flip(sxs)")


def small_structures():
    """Every structure on at most two elements, as above."""
    for elements in ((), ("a",), ("a", "b")):
        rows = list(itertools.product(elements, repeat=3))
        for units, images, mask in itertools.product(
            _subsets(elements),
            itertools.product(elements, repeat=len(elements)),
            range(2 ** len(rows)),
        ):
            table = [row for i, row in enumerate(rows) if mask >> i & 1]
            yield elements, units, dict(zip(elements, images)), table


def row_mutations(g, rng, per_kind=100):
    """g's data after one edit of each kind a build benchmark makes:
    delete, insert or change a row, or change an inverse; at most
    per_kind of each, picked by rng."""
    names, rows = tuple(g.elements), list(g.table)
    present = set(rows)
    inserts = [r for r in itertools.product(names, repeat=3) if r not in present]
    changes = [(r, c) for r in rows for c in names if c != r[0]]
    inverses = [(x, y) for x in names for y in names if y != g.inverse[x]]
    for row in rng.sample(rows, min(per_kind, len(rows))):
        yield names, g.units, g.inverse, [r for r in rows if r != row]
    for row in rng.sample(inserts, min(per_kind, len(inserts))):
        yield names, g.units, g.inverse, rows + [row]
    for row, c in rng.sample(changes, min(per_kind, len(changes))):
        yield names, g.units, g.inverse, [r for r in rows if r != row] + [
            (c,) + row[1:]
        ]
    for x, y in rng.sample(inverses, min(per_kind, len(inverses))):
        yield names, g.units, {**g.inverse, x: y}, rows


def involutions(names):
    """Every involution of names, as a dict."""
    if not names:
        yield {}
        return
    head, rest = names[0], names[1:]
    for s in involutions(rest):
        yield {head: head, **s}
    for i, partner in enumerate(rest):
        for s in involutions(rest[:i] + rest[i + 1 :]):
            yield {head: partner, partner: head, **s}


def materialized_sides(law, elements, inverse, table):
    """Both sides of a two-sided law, built as the relation formulas
    read."""
    u = Universe("G", elements)
    m, idu = triples_rel(u, u, u, table), identity(u)
    if law == "m(mxid)=m(idxm)":
        return compose(m, product(m, idu)), compose(m, product(idu, m))
    s = FinRel(u, u, [(inverse[x], x) for x in elements])
    return compose(s, m), compose(m, compose(flip(u, u), product(s, s)))


def test_two_sided_offenders_match_the_materialized_difference():
    """Rejections at the two-sided laws, from the structures on at most
    two elements, from row mutations of P4, Z6 and S3, and from every
    involution on S3, report the offender and message of the
    materialized sides."""
    rng = random.Random(1311)
    s3 = group_groupoid(symmetric_table(3))
    corpora = {
        "family": small_structures(),
        "mutations": [
            data
            for g in (
                pair_groupoid(Universe("X4", "1234")),
                group_groupoid(cyclic_table(6)),
                s3,
            )
            for data in row_mutations(g, rng)
        ],
        "involutions": [
            (tuple(s3.elements), s3.units, s, s3.table)
            for s in involutions(tuple(s3.elements))
        ],
    }
    counts = {}
    for corpus, structures in corpora.items():
        for elements, units, inverse, table in structures:
            try:
                Groupoid("G", elements, units, inverse, table)
            except AxiomViolation as err:
                if err.law not in TWO_SIDED:
                    continue
                lhs, rhs = materialized_sides(err.law, elements, inverse, table)
                offender = first_difference(lhs, rhs)
                assert offender is not None
                assert err.offender == offender
                assert str(err) == str(AxiomViolation(err.law, offender))
                key = f"{corpus} {err.law}"
                counts[key] = counts.get(key, 0) + 1
    assert counts == {
        "family m(mxid)=m(idxm)": 3296,
        "family sm=m.flip(sxs)": 8,
        "mutations m(mxid)=m(idxm)": 736,
        "involutions sm=m.flip(sxs)": 72,
    }


# -- the preimage scan in name order, single- and multi-valued -----------


def renamed(g):
    """g with its elements renamed a, a+, a++, ...: "+" sorts below ",",
    so the name order of g x g is not its index order."""
    new = {x: "a" + "+" * i for i, x in enumerate(g.elements)}
    return Groupoid(
        g.name,
        [new[x] for x in g.elements],
        [new[e] for e in g.units],
        {new[x]: new[y] for x, y in g.inverse.items()},
        [tuple(new[x] for x in row) for row in g.table],
    )


def action_sides(g, carrier, triples):
    """phi(m x id) and phi(id x phi), built as relations on plain
    universes with the names of g's elements and of the carrier."""
    u, x = Universe("G", tuple(g.elements)), Universe("X", tuple(carrier))
    m, phi = triples_rel(u, u, u, g.table), triples_rel(u, x, x, triples)
    return (
        compose(phi, product(m, identity(x))),
        compose(phi, product(identity(u), phi)),
    )


def test_two_sided_offenders_follow_name_order():
    """Rejections at the two-sided laws report the sorted-least pair of
    the materialized sides where a product's index order is not its name
    order: row mutations (inserts make m multi-valued) of S3, Z6 and P4
    renamed a, a+, ..., a checked Groupoid(...) and a checked Action(...)
    over a cartesian_product universe of such groupoids, and every triple
    set of Z2 and S2 on two points."""
    rng = random.Random(1311)
    small = [
        renamed(g)
        for g in (
            group_groupoid(symmetric_table(3)),
            group_groupoid(cyclic_table(6)),
            pair_groupoid(Universe("X4", "1234")),
        )
    ]
    product_g = cartesian_product(renamed(Z2), small[0])
    assert list(product_g.elements.names) != sorted(product_g.elements.names)
    counts = {}

    def record(corpus, err, lhs, rhs):
        offender = first_difference(lhs, rhs)
        assert offender is not None
        assert err.offender == offender
        assert str(err) == str(AxiomViolation(err.law, offender))
        key = f"{corpus} {err.law}"
        counts[key] = counts.get(key, 0) + 1

    for corpus, g in [("renamed", h) for h in small] + [("product", product_g)]:
        for names, units, inverse, table in row_mutations(g, rng):
            elements = g.elements if corpus == "product" else names
            try:
                Groupoid("G", elements, units, inverse, table)
            except AxiomViolation as err:
                if err.law in TWO_SIDED:
                    sides = materialized_sides(err.law, names, inverse, table)
                    record(corpus, err, *sides)
    lm = left_mult_action(product_g)
    cells = list(itertools.product(product_g.elements, product_g.elements))
    for _ in range(300):
        triples = list(lm.triples)
        edit = rng.choice(("insert", "change"))
        if edit == "change":
            i = rng.randrange(len(triples))
            triples[i] = (rng.choice(cells)[0],) + triples[i][1:]
        else:
            g, x = rng.choice(cells)
            triples.append((rng.choice(cells)[0], g, x))
        try:
            Action(product_g, product_g.elements, triples)
        except AxiomViolation as err:
            if err.law == "phi(mxid)=phi(idxphi)":
                sides = action_sides(product_g, product_g.elements, triples)
                record("action", err, *sides)
    for g in (Z2, S2):
        cells = list(itertools.product(PQ, g.elements, PQ))
        for triples in _subsets(cells):
            try:
                Action(g, PQ, triples)
            except AxiomViolation as err:
                if err.law == "phi(mxid)=phi(idxphi)":
                    record("two points", err, *action_sides(g, PQ, triples))
    assert counts == {
        "renamed m(mxid)=m(idxm)": 736,
        "product m(mxid)=m(idxm)": 300,
        "action phi(mxid)=phi(idxphi)": 270,
        "two points phi(mxid)=phi(idxphi)": 477,
    }

