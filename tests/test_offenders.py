"""The laws checked by compose_product_differs report lazily the law,
offender and message the materialized comparison reports.

Each corpus below runs an exhaustive family of small inputs through
the checked constructors, keeps the rejections at m(exid)=id,
m(idxe)=id, hm=m'(hxh) and phi(exid)=id, and rebuilds both sides of
the failed law as materialized relations.  The offender must be the
sorted-least pair on which they differ, the message must be the one an
eager offender gives, and the whole record is pinned by a digest taken
when offenders were still computed eagerly.
"""

import hashlib
import itertools
import json

from groupoids import search
from groupoids.action import Action
from groupoids.builders import cyclic_table, group_groupoid, pair_groupoid, set_groupoid
from groupoids.errors import AxiomViolation
from groupoids.groupoid import Groupoid
from groupoids.morphism import Morphism
from groupoids.relation import (
    ONE,
    FinRel,
    Universe,
    compose,
    first_difference,
    identity,
    product,
    triples_rel,
    unitor_left,
    unitor_right,
)
from groupoids.search import EnumBudget, enum_morphisms, enum_morphisms_naive

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


def morphism_rejections(monkeypatch):
    """Every candidate both enumerators reject on P3 -> Z3 and Z3 -> Z3."""
    rejected = []

    def recorded(source, target, graph):
        graph = list(graph)
        try:
            return Morphism(source, target, graph)
        except AxiomViolation as err:
            rejected.append((err, source, target, graph))
            raise

    monkeypatch.setattr(search, "Morphism", recorded)
    for source, target in ((P3, Z3), (Z3, Z3)):
        enum_morphisms_naive(source, target, EnumBudget(override=True))
        enum_morphisms(source, target)
    monkeypatch.undo()
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


def test_lazy_offenders_match_the_materialized_difference(monkeypatch):
    records = []
    for corpus in (
        groupoid_rejections(),
        morphism_rejections(monkeypatch),
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
