"""Bisections: subsets meeting every left and right unit fiber once.

They form a group under subset multiplication, act on the groupoid by
left translation, and conjugate it through the Ad construction.  For
pair groupoids they are exactly the graphs of bijections of the base,
and for groups they are the singletons.
"""

from __future__ import annotations

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    PreconditionFailed,
    UnknownElement,
)
from .builders import GroupTable
from .groupoid import Groupoid
from .morphism import Morphism, is_mono


def subset_mult(groupoid: Groupoid, a, b) -> frozenset:
    """Pointwise product of two subsets, over composable pairs only."""
    out = set()
    for x in a:
        for y in b:
            z = groupoid.mult(x, y)
            if z is not None:
                out.add(z)
    return frozenset(out)


def _is_section(groupoid: Groupoid, members) -> bool:
    left_seen = set()
    right_seen = set()
    for g in members:
        el, er = groupoid.e_left(g), groupoid.e_right(g)
        if el in left_seen or er in right_seen:
            return False
        left_seen.add(el)
        right_seen.add(er)
    units = set(groupoid.units)
    return left_seen == units and right_seen == units


def is_bisection(groupoid: Groupoid, subset) -> bool:
    """Fiber-section test, cross-checked against s(A)A = As(A) = E."""
    members = frozenset(subset)
    for g in members:
        if g not in groupoid.elements:
            raise UnknownElement(g, groupoid.name)
    by_fibers = _is_section(groupoid, members)
    units = frozenset(groupoid.units)
    inverted = frozenset(groupoid.inverse[g] for g in members)
    by_products = (
        subset_mult(groupoid, inverted, members) == units
        and subset_mult(groupoid, members, inverted) == units
    )
    if by_fibers != by_products:
        raise AxiomViolation("derived:bisection-products", min(members, default=None))
    return by_fibers


class Bisection:
    def __init__(self, groupoid: Groupoid, members):
        self.groupoid = groupoid
        self.members = frozenset(members)
        for g in self.members:
            if g not in groupoid.elements:
                raise UnknownElement(g, groupoid.name)
        if not _is_section(groupoid, self.members):
            raise AxiomViolation("bisection-section", min(self.members, default=None))
        self._by_right = {groupoid.e_right(g): g for g in self.members}

    @property
    def label(self) -> str:
        return "{" + "+".join(sorted(self.members)) + "}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bisection)
            and self.groupoid == other.groupoid
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.groupoid, self.members))

    def __repr__(self) -> str:
        return f"Bisection({self.label})"


class _Stop(Exception):
    pass


def _enum_member_sets(groupoid: Groupoid, limit=None) -> list:
    units = groupoid.units
    fibers = {
        e: sorted(g for g in groupoid.elements if groupoid.e_left(g) == e)
        for e in units
    }
    found: list = []

    def extend(i, used, chosen):
        if i == len(units):
            found.append(frozenset(chosen))
            if limit is not None and len(found) >= limit:
                raise _Stop
            return
        for g in fibers[units[i]]:
            r = groupoid.e_right(g)
            if r in used:
                continue
            used.add(r)
            chosen.append(g)
            extend(i + 1, used, chosen)
            used.remove(r)
            chosen.pop()

    try:
        extend(0, set(), [])
    except _Stop:
        pass
    return found


def all_bisections(groupoid: Groupoid) -> list:
    """Every bisection, in canonical member order."""
    sets = _enum_member_sets(groupoid)
    return [Bisection(groupoid, m) for m in sorted(sets, key=sorted)]


def bisection_group(groupoid: Groupoid, guard: int = 10000) -> GroupTable:
    """Cayley table of the bisections under subset multiplication."""
    sets = _enum_member_sets(groupoid, limit=guard)
    if len(sets) >= guard:
        raise BudgetExceeded(
            f"{groupoid.name!r} has {guard} or more bisections"
        )
    bisections = [Bisection(groupoid, m) for m in sorted(sets, key=sorted)]
    by_members = {b.members: b.label for b in bisections}
    mult = {}
    for m1, l1 in by_members.items():
        for m2, l2 in by_members.items():
            prod = subset_mult(groupoid, m1, m2)
            if prod not in by_members:
                raise AxiomViolation("derived:bisection-closure", (l1, l2))
            mult[(l1, l2)] = by_members[prod]
    return GroupTable._of_group(f"Bis({groupoid.name})", by_members.values(), mult)


def act(bisection: Bisection, g):
    """Left translation of g by the unique fitting member."""
    groupoid = bisection.groupoid
    if g not in groupoid.elements:
        raise UnknownElement(g, groupoid.name)
    mover = bisection._by_right[groupoid.e_left(g)]
    return groupoid.mult(mover, g)


def ad(bisection: Bisection) -> Morphism:
    """Conjugation by a bisection, as a morphism of the groupoid."""
    groupoid = bisection.groupoid
    graph = []
    for g in groupoid.elements:
        shifted = act(bisection, g)
        tail = bisection._by_right[groupoid.e_right(g)]
        graph.append((groupoid.mult(shifted, groupoid.inverse[tail]), g))
    out = Morphism._trusted(groupoid, groupoid, graph)
    if not is_mono(out):
        raise AxiomViolation("derived:ad-mono", bisection.label)
    return out


def image_bisection(h: Morphism, bisection: Bisection) -> Bisection:
    """The image of a bisection under a morphism."""
    if bisection.groupoid != h.source:
        raise PreconditionFailed("bisection lives on a different groupoid")
    members = {d for d, g in h.graph if g in bisection.members}
    return Bisection(h.target, members)


def induced_hom(h: Morphism) -> dict:
    """Tabulated group homomorphism from source to target bisections."""
    source_bs = all_bisections(h.source)
    by_members = {b.members: b for b in source_bs}
    hom = {b: image_bisection(h, b) for b in source_bs}
    for b1 in source_bs:
        for b2 in source_bs:
            prod = subset_mult(h.source, b1.members, b2.members)
            lhs = hom[by_members[prod]].members
            rhs = subset_mult(h.target, hom[b1].members, hom[b2].members)
            if lhs != rhs:
                raise AxiomViolation("derived:induced-hom", (b1.label, b2.label))
    return hom
