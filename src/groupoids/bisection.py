"""Bisections: subsets meeting every left and right unit fiber once.

They form a group under subset multiplication, act on the groupoid by
left translation, and conjugate it through the Ad construction.  For
pair groupoids they are exactly the graphs of bijections of the base,
and for groups they are the singletons.

Ad(b) sends g to b_l g s(b_r), with b_l and b_r the members of b whose
right units are the left and right units of g: a functor inverted by
Ad(s(b)), so mono.  It is not re-checked; tests/test_derived.py checks
it over the Tier-1 grid against an independent oracle.
"""

from __future__ import annotations

from itertools import repeat

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    PreconditionFailed,
    UnknownElement,
)
from .builders import GroupTable
from .groupoid import Groupoid
from .morphism import Morphism
from .relation import _bits


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
        # the member over each right unit, on indices
        index, right = groupoid._index, groupoid._right
        self._by_right = {right[index[g]]: index[g] for g in self.members}

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


def _enum_member_sets(groupoid: Groupoid, limit=None) -> list:
    """The member sets of bisections, depth first, at most `limit`."""
    units = groupoid.units
    if not units:
        return [frozenset()]
    by_left = {e: [] for e in units}  # (member, right unit), by name
    for g, left, right in sorted(groupoid._named_ends()):
        by_left[left].append((g, right))
    last = len(units) - 1
    found, chosen, taken, used = [], [], [], set()
    # a plain loop, so no closure holds itself: stack[i] iterates the pairs
    # left on units[i], and chosen[i], taken[i] are the pair taken there
    stack = [iter(by_left[units[0]])]
    while stack:
        level = len(stack) - 1
        for g, r in stack[-1]:
            if r in used:
                continue
            if level < last:
                used.add(r)
                chosen.append(g)
                taken.append(r)
                stack.append(iter(by_left[units[level + 1]]))
                break
            found.append(frozenset([*chosen, g]))
            if limit is not None and len(found) >= limit:
                return found
        else:
            stack.pop()
            if chosen:
                chosen.pop()
                used.remove(taken.pop())
    return found


def all_bisections(groupoid: Groupoid) -> list:
    """Every bisection, in canonical member order."""
    sets = _enum_member_sets(groupoid)
    return [Bisection(groupoid, m) for m in sorted(sets, key=sorted)]


class _Sections:
    """A groupoid's bisections as sections over its right units.

    A section is a tuple of element indices, one per unit, ordered by the
    index of their right units.  Each b in B composes with exactly one
    member of A, the one whose right unit is b's left unit, and the
    product keeps b's right unit, so

        (A.B)[j] = A.(B[j])

    where b -> A.b is the left translation by A, tabulated once per A.
    A product then costs one lookup per unit, where subset_mult tries
    all |A| x |B| member pairs.  Everything is read off the groupoid's
    index rows and unit lists.
    """

    def __init__(self, groupoid: Groupoid):
        self.index = groupoid.elements.index
        self.left, self.right = groupoid._left, groupoid._right
        self.rows = groupoid._rows  # rows[a][b] is the index of a.b

    def of(self, members) -> tuple:
        section = map(self.index.__getitem__, members)
        return tuple(sorted(section, key=self.right.__getitem__))

    def table(self, bs: list):
        """Row by row, A.B for A and B in bs: one iterator per A, in order.

        A slot whose pair does not compose holds None.
        """
        columns = list(zip(*bs))
        ending = [None] * len(self.rows)
        for a in bs:
            # ending[e] is the row of the member of A with right unit e, and
            # translate[b] = A.b, that member times b
            for i in a:
                ending[self.right[i]] = self.rows[i]
            translate = list(
                map(dict.get, map(ending.__getitem__, self.left), range(len(self.left)))
            )
            products = zip(*[map(translate.__getitem__, c) for c in columns])
            # with no units, the one bisection is empty and so is its square
            yield products if columns else repeat((), len(bs))


def bisection_group(groupoid: Groupoid, guard: int = 10000) -> GroupTable:
    """Cayley table of the bisections under subset multiplication.

    The table is made on positions in the sorted member lists, and
    GroupTable._of_group re-indexes it once into sorted label order.
    """
    sets = _enum_member_sets(groupoid, limit=guard)
    if len(sets) >= guard:
        raise BudgetExceeded(
            f"{groupoid.name!r} has {guard} or more bisections"
        )
    ordered = sorted(map(sorted, sets))
    labels = ["{" + "+".join(m) + "}" for m in ordered]
    sections = _Sections(groupoid)
    bs = [sections.of(m) for m in ordered]
    position = {b: k for k, b in enumerate(bs)}.get
    rows = []
    for l1, products in zip(labels, sections.table(bs)):
        row = list(map(position, products))
        if None in row:
            l2 = labels[row.index(None)]
            raise AxiomViolation("derived:bisection-closure", (l1, l2))
        rows.append(row)
    return GroupTable._of_group(f"Bis({groupoid.name})", labels, rows)


def act(bisection: Bisection, g):
    """Left translation of g by the unique fitting member."""
    groupoid = bisection.groupoid
    if g not in groupoid.elements:
        raise UnknownElement(g, groupoid.name)
    i = groupoid._index[g]
    mover = bisection._by_right[groupoid._left[i]]
    return groupoid._names[groupoid._rows[mover][i]]


def ad(bisection: Bisection) -> Morphism:
    """Conjugation by a bisection, as a morphism of the groupoid."""
    groupoid = bisection.groupoid
    rows, inv = groupoid._rows, groupoid._inv
    by_right = bisection._by_right
    # g -> b_l g s(b_r), with b_l and b_r over e_L(g) and e_R(g)
    moved = {
        i: 1 << rows[rows[by_right[left]][i]][inv[by_right[right]]]
        for i, (left, right) in enumerate(zip(groupoid._left, groupoid._right))
    }
    return Morphism._of_rows(groupoid, groupoid, moved)


def image_bisection(h: Morphism, bisection: Bisection) -> Bisection:
    """The image of a bisection under a morphism."""
    if bisection.groupoid != h.source:
        raise PreconditionFailed("bisection lives on a different groupoid")
    at, image = h.source._index, 0
    for g in bisection.members:
        image |= h._rows.get(at[g], 0)
    return Bisection(h.target, map(h.target._names.__getitem__, _bits(image)))


def induced_hom(h: Morphism) -> dict:
    """Tabulated group homomorphism from source to target bisections."""
    source_bs = all_bisections(h.source)
    hom = {b: image_bisection(h, b) for b in source_bs}
    src, tgt = _Sections(h.source), _Sections(h.target)
    bs = [src.of(b.members) for b in source_bs]
    images = [tgt.of(hom[b].members) for b in source_bs]
    position = {b: k for k, b in enumerate(bs)}.get
    rows = zip(source_bs, src.table(bs), tgt.table(images))
    for b1, products, image_products in rows:
        for b2, k, rhs in zip(source_bs, map(position, products), image_products):
            if k is None:
                raise AxiomViolation(
                    "derived:bisection-closure", (b1.label, b2.label)
                )
            if images[k] != rhs:
                raise AxiomViolation("derived:induced-hom", (b1.label, b2.label))
    return hom
