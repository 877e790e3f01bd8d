"""Bisections: subsets meeting every left and right unit fiber once.

They form a group under subset multiplication, act on the groupoid by
left translation, and conjugate it through the Ad construction.  For
pair groupoids they are exactly the graphs of bijections of the base,
and for groups they are the singletons.

Every bisection the layer computes with is held in one form, its
section: the tuple of its members' indices, one per unit, the member
over each right unit in `_fibers` order (the units in name order).
_enum_member_sets makes them, _sections puts them in all_bisections
order, and induced_hom reads a Bisection's off its `_by_right`.
_is_section decides on indices whether names form one, and is the one
place that refuses a name that is not an element, the least first.

Subset multiplication is associative because the groupoid's product is,
so the Cayley table follows from the rows of a generating set: the row
of s.X is the row of s read along the row of X.  _products makes A.B
for every section B with one lookup per unit, and keeps B's unit order.
bisection_group refuses a groupoid with `guard` or more bisections from
their count (_bisection_count, read off the orbits) before it makes any
section, then computes only its generators' rows from the groupoid,
through builders.py's _translated_rows, and checks each of those to
hold bisections only; induced_hom computes and checks every row, since
it compares each product with its image.

Ad(b) sends g to b_l g s(b_r), with b_l and b_r the members of b whose
right units are the left and right units of g: a functor inverted by
Ad(s(b)), so mono.  One kernel, _ad_rows, makes its mask rows straight
from the groupoid's rows, for ad and for _twists, which gives every
Ad(b) but the identity to morphism.find_non_epi_witness.  It is not
re-checked; tests/test_derived.py checks ad over the Tier-1 grid
against an independent oracle, and holds the twists to the hunt on
Bisection and ad objects.
"""

from __future__ import annotations

import math

from .errors import (
    AxiomViolation,
    BudgetExceeded,
    PreconditionFailed,
    UnknownElement,
)
from .builders import GroupTable, _translated_rows
from .groupoid import Groupoid, _in_order
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
    """Whether the names `members` hold one element over each unit on
    both sides: as many members as units, with distinct left units and
    distinct right units.  A name that is not an element is refused, the
    least such name first."""
    index = groupoid._index
    try:
        at = [index[g] for g in members]
    except KeyError:
        stray = _in_order(g for g in members if g not in index)[0]
        raise UnknownElement(stray, groupoid.name) from None
    left, right = groupoid._left, groupoid._right
    lefts, rights = {left[i] for i in at}, {right[i] for i in at}
    return len(at) == len(groupoid._fibers) == len(lefts) == len(rights)


def is_bisection(groupoid: Groupoid, subset) -> bool:
    """Fiber-section test, cross-checked against s(A)A = As(A) = E."""
    members = frozenset(subset)
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


def _section(bisection: Bisection) -> tuple:
    """The bisection's section: its member over each unit, in `_fibers`
    order."""
    return tuple(map(bisection._by_right.__getitem__, bisection.groupoid._fibers))


def _enum_member_sets(groupoid: Groupoid) -> list:
    """Every bisection, depth first, as its section: one member from each
    right fiber, in `_fibers` order, with no left unit taken twice."""
    fibers = list(groupoid._fibers.values())
    if not fibers:
        return [()]
    left = groupoid._left
    last = len(fibers) - 1
    found, chosen, used = [], [], set()
    # a plain loop, so no closure holds itself: stack[i] iterates the
    # members left in fibers[i], and chosen[i] is the one taken there
    stack = [iter(fibers[0])]
    while stack:
        level = len(stack) - 1
        for g in stack[-1]:
            if left[g] in used:
                continue
            if level < last:
                used.add(left[g])
                chosen.append(g)
                stack.append(iter(fibers[level + 1]))
                break
            found.append((*chosen, g))
        else:
            stack.pop()
            if chosen:
                used.remove(left[chosen.pop()])
    return found


def _sections(groupoid: Groupoid) -> list:
    """Every bisection's section, in canonical member order: by its
    sorted member names."""
    names = groupoid._names.__getitem__
    return sorted(_enum_member_sets(groupoid), key=lambda s: sorted(map(names, s)))


def all_bisections(groupoid: Groupoid) -> list:
    """Every bisection, in canonical member order."""
    names = groupoid._names.__getitem__
    return [Bisection(groupoid, map(names, s)) for s in _sections(groupoid)]


def _bisection_count(groupoid: Groupoid) -> int:
    """The number of bisections, from the orbit shapes alone: an orbit O
    with isotropy group G_O has |G_O|^|O| |O|! sections over it."""
    count, fibers, index = 1, groupoid._fibers, groupoid._index
    for orbit in groupoid.orbits():
        k = len(orbit)
        count *= (len(fibers[index[orbit[0]]]) // k) ** k * math.factorial(k)
    return count


def _ad_rows(groupoid: Groupoid, over) -> dict:
    """Ad(b) as mask rows, over[e] the member of b with right unit e: g
    goes to b_l g s(b_r), with b_l and b_r over e_L(g) and e_R(g)."""
    rows, inv = groupoid._rows, groupoid._inv
    ends = zip(range(len(rows)), groupoid._left, groupoid._right)
    return {g: 1 << rows[rows[over[l]][g]][inv[over[r]]] for g, l, r in ends}


def _twists(groupoid: Groupoid):
    """Ad(b) for each bisection b, in all_bisections order, as its mask
    rows, but the twists that are the identity.  No Bisection or Morphism
    is made, and rows name no groupoid."""
    units = list(groupoid._fibers)
    same = {g: 1 << g for g in range(len(groupoid._rows))}
    for section in _sections(groupoid):
        twist = _ad_rows(groupoid, dict(zip(units, section)))
        if twist != same:
            yield twist


def _products(groupoid: Groupoid, a, columns):
    """A.B for each section B, as sections, where columns[j] holds the
    j-th entries of every B.  A slot whose pair does not compose holds
    None.

    Each b in B composes with exactly one member of A, the one whose
    right unit is b's left unit, and the product keeps b's right unit, so
    (A.B)[j] = A.(B[j]), with b -> A.b the left translation by A,
    tabulated once.  A product costs one lookup per unit, where
    subset_mult tries all |A| x |B| member pairs, and keeps B's unit
    order.  It is only as sound as the groupoid's rows: its callers check
    that every product is a bisection.
    """
    if not columns:  # no units: the one bisection is empty, as is its square
        return [()]
    rows, left, right = groupoid._rows, groupoid._left, groupoid._right
    # ending[e] is the row of the member of A with right unit e, and
    # translate[b] = A.b, that member times b
    ending = [None] * len(rows)
    for i in a:
        ending[right[i]] = rows[i]
    translate = list(map(dict.get, map(ending.__getitem__, left), range(len(left))))
    return zip(*[map(translate.__getitem__, c) for c in columns])


def bisection_group(groupoid: Groupoid, guard: int = 10000) -> GroupTable:
    """Cayley table of the bisections under subset multiplication.

    The guard is read from the bisection count, before any section is
    made.  The table is made on positions in all_bisections order, by
    the sorted member lists, and GroupTable._of_group re-indexes it once
    into sorted label order.  builders.py's _translated_rows computes
    only the rows of a greedy generating set as products of sections,
    each checked here to hold bisections only
    (`derived:bisection-closure`), and every other row as a left
    translation of a checked row, which holds only positions of checked
    rows.
    """
    if _bisection_count(groupoid) >= guard:
        raise BudgetExceeded(f"{groupoid.name!r} has {guard} or more bisections")
    names = groupoid._names.__getitem__
    bs = _sections(groupoid)
    labels = ["{" + "+".join(sorted(map(names, s))) + "}" for s in bs]
    columns = list(zip(*bs))
    position = {b: k for k, b in enumerate(bs)}.get

    def row_of(k):
        row = list(map(position, _products(groupoid, bs[k], columns)))
        if None in row:
            l2 = labels[row.index(None)]
            raise AxiomViolation("derived:bisection-closure", (labels[k], l2))
        return row

    rows = _translated_rows(len(bs), row_of)
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
    moved = _ad_rows(groupoid, bisection._by_right)
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
    bs = [_section(b) for b in source_bs]
    images = [_section(hom[b]) for b in source_bs]
    position = {b: k for k, b in enumerate(bs)}.get
    columns, image_columns = list(zip(*bs)), list(zip(*images))
    for b1, a, image in zip(source_bs, bs, images):
        products = map(position, _products(h.source, a, columns))
        image_products = _products(h.target, image, image_columns)
        for b2, k, rhs in zip(source_bs, products, image_products):
            if k is None:
                raise AxiomViolation(
                    "derived:bisection-closure", (b1.label, b2.label)
                )
            if images[k] != rhs:
                raise AxiomViolation("derived:induced-hom", (b1.label, b2.label))
    return hom
