"""Stock groupoid families and small group tables.

Group tables are plain multiplication tables.  The groupoid builders
cover the structures used throughout the package: pair groupoids, set
groupoids (units only), groups viewed as one-unit groupoids, bundles
of groups, equivalence relations, the twisted product X x G x X, and
transformation groupoids of a group action.  A raw group table is
checked once; all else here is built unchecked, as groupoid.py says.

Element naming is part of each builder's contract:

    pair groupoid            "x,y"        (pair of base points)
    group bundle             "i:g"        (index of the fibre, then g)
    product form             "x|g|y"
    transformation groupoid  "g:x"
"""

from __future__ import annotations

import itertools

from .errors import PreconditionFailed, UnknownElement
from .groupoid import Groupoid
from .relation import Universe, pair_name, product_universe


class GroupTable:
    """A finite group given by its multiplication table.

    The unit is the one idempotent, and inv[g] is the h with gh the unit.
    The constructor checks raw data once, as a one-unit Groupoid, and
    raises its AxiomViolation for a table that is not a group.  Tables
    derived from a group already at hand come from _of_group unchecked.
    """

    def __init__(self, name, elements, mult):
        mult = dict(mult)
        elements = sorted(set(elements))
        square = {}
        for a in elements:
            for b in elements:
                if (a, b) not in mult:
                    raise PreconditionFailed(
                        f"group {name!r}: product of {a!r} and {b!r} missing"
                    )
                square[(a, b)] = mult[(a, b)]
        self._read(name, elements, square)
        triples = [(c, a, b) for (a, b), c in square.items()]
        Groupoid(name, elements, [self.unit], self.inv, triples)

    @classmethod
    def _of_group(cls, name, elements, mult):
        """A table on elements x elements known to be a group, unchecked."""
        table = cls.__new__(cls)
        table._read(name, elements, dict(mult))
        return table

    def _read(self, name, elements, mult):
        self.name = name
        self.elements = tuple(sorted(set(elements)))
        self._mult = mult
        units = [g for g in self.elements if mult[(g, g)] == g]
        if len(units) != 1:
            raise PreconditionFailed(f"group {name!r}: no unique idempotent")
        self.unit = units[0]
        self.inv = {a: b for (a, b), c in mult.items() if c == self.unit}

    def mult(self, a, b):
        return self._mult[(a, b)]

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupTable)
            and self.elements == other.elements
            and all(
                self.mult(a, b) == other.mult(a, b)
                for a in self.elements
                for b in self.elements
            )
        )

    def __hash__(self) -> int:
        return hash((self.elements, tuple(sorted(self._mult.items()))))

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order {len(self)})"


def cyclic_table(n: int, name=None) -> GroupTable:
    if n < 1:
        raise PreconditionFailed("cyclic group order must be positive")
    elems = [str(i) for i in range(n)]
    mult = {(a, b): str((int(a) + int(b)) % n) for a in elems for b in elems}
    return GroupTable._of_group(name or f"Z{n}", elems, mult)


def trivial_table(name=None) -> GroupTable:
    return cyclic_table(1, name or "Z1")


def klein_table(name=None) -> GroupTable:
    elems = ["e", "a", "b", "c"]
    other = {("a", "b"): "c", ("b", "a"): "c", ("a", "c"): "b",
             ("c", "a"): "b", ("b", "c"): "a", ("c", "b"): "a"}
    mult = {}
    for x in elems:
        for y in elems:
            if x == "e":
                mult[(x, y)] = y
            elif y == "e":
                mult[(x, y)] = x
            elif x == y:
                mult[(x, y)] = "e"
            else:
                mult[(x, y)] = other[(x, y)]
    return GroupTable._of_group(name or "V4", elems, mult)


def symmetric_table(n: int, name=None) -> GroupTable:
    """Symmetric group on 1..n in one-line notation ("231" etc.)."""
    if not 1 <= n <= 9:
        raise PreconditionFailed("symmetric group supported for 1 <= n <= 9")
    perms = ["".join(p) for p in itertools.permutations("123456789"[:n])]
    mult = {}
    for a in perms:
        for b in perms:
            mult[(a, b)] = "".join(a[int(b[i]) - 1] for i in range(n))
    return GroupTable._of_group(name or f"S{n}", perms, mult)


def _check_members(table: GroupTable, members):
    unknown = sorted(set(members) - set(table.elements))
    if unknown:
        raise UnknownElement(unknown[0], f"group {table.name!r}")


def subgroup_table(table: GroupTable, members, name=None) -> GroupTable:
    _check_members(table, members)
    member_set = set(members)
    ms = sorted(member_set)
    mult = {}
    for a in ms:
        for b in ms:
            c = table.mult(a, b)
            if c not in member_set:
                raise PreconditionFailed(
                    f"{ms} is not closed in group {table.name!r}"
                )
            mult[(a, b)] = c
    return GroupTable._of_group(name or f"{table.name}<{'+'.join(ms)}>", ms, mult)


def subgroups_of(table: GroupTable) -> tuple:
    """All subgroups, as sorted tuples of elements.

    From the trivial subgroup on, each one found is grown by one more
    element and closed under the product; every subgroup ends such a
    chain.
    """
    trivial = frozenset([table.unit])
    found, todo = {trivial}, [trivial]
    while todo:
        sub = todo.pop()
        for g in set(table.elements) - sub:
            grown, more = None, sub | {g}
            while more != grown:
                grown = more
                more = grown | {table.mult(a, b) for a in grown for b in grown}
            if grown not in found:
                found.add(grown)
                todo.append(grown)
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t)))


def is_normal(table: GroupTable, members) -> bool:
    ms = set(members)
    return all(
        table.mult(table.mult(g, h), table.inv[g]) in ms
        for g in table.elements
        for h in ms
    )


def quotient_group_table(table: GroupTable, members, name=None):
    """Quotient by a normal subgroup.

    Returns (quotient table, projection dict); cosets are named by
    their sorted-least member in brackets.
    """
    _check_members(table, members)
    ms = set(members)
    closed = all(table.mult(a, b) in ms for a in ms for b in ms)
    if table.unit not in ms or not closed or not is_normal(table, ms):
        raise PreconditionFailed(
            f"{sorted(ms)} is not a normal subgroup of {table.name!r}"
        )
    proj = {}
    for g in table.elements:
        coset = {table.mult(g, h) for h in ms}
        proj[g] = f"[{min(coset)}]"
    mult = {
        (proj[a], proj[b]): proj[table.mult(a, b)]
        for a in table.elements
        for b in table.elements
    }
    quotient = GroupTable._of_group(
        name or f"{table.name}/{'+'.join(sorted(ms))}", set(proj.values()), mult
    )
    return quotient, proj


def group_table_of(groupoid: Groupoid, members, name=None) -> GroupTable:
    """Extract the group sitting on a single unit of a groupoid."""
    member_set = set(members)
    ms = sorted(member_set)
    units = {groupoid.e_left(g) for g in ms} | {groupoid.e_right(g) for g in ms}
    if len(units) != 1:
        raise PreconditionFailed(
            f"members span several units of {groupoid.name!r}: {sorted(units)}"
        )
    mult = {}
    for a in ms:
        for b in ms:
            c = groupoid.mult(a, b)
            if c is None or c not in member_set:
                raise PreconditionFailed(
                    f"members are not a subgroup of {groupoid.name!r}"
                )
            mult[(a, b)] = c
    return GroupTable._of_group(name or f"{groupoid.name}-group", ms, mult)


def check_group_action(table: GroupTable, space: Universe, act: dict) -> dict:
    """Validate a left group action given as a dict (g, x) -> y."""
    act = dict(act)
    group = set(table.elements)
    for g, x in act:
        if g not in group:
            raise UnknownElement(g, f"group {table.name!r}")
        if x not in space:
            raise UnknownElement(x, f"action on {space.name!r}")
    for g in table.elements:
        for x in space:
            y = act.get((g, x))
            if y is None:
                raise PreconditionFailed(f"action undefined at ({g!r}, {x!r})")
            if y not in space:
                raise UnknownElement(y, f"action on {space.name!r}")
    for x in space:
        if act[(table.unit, x)] != x:
            raise PreconditionFailed(f"identity moves {x!r}")
    for g in table.elements:
        for h in table.elements:
            for x in space:
                if act[(g, act[(h, x)])] != act[(table.mult(g, h), x)]:
                    raise PreconditionFailed(
                        f"action not compatible at ({g!r}, {h!r}, {x!r})"
                    )
    return act


def pair_groupoid(space: Universe, name=None) -> Groupoid:
    """All ordered pairs of points; (x,y) composes with (y,z) to (x,z)."""
    elements = product_universe(space, space)
    units = [pair_name(x, x) for x in space]
    inverse = {
        pair_name(x, y): pair_name(y, x) for x in space for y in space
    }
    table = [
        (pair_name(x, z), pair_name(x, y), pair_name(y, z))
        for x in space
        for y in space
        for z in space
    ]
    label = name or f"Pair({space.name})"
    return Groupoid._trusted(label, elements, units, inverse, table)


def set_groupoid(space: Universe, name=None) -> Groupoid:
    """Units only; every element is its own inverse and unit."""
    return Groupoid._trusted(
        name or f"Set({space.name})",
        space,
        space.elements,
        {x: x for x in space},
        [(x, x, x) for x in space],
    )


def group_groupoid(table: GroupTable, name=None) -> Groupoid:
    """A group seen as a groupoid with one unit."""
    return Groupoid._trusted(
        name or table.name,
        Universe(table.name, table.elements),
        [table.unit],
        dict(table.inv),
        [(table.mult(a, b), a, b) for a in table.elements for b in table.elements],
    )


def group_bundle(tables, name=None) -> Groupoid:
    """Disjoint union of groups; fibre i contributes elements "i:g"."""
    tables = list(tables)
    if not tables:
        raise PreconditionFailed("group bundle needs at least one fibre")
    elems = []
    units = []
    inverse = {}
    triples = []
    for i, t in enumerate(tables):
        tag = lambda g, i=i: f"{i}:{g}"
        elems.extend(tag(g) for g in t.elements)
        units.append(tag(t.unit))
        inverse.update({tag(g): tag(h) for g, h in t.inv.items()})
        triples.extend(
            (tag(t.mult(a, b)), tag(a), tag(b))
            for a in t.elements
            for b in t.elements
        )
    if len(set(elems)) != len(elems):
        raise PreconditionFailed("fibre tags collide")
    label = name or "+".join(t.name for t in tables)
    return Groupoid._trusted(label, Universe(label, elems), units, inverse, triples)


def equivalence_groupoid(space: Universe, blocks, name=None) -> Groupoid:
    """The groupoid of an equivalence relation given by its classes."""
    blocks = [tuple(sorted(b)) for b in blocks]
    seen: set = set()
    for b in blocks:
        if not b:
            raise PreconditionFailed("equivalence classes must be nonempty")
        for x in b:
            if x not in space:
                raise UnknownElement(x, f"universe {space.name!r}")
            if x in seen:
                raise PreconditionFailed(f"{x!r} appears in two classes")
            seen.add(x)
    if seen != set(space.elements):
        missing = min(set(space.elements) - seen)
        raise PreconditionFailed(f"{missing!r} belongs to no class")
    elems = []
    triples = []
    for b in blocks:
        elems.extend(pair_name(x, y) for x in b for y in b)
        triples.extend(
            (pair_name(x, z), pair_name(x, y), pair_name(y, z))
            for x in b
            for y in b
            for z in b
        )
    elements = Universe(f"{space.name}*{space.name}", elems)
    units = [pair_name(x, x) for x in space]
    inverse = {}
    for b in blocks:
        inverse.update(
            {pair_name(x, y): pair_name(y, x) for x in b for y in b}
        )
    return Groupoid._trusted(
        name or f"Equiv({space.name})", elements, units, inverse, triples
    )


def product_form(space: Universe, table: GroupTable, name=None) -> Groupoid:
    """The groupoid X x G x X; (x|g|y)(y|h|z) = (x|gh|z)."""
    elems = [
        f"{x}|{g}|{y}" for x in space for g in table.elements for y in space
    ]
    if len(set(elems)) != len(elems):
        raise PreconditionFailed(
            f"ambiguous names in product form over {space.name!r}"
        )
    units = [f"{x}|{table.unit}|{x}" for x in space]
    inverse = {
        f"{x}|{g}|{y}": f"{y}|{table.inv[g]}|{x}"
        for x in space
        for g in table.elements
        for y in space
    }
    triples = [
        (f"{x}|{table.mult(g, h)}|{z}", f"{x}|{g}|{y}", f"{y}|{h}|{z}")
        for x in space
        for y in space
        for z in space
        for g in table.elements
        for h in table.elements
    ]
    label = name or f"{space.name}|{table.name}|{space.name}"
    return Groupoid._trusted(label, Universe(label, elems), units, inverse, triples)


def transformation_groupoid(table: GroupTable, space: Universe, act, name=None) -> Groupoid:
    """The groupoid G x X of a group action; "g:x" runs from x to gx."""
    act = check_group_action(table, space, act)
    elems = [f"{g}:{x}" for g in table.elements for x in space]
    if len(set(elems)) != len(elems):
        raise PreconditionFailed(
            f"ambiguous names in transformation groupoid over {space.name!r}"
        )
    units = [f"{table.unit}:{x}" for x in space]
    inverse = {
        f"{g}:{x}": f"{table.inv[g]}:{act[(g, x)]}"
        for g in table.elements
        for x in space
    }
    triples = []
    for g in table.elements:
        for h in table.elements:
            for x in space:
                triples.append(
                    (f"{table.mult(g, h)}:{x}", f"{g}:{act[(h, x)]}", f"{h}:{x}")
                )
    label = name or f"{table.name}:{space.name}"
    return Groupoid._trusted(label, Universe(label, elems), units, inverse, triples)
