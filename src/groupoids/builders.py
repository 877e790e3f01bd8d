"""Stock groupoid families and small group tables.

A group table holds its product once, as index rows over its sorted
labels.  Labels are read or made only at the boundary (the checked
constructor, mult, unit and inv); subgroup, quotient and isotropy tables
are made on rows.  The groupoid builders cover the structures used
throughout the package: pair groupoids, set groupoids (units only),
groups viewed as one-unit groupoids, bundles of groups, equivalence
relations, the twisted product X x G x X, and transformation groupoids
of a group action.  A raw group table is checked once; all else here is
built unchecked, as groupoid.py says.  Each groupoid builder computes its
index rows by arithmetic on positions, such as x * |X| + y for the pair
(x, y), and hands them to Groupoid._of_rows, through _placed when its
positions are not the universe's index order; a transformation groupoid
is built from its action's move rows by groupoid.py's _semidirect, as
action.py's action_groupoid is.  Only the element names
are made: the product triples and the inverse map are named when
`table` or `inverse` is read.

Element naming is part of each builder's contract:

    pair groupoid            "x,y"        (pair of base points)
    group bundle             "i:g"        (index of the fibre, then g)
    product form             "x|g|y"
    transformation groupoid  "g:x"
"""

from __future__ import annotations

import itertools

from .errors import PreconditionFailed, UnknownElement
from .groupoid import (
    Groupoid,
    _composes_on_generators,
    _fixes,
    _placed,
    _semidirect,
)
from .relation import Universe, pair_name, product_universe


class GroupTable:
    """A finite group given by its multiplication table.

    The table is held once, on indices: `elements` are the sorted labels
    and rows[i][j] is the index of elements[i] elements[j].  The unit is
    the one idempotent on the diagonal, and inv[g] is the h with gh the
    unit, the place of the unit in g's row.  Labels are read or made only
    at the boundary: the checked constructor, `mult`, `unit` and `inv`.
    The constructor checks raw label data once, as a one-unit Groupoid,
    and raises its AxiomViolation for a table that is not a group.
    Tables derived from a group already at hand come from _of_group
    unchecked.
    """

    def __init__(self, name, elements, mult):
        mult = dict(mult)
        labels = sorted(set(elements))
        for a in labels:
            for b in labels:
                if (a, b) not in mult:
                    raise PreconditionFailed(
                        f"group {name!r}: product of {a!r} and {b!r} missing"
                    )
        # a product outside the labels is None here; the check refuses it
        index = {g: i for i, g in enumerate(labels)}
        self._read(
            name, labels, [[index.get(mult[(a, b)]) for b in labels] for a in labels]
        )
        triples = [(mult[(a, b)], a, b) for a in labels for b in labels]
        Groupoid(name, labels, [self.unit], self.inv, triples)

    @classmethod
    def _of_group(cls, name, labels, rows):
        """A group known to be one, unchecked: rows[i][j] is the position
        in `labels` of labels[i] labels[j]."""
        if labels != sorted(labels):  # re-index once, by label
            order = sorted(range(len(labels)), key=labels.__getitem__)
            at = [0] * len(order)
            for new, old in enumerate(order):
                at[old] = new
            rows = [
                list(map(at.__getitem__, map(rows[i].__getitem__, order)))
                for i in order
            ]
            labels = [labels[i] for i in order]
        table = cls.__new__(cls)
        table._read(name, labels, rows)
        return table

    def _read(self, name, labels, rows):
        self.name = name
        self.elements = tuple(labels)
        self.rows = rows
        self._index = dict(zip(labels, range(len(labels))))
        units = [i for i, row in enumerate(rows) if row[i] == i]
        if len(units) != 1:
            raise PreconditionFailed(f"group {name!r}: no unique idempotent")
        unit = units[0]
        self.unit = labels[unit]
        # a raw row without the unit has no inverse; the check refuses it
        self.inv = {
            g: labels[row.index(unit)] for g, row in zip(labels, rows) if unit in row
        }

    def mult(self, a, b):
        return self.elements[self.rows[self._index[a]][self._index[b]]]

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupTable)
            and self.elements == other.elements
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.elements, tuple(map(tuple, self.rows))))

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order {len(self)})"


def cyclic_table(n: int, name=None) -> GroupTable:
    if n < 1:
        raise PreconditionFailed("cyclic group order must be positive")
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    return GroupTable._of_group(name or f"Z{n}", [str(i) for i in range(n)], rows)


def trivial_table(name=None) -> GroupTable:
    return cyclic_table(1, name or "Z1")


def klein_table(name=None) -> GroupTable:
    # e, a, b, c at 0, 1, 2, 3: the product is XOR, as on Z2 x Z2
    rows = [[a ^ b for b in range(4)] for a in range(4)]
    return GroupTable._of_group(name or "V4", ["e", "a", "b", "c"], rows)


def symmetric_table(n: int, name=None) -> GroupTable:
    """Symmetric group on 1..n in one-line notation ("231" etc.)."""
    if not 1 <= n <= 9:
        raise PreconditionFailed("symmetric group supported for 1 <= n <= 9")
    perms = ["".join(p) for p in itertools.permutations("123456789"[:n])]
    index = {p: i for i, p in enumerate(perms)}
    rows = [
        [index["".join(a[int(b[i]) - 1] for i in range(n))] for b in perms]
        for a in perms
    ]
    return GroupTable._of_group(name or f"S{n}", perms, rows)


def _check_members(table: GroupTable, members):
    unknown = sorted(set(members) - set(table.elements))
    if unknown:
        raise UnknownElement(unknown[0], f"group {table.name!r}")


def subgroup_table(table: GroupTable, members, name=None) -> GroupTable:
    _check_members(table, members)
    ms = sorted(set(members))
    # rows on the members' positions in ms; a product outside them is None
    at = {table._index[g]: k for k, g in enumerate(ms)}
    rows = [list(map(at.get, map(table.rows[i].__getitem__, at))) for i in at]
    if None in itertools.chain.from_iterable(rows):
        raise PreconditionFailed(f"{ms} is not closed in group {table.name!r}")
    return GroupTable._of_group(name or f"{table.name}<{'+'.join(ms)}>", ms, rows)


def subgroups_of(table: GroupTable) -> tuple:
    """All subgroups, as sorted tuples of elements.

    From the trivial subgroup on, each one found is grown by one more
    element and closed under the product; every subgroup ends such a
    chain.
    """
    rows = table.rows
    trivial = frozenset([table._index[table.unit]])
    found, todo = {trivial}, [trivial]
    while todo:
        sub = todo.pop()
        for g in set(range(len(rows))) - sub:
            grown, more = None, sub | {g}
            while more != grown:
                grown = more
                more = grown | {rows[a][b] for a in grown for b in grown}
            if grown not in found:
                found.add(grown)
                todo.append(grown)
    names = table.elements  # sorted, so index order is label order
    subs = (tuple(map(names.__getitem__, sorted(s))) for s in found)
    return tuple(sorted(subs, key=lambda t: (len(t), t)))


def is_normal(table: GroupTable, members) -> bool:
    """g N s(g) lies in N for every g: for a finite N, gN = Ng."""
    return _normal(table.rows, range(len(table)), {table._index[h] for h in members})


def _normal(rows, group, sub) -> bool:
    """gN = Ng for every g in `group`, N = `sub`, rows[g][h] that of gh."""
    return all({rows[g][h] for h in sub} == {rows[h][g] for h in sub} for g in group)


def quotient_group_table(table: GroupTable, members, name=None):
    """Quotient by a normal subgroup.

    Returns (quotient table, projection dict); cosets are named by
    their sorted-least member in brackets.
    """
    _check_members(table, members)
    rows, names, members = table.rows, table.elements, set(members)
    ms = {table._index[h] for h in members}
    closed = all(rows[a][b] in ms for a in ms for b in ms)
    if table.unit not in members or not closed or not is_normal(table, members):
        raise PreconditionFailed(
            f"{sorted(members)} is not a normal subgroup of {table.name!r}"
        )
    # in index order, which is label order, the first member met of each
    # coset gN is its least
    coset_of, reps = [None] * len(rows), []
    for g, row in enumerate(rows):
        if coset_of[g] is None:
            for h in ms:
                coset_of[row[h]] = len(reps)
            reps.append(g)
    labels = [f"[{names[g]}]" for g in reps]
    proj = {g: labels[k] for g, k in zip(names, coset_of)}
    quotient_rows = [[coset_of[rows[a][b]] for b in reps] for a in reps]
    quotient = GroupTable._of_group(
        name or f"{table.name}/{'+'.join(sorted(members))}", labels, quotient_rows
    )
    return quotient, proj


def group_table_of(groupoid: Groupoid, members, name=None) -> GroupTable:
    """Extract the group sitting on a single unit of a groupoid."""
    ms = sorted(set(members))
    units = {groupoid.e_left(g) for g in ms} | {groupoid.e_right(g) for g in ms}
    if len(units) != 1:
        raise PreconditionFailed(
            f"members span several units of {groupoid.name!r}: {sorted(units)}"
        )
    # as in subgroup_table; an undefined product is None too
    at = {groupoid._index[g]: k for k, g in enumerate(ms)}
    rows = [list(map(at.get, map(groupoid._rows[i].get, at))) for i in at]
    if None in itertools.chain.from_iterable(rows):
        raise PreconditionFailed(f"members are not a subgroup of {groupoid.name!r}")
    return GroupTable._of_group(name or f"{groupoid.name}-group", ms, rows)


def check_group_action(table: GroupTable, space: Universe, act: dict) -> dict:
    """Validate a left group action given as a dict (g, x) -> y."""
    act = dict(act)
    _group_moves(group_groupoid(table), space, act)
    return act


def _group_moves(group: Groupoid, space: Universe, act) -> list:
    """The move rows of an action of a group, given as the groupoid of
    its table and as (g, x) -> y, checked: moves[g][x] is the index of
    gx, on the group's and space's indices.

    The identity and composition laws are decided on the rows as
    groupoid.py decides an action's; only a refused law is scanned for
    the first point, or (g, h, x), where it fails.
    """
    act = dict(act)
    for g, x in act:
        if g not in group.elements:
            raise UnknownElement(g, f"group {group.name!r}")
        if x not in space:
            raise UnknownElement(x, f"action on {space.name!r}")
    points, moves = [(x, space.index[x]) for x in space], []
    for g in group._names:
        moves.append({})
        for x, i in points:
            y = act.get((g, x))
            if y is None:
                raise PreconditionFailed(f"action undefined at ({g!r}, {x!r})")
            if y not in space:
                raise UnknownElement(y, f"action on {space.name!r}")
            moves[-1][i] = space.index[y]
    unit = moves[group._index[group.units[0]]]
    if not _fixes([unit], len(space)):
        x = next(x for x, i in points if unit[i] != i)
        raise PreconditionFailed(f"identity moves {x!r}")
    if not _composes_on_generators(moves, group):
        names, rows = group._names, group._rows
        g, h, x = next(
            (g, h, x)
            for g, h in itertools.product(range(len(names)), repeat=2)
            for x, i in points
            if moves[g][moves[h][i]] != moves[rows[g][h]][i]
        )
        raise PreconditionFailed(
            f"action not compatible at ({names[g]!r}, {names[h]!r}, {x!r})"
        )
    return moves


def pair_groupoid(space: Universe, name=None) -> Groupoid:
    """All ordered pairs of points; (x,y) composes with (y,z) to (x,z)."""
    # the pair (x, y) of point indices has index x * n + y
    n = len(space)
    rows = [
        {y * n + z: x * n + z for z in range(n)} for x in range(n) for y in range(n)
    ]
    inv = [y * n + x for x in range(n) for y in range(n)]
    units = [x * n + x for x in range(n)]
    label = name or f"Pair({space.name})"
    return Groupoid._of_rows(label, product_universe(space, space), units, inv, rows)


def set_groupoid(space: Universe, name=None) -> Groupoid:
    """Units only; every element is its own inverse and unit."""
    n = len(space)
    rows = [{x: x} for x in range(n)]
    return Groupoid._of_rows(
        name or f"Set({space.name})", space, range(n), list(range(n)), rows
    )


def _inverses(table: GroupTable) -> list:
    """inv[g] is the index of the inverse of g, on the table's indices."""
    return [table._index[table.inv[g]] for g in table.elements]


def group_groupoid(table: GroupTable, name=None) -> Groupoid:
    """A group seen as a groupoid with one unit."""
    # the labels are sorted, so the universe indexes them as the table does
    rows = [dict(enumerate(row)) for row in table.rows]
    return Groupoid._of_rows(
        name or table.name,
        Universe(table.name, table.elements),
        [table._index[table.unit]],
        _inverses(table),
        rows,
    )


def group_bundle(tables, name=None) -> Groupoid:
    """Disjoint union of groups; fibre i contributes elements "i:g"."""
    tables = list(tables)
    if not tables:
        raise PreconditionFailed("group bundle needs at least one fibre")
    # fibre i takes the positions from its offset on, in table order
    labels, units, inv, rows = [], [], [], []
    for i, t in enumerate(tables):
        offset = len(labels)
        labels.extend(f"{i}:{g}" for g in t.elements)
        units.append(offset + t._index[t.unit])
        inv.extend(offset + j for j in _inverses(t))
        rows.extend(
            {offset + b: offset + c for b, c in enumerate(row)} for row in t.rows
        )
    label = name or "+".join(t.name for t in tables)
    return _placed(label, label, labels, units, inv, rows)


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
    # a class of k points takes k * k positions from its offset on, the
    # pair of its x-th and y-th points at offset + x * k + y
    labels, units, inv, rows = [], [], [], []
    for b in blocks:
        offset, k = len(labels), len(b)
        labels.extend(pair_name(x, y) for x in b for y in b)
        units.extend(offset + x * k + x for x in range(k))
        inv.extend(offset + y * k + x for x in range(k) for y in range(k))
        rows.extend(
            {offset + y * k + z: offset + x * k + z for z in range(k)}
            for x in range(k)
            for y in range(k)
        )
    elements = f"{space.name}*{space.name}"
    return _placed(name or f"Equiv({space.name})", elements, labels, units, inv, rows)


def product_form(space: Universe, table: GroupTable, name=None) -> Groupoid:
    """The groupoid X x G x X; (x|g|y)(y|h|z) = (x|gh|z)."""
    elems = [
        f"{x}|{g}|{y}" for x in space for g in table.elements for y in space
    ]
    if len(set(elems)) != len(elems):
        raise PreconditionFailed(
            f"ambiguous names in product form over {space.name!r}"
        )
    # x|g|y is at position (x * |G| + g) * |X| + y, on point and group indices
    n, ng = len(space), len(table)
    at = lambda x, g, y: (x * ng + g) * n + y
    group_inv = _inverses(table)
    units = [at(x, table._index[table.unit], x) for x in range(n)]
    positions = [(x, g, y) for x in range(n) for g in range(ng) for y in range(n)]
    inv = [at(y, group_inv[g], x) for x, g, y in positions]
    rows = [
        {
            at(y, h, z): at(x, gh, z)
            for h, gh in enumerate(table.rows[g])
            for z in range(n)
        }
        for x, g, y in positions
    ]
    label = name or f"{space.name}|{table.name}|{space.name}"
    return _placed(label, label, elems, units, inv, rows)


def transformation_groupoid(table: GroupTable, space: Universe, act, name=None) -> Groupoid:
    """The groupoid G x X of a group action; "g:x" runs from x to gx."""
    group = group_groupoid(table)
    moves = _group_moves(group, space, act)
    elems = [f"{g}:{x}" for g in table.elements for x in space.names]
    if len(set(elems)) != len(elems):
        raise PreconditionFailed(
            f"ambiguous names in transformation groupoid over {space.name!r}"
        )
    # g:x runs from x to gx, and (g:hx)(h:x) = gh:x
    label = name or f"{table.name}:{space.name}"
    return _semidirect(label, label, group, space, moves, lambda g, x: f"{g}:{x}")
