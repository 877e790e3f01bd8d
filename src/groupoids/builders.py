"""Stock groupoid families and small group tables.

A group table holds its product once, as index rows over its sorted
labels.  Labels are read or made only at the boundary (the checked
constructor, mult, unit and inv); subgroup, quotient and isotropy tables
are made on rows.  The groupoid builders cover the structures used
throughout the package: pair groupoids, set groupoids (units only),
groups viewed as one-unit groupoids, bundles of groups, equivalence
relations, the twisted product X x G x X, and transformation groupoids
of a group action.  A raw group table is checked once; all else here is
built unchecked, as groupoid.py says.

The builders compose the paper's pieces: a transitive groupoid is
X x G x X, the pair groupoid on its units times its isotropy group, and
every groupoid is the disjoint union of its transitive components.  The
index arithmetic of each piece is written once, on (units, inv, rows)
triples, the arguments of Groupoid._of_rows.  Two primitives live here:
_pair_parts(n), the pair groupoid on n positions with (x, y) at
x * n + y, and _group_parts(table), a table's one-unit groupoid on its
indices.  Two combinators live in groupoid.py: _product, with (a1, a2)
at a1 * n2 + a2, and _union, which places labelled parts on the
universe of their labels in one pass and takes a part already in place
as it is; a single part, placed, is a union of one.  A builder keeps
only its checks, names and labels.  pair_groupoid and group_groupoid
are one primitive each, on their universes.  group_bundle is the union
of its tables' groups, and equivalence_groupoid the union of the pair
groupoids on its classes.  product_form checks its names first, then
takes the product of the pair rows on X with G's rows, its names listed
in (x, y, g) order; it builds no pair groupoid, whose own name check
would name X and not X|G|X.
groupoid.py's disjoint_union and cartesian_product are the union and the
product of two groupoids' triples.  A transformation groupoid is built
from its action's move rows by groupoid.py's _semidirect, as action.py's
action_groupoid is.  Only the element names are made: the product
triples and the inverse map are named when `table` or `inverse` is read.

A stock table is a group by construction: Z_n adds mod n and S_n
composes permutations.  So _translated_rows computes only the rows of a
greedy generating set directly, 2 of Z_n's and n of S_n's n!, and reads
every other row off them: the product is associative, so the row of sx
is the row of s read along the row of x, one lookup per entry.
bisection_group's table is made the same way; its rows are associative
because the groupoid's product is.

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
    _classes,
    _composes_on_generators,
    _fixes,
    _product,
    _semidirect,
    _union,
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
    # the labels in sorted order, so _of_group re-indexes nothing; the row
    # of a adds a to each element, and row 1 generates every other row
    labels = sorted(map(str, range(n)))
    value = list(map(int, labels))
    at = {v: k for k, v in enumerate(value)}
    row_of = lambda k: [at[(value[k] + v) % n] for v in value]
    return GroupTable._of_group(name or f"Z{n}", labels, _translated_rows(n, row_of))


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
    # index tuples in sorted order, as their labels sort; ab is a after b,
    # and the rows of n of them generate every other row
    perms = list(itertools.permutations(range(n)))
    at = {p: k for k, p in enumerate(perms)}
    labels = ["".join(map("123456789".__getitem__, p)) for p in perms]
    row_of = lambda k: [at[tuple(map(perms[k].__getitem__, b))] for b in perms]
    rows = _translated_rows(len(perms), row_of)
    return GroupTable._of_group(name or f"S{n}", labels, rows)


def _translated_rows(n: int, row_of) -> list:
    """The n rows of a group's Cayley table on positions, rows[x][b] the
    position of xb, with row_of(k) computing row k directly.

    Only the least row not yet known is computed directly, and the
    known rows are closed under it and those before it.  The product is
    associative, so (sx)b = s(xb): the row of sx, at position s[x], is
    the row of s read along the row of x, one lookup per entry.  Every
    other row is such a left translation of a known row, and it is the
    product's: the stock tables are groups by construction, and
    bisection_group's rows, each checked by its row_of, multiply
    subsets of a groupoid, associatively because its product is.
    """
    rows, generators = [None] * n, []
    for k in range(n):
        if rows[k] is not None:
            continue
        rows[k] = row_of(k)
        generators.append(rows[k])
        # close the known rows under every generator s: s.X sits at s[x],
        # and `known` grows while it is read
        known = [x for x, r in enumerate(rows) if r is not None]
        for x in known:
            for s in generators:
                if rows[s[x]] is None:
                    rows[s[x]] = list(map(s.__getitem__, rows[x]))
                    known.append(s[x])
    return rows


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

    Returns (quotient table, projection dict); the cosets are numbered
    by groupoid._classes in index order and named by their sorted-least
    member in brackets.
    """
    _check_members(table, members)
    rows, names, members = table.rows, table.elements, set(members)
    ms, order = {table._index[h] for h in members}, range(len(rows))
    closed = all(rows[a][b] in ms for a in ms for b in ms)
    # the cosets gN, numbered by _classes in index order, which is label
    # order, so each is represented by the member that opens it, its least
    at, _, reps = _classes(order, lambda g: list(map(rows[g].__getitem__, ms)))
    # a subgroup N is normal when gN = Ng for each representative g: then
    # for g' = gn, g'N = gN and Ng' = gNn = gN
    if table.unit not in members or not closed or not _normal(rows, reps, ms):
        raise PreconditionFailed(
            f"{sorted(members)} is not a normal subgroup of {table.name!r}"
        )
    labels = [f"[{names[g]}]" for g in reps]
    proj = dict(zip(names, map(labels.__getitem__, map(at.__getitem__, order))))
    quotient_rows = [[at[rows[a][b]] for b in reps] for a in reps]
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


def _pair_parts(n: int) -> tuple:
    """The pair groupoid on n positions as (units, inv, rows), the pair
    (x, y) at x * n + y: (x, y)(y, z) = (x, z)."""
    units = [x * n + x for x in range(n)]
    inv = [y * n + x for x in range(n) for y in range(n)]
    rows = [
        {y * n + z: x * n + z for z in range(n)} for x in range(n) for y in range(n)
    ]
    return units, inv, rows


def _group_parts(table: GroupTable) -> tuple:
    """A group table's one-unit groupoid as (units, inv, rows), on the
    table's indices."""
    index = table._index
    inv = [index[table.inv[g]] for g in table.elements]
    return [index[table.unit]], inv, [dict(enumerate(row)) for row in table.rows]


def pair_groupoid(space: Universe, name=None) -> Groupoid:
    """All ordered pairs of points; (x,y) composes with (y,z) to (x,z)."""
    label = name or f"Pair({space.name})"
    pairs = product_universe(space, space)
    return Groupoid._of_rows(label, pairs, *_pair_parts(len(space)))


def set_groupoid(space: Universe, name=None) -> Groupoid:
    """Units only; every element is its own inverse and unit."""
    n = len(space)
    rows = [{x: x} for x in range(n)]
    return Groupoid._of_rows(
        name or f"Set({space.name})", space, range(n), list(range(n)), rows
    )


def group_groupoid(table: GroupTable, name=None) -> Groupoid:
    """A group seen as a groupoid with one unit."""
    # the labels are sorted, so the universe indexes them as the table does
    elements = Universe(table.name, table.elements)
    return Groupoid._of_rows(name or table.name, elements, *_group_parts(table))


def group_bundle(tables, name=None) -> Groupoid:
    """Disjoint union of groups; fibre i contributes elements "i:g"."""
    tables = list(tables)
    if not tables:
        raise PreconditionFailed("group bundle needs at least one fibre")
    label = name or "+".join(t.name for t in tables)
    labels = ([f"{i}:{g}" for g in t.elements] for i, t in enumerate(tables))
    return _union(label, label, zip(labels, map(_group_parts, tables)))


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
    # each class is the pair groupoid on its points
    labels = ([pair_name(x, y) for x in b for y in b] for b in blocks)
    parts = zip(labels, map(_pair_parts, map(len, blocks)))
    elements = f"{space.name}*{space.name}"
    return _union(name or f"Equiv({space.name})", elements, parts)


def product_form(space: Universe, table: GroupTable, name=None) -> Groupoid:
    """The groupoid X x G x X; (x|g|y)(y|h|z) = (x|gh|z)."""
    # the pair groupoid on X times G: x|g|y is ((x, y), g), at
    # (x * |X| + y) * |G| + g on point and group indices
    labels = [f"{x}|{g}|{y}" for x in space for y in space for g in table.elements]
    if len(set(labels)) != len(labels):
        raise PreconditionFailed(
            f"ambiguous names in product form over {space.name!r}"
        )
    parts = _product(_pair_parts(len(space)), _group_parts(table))
    label = name or f"{space.name}|{table.name}|{space.name}"
    return _union(label, label, [(labels, parts)])


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
