"""Finite groupoids presented by relational data.

A groupoid is a quadruple (elements, units, inverse, table).  The table
is the graph of the multiplication relation m : G x G -> G, given and
read as (product, left, right) triples, output first.  Groupoid(...)
checks that every name is an element, then the relational axioms

    m(m x id) = m(id x m)
    m(e x id) = m(id x e) = id
    s s = id
    s m = m flip (s x s)
    for every g:  m(s(g), g) is nonempty and lands in the units.

These are the only checks, run in this order.  The first that fails
raises AxiomViolation with a stable law name and an offender: for a
relation equality, the sorted-least (output, input) pair on which the
two sides differ, computed on first access; for the last law, the
least g that breaks it.  Single-valued multiplication, composability
exactly on matching units and the unit and inverse laws are theorems
of the axioms, so the constructor reads the partial operation off the
table without re-proving them; the tests check them against an
independent oracle.

The product is held once, on indices: `_rows`, with `_rows[x][y]` the
index of xy, and the index lists `_inv`, `_left` and `_right` of s, e_L
and e_R.  Rows go in: the builders hand them to Groupoid._of_rows, the
one unchecked set-up.  The checked constructor indexes named triples
in one pass, and m is single-valued exactly when the rows hold as many
products as there are triples; only then is no relation of them kept.
Names come out on first read: `table` and `inverse` are views of
`_rows` and `_inv`, for every groupoid, as every accepted m is
single-valued.  Names appear only at the boundary: the data read in,
those views, and mult, inv, e_left, e_right and composable, which
translate.

For a single-valued m every law is decided on index rows, without
building a relation; a multi-valued m, which no row can hold, is
decided on relations.  Either way the offender comes from the law's
relations, built on first access.  The two-sided laws never build a
relation on G x G x G.  Write x ~= y (Kleene equality) for "both are
undefined, or both are defined and equal".

m(m x id) = m(id x m).  G acts on itself by left multiplication, and
with phi = m, X = G, this law is the composition law
phi(m x id) = phi(id x phi) of an action phi : G x X -> X, so one
function, _check_composition, decides both; its move rows
moves[g][x], the index of phi(g, x), are `_rows` here.  phi is
single-valued exactly when it has as many pairs as inputs.  Then the
law says phi(gh, x) ~= phi(g, phi(h, x)) for all g, h and x.  Let H
be the set of h for which this holds at every g and x.  For h1 and h2
in H with h1h2 defined, and any g and x,

    phi(g(h1h2), x) ~= phi((gh1)h2, x)
                    ~= phi(gh1, phi(h2, x))          h2, at gh1 and x
                    ~= phi(g, phi(h1, phi(h2, x)))   h1, at g and phi(h2, x)
                    ~= phi(g, phi(h1h2, x))          h2, at h1 and x

where an undefined operand makes both sides undefined.  The first
step needs g(h1h2) ~= (gh1)h2.  For G acting on itself that is the
hypothesis for h1 at g and x := h2, so the argument does not assume
the associativity it decides; on any other set, G is a checked
groupoid.  So h1h2 is in H: H is closed under defined products, and
it is enough that H holds a generating set of G; for phi = m this is
Light's associativity test (Clifford and Preston, The Algebraic Theory
of Semigroups I, 1961, section 1.2).  The set is greedy: the least
element not yet generated, then the closure under defined products,
until every element is generated.  For each generator h and each g,
phi(g, -) after phi(h, -), a partial map on X, must equal phi(gh, -),
or be empty where gh is undefined: a comparison of two lists read off
the move rows, or a disjointness test.  A multi-valued phi is decided
by relation.py's two_sided_difference(phi, m): for each output w in
name order, one pass over the phi-preimages (g, x) of w gives both
preimages of w as sets of triple indices, the (g1, g2, x) with g1g2 = g
and the (g, h, y) with phi(h, y) = x.  The first w where they differ
has the least output name, and the least input name of their symmetric
difference completes the sorted-least pair, the offender in both cases.

s m = m flip (s x s).  It is checked after s s = id, so s is a total
involution, and the law says s(xy) ~= s(y)s(x) at every pair (x, y):
for a single-valued m, one pass over the rows, with no s x s, no flip
and neither side built.  A multi-valued m compares the two sides, built
as mask rows moved from m's, which also give the offender.

The unit laws m(e x id) = id and m(id x e) = id are one-sided; the
first is phi(e x id) = id for G acting on itself, which
_check_composition decides.  For a single-valued phi or m they say
that every entry of the rows phi(e, -), or of the columns m(-, e), over
the units e is a fixed point and that those entries cover X; a
multi-valued one compares the sides, built.  s s = id reads `_inv`.

Boundary policy, for groupoids, morphisms and actions alike: the
checking constructors Groupoid(...), Morphism(...) and Action(...) run
only where data enters the package: documents, raw group tables,
validate_groupoid, the classical data of classical_to_relational,
functor_to_morphism and functor_to_zm, the output of
right_commuting_to_morphism, and user calls.  What the package builds
from structures it holds is valid by the paper's theorems, and so is
what the enumerators decide: the naive enumerator's survivors, the
structured enumerator's morphisms and the direct enumerator's actions.
All of it comes from the unchecked entries on rows, Groupoid._of_rows,
Morphism._of_rows and Action._of_rows, which skip the axioms (the
first and last still refuse ambiguous pair names).
Grids in the tests of the builders and of every unchecked build prove
those builds.
Derived constructions (kernels, quotients, cosets, factorizations,
decompositions, Ad) are theorems of checked inputs, not re-checked bar
the checks tests name (witnesses, bisection cross-checks); each module
docstring gives the argument, and tests/test_derived.py checks each over
the Tier-1 grid against an independent oracle.  decompose_transitive's
phi sends x|g|y to an arrow from y to x, phi(x|g|y) phi(y|h|z) =
s(p(x)) g p(y)s(p(y)) h p(z) = phi(x|gh|z), and gamma -> l|p(l) gamma
s(p(r))|r (l, r its units) inverts it.

Equality of groupoids is structural and ignores the display name; it
is decided on index rows.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from functools import cached_property

from .errors import AxiomViolation, PreconditionFailed, UnknownElement
from .relation import (
    FinRel,
    ONE,
    Universe,
    _bits,
    _moved_rows,
    compose,
    first_difference as _first_difference,
    identity,
    product,
    product_universe,
    triples_rel,
    two_sided_difference,
    unitor_left,
    unitor_right,
)


class Groupoid:
    def __init__(self, name, elements, units, inverse, table):
        if not isinstance(elements, Universe):
            elements = Universe(str(name), elements)
        self.name = name
        self.elements = elements
        self.units = tuple(sorted(set(units)))
        self._unit_set = frozenset(self.units)
        # the data is read once, onto indices; only a multi-valued m,
        # which rows cannot hold, is kept as the relation of its triples
        inverse, triples = dict(inverse), set(table)
        self._check_structure(inverse, triples)
        self._inv = [elements.index[inverse[g]] for g in elements.names]
        self._rows, single = _index_pass(elements, elements, triples)
        if not single:
            self.m_rel = triples_rel(elements, elements, elements, triples)
        self._check_relational_axioms(single)
        units = list(map(elements.index.__getitem__, self.units))
        self._setup(name, elements, units, self._inv, self._rows)

    @classmethod
    def _of_rows(cls, name, elements: Universe, units, inv, rows):
        """A groupoid built on index rows, unchecked: units, inv and rows
        are on the indices of `elements`, inv[x] the index of s(x) and
        rows[x][y] that of xy."""
        groupoid = cls.__new__(cls)
        groupoid._setup(name, elements, units, inv, rows)
        return groupoid

    def _setup(self, name, elements, units, inv, rows):
        self.name = name
        self.elements = elements
        self._index, self._names = elements.index, elements.names
        self.units = tuple(sorted(map(self._names.__getitem__, units)))
        self._unit_set = frozenset(self.units)
        self._inv, self._rows = inv, rows
        product_universe(elements, elements)  # raises on ambiguous pair names
        # the axioms make m single-valued, with g s(g) = e_L(g) and
        # s(g) g = e_R(g)
        self._left = [row[j] for row, j in zip(rows, inv)]
        self._right = [rows[j][i] for i, j in enumerate(inv)]

    @cached_property
    def table(self) -> tuple:
        """The (xy, x, y) triples of the product by name, sorted."""
        return _named_triples(self.elements, self.elements, self._rows)

    @cached_property
    def inverse(self) -> dict:
        names = self._names
        return dict(zip(names, map(names.__getitem__, self._inv)))

    # -- validation -------------------------------------------------

    def _check_structure(self, inverse, triples):
        names = self.elements.index.keys()
        with suppress(TypeError):  # an unhashable name is left to the loops
            rows = (self.units, *inverse.items(), *triples)
            if names <= inverse.keys() and names >= {x for r in rows for x in r}:
                return
        table = sorted(triples)  # the first stray entry in table order
        for e in self.units:
            if e not in self.elements:
                raise UnknownElement(e, f"units of {self.name!r}")
        for g in self.elements:
            if g not in inverse:
                raise AxiomViolation("inverse-total", g)
        for g, h in inverse.items():
            if g not in self.elements:
                raise UnknownElement(g, f"inverse map of {self.name!r}")
            if h not in self.elements:
                raise UnknownElement(h, f"inverse map of {self.name!r}")
        for c, a, b in table:
            for x in (c, a, b):
                if x not in self.elements:
                    raise UnknownElement(x, f"table of {self.name!r}")

    # The three relations are read by index: every name in the table, the
    # inverse map and the units is an element, checked or by construction.
    # m is read off `_rows`, but for a multi-valued m given to the checked
    # constructor, which keeps the relation of the triples it was given.

    @cached_property
    def m_rel(self) -> FinRel:
        return _moves_rel(self.elements, self.elements, self._rows)

    @cached_property
    def s_rel(self) -> FinRel:
        u = self.elements
        return FinRel._of_rows(u, u, {x: 1 << y for x, y in enumerate(self._inv)})

    @cached_property
    def e_rel(self) -> FinRel:
        units = self._unit_mask
        return FinRel._of_rows(ONE, self.elements, {0: units} if units else {})

    @cached_property
    def _unit_mask(self) -> int:
        return sum(1 << self.elements.index[e] for e in self.units)

    @cached_property
    def _cols(self) -> list:
        """cols[y][x] is the index of xy: `_rows` read by column."""
        cols = [{} for _ in self._rows]
        for x, row in enumerate(self._rows):
            for y, xy in row.items():
                cols[y][x] = xy
        return cols

    @cached_property
    def _factor_counts(self) -> list:
        """counts[z] is the number of pairs (x, y) with xy = z, read off
        `_rows`; Morphism's check of hm=m'(hxh) reads it."""
        counts = [0] * len(self._rows)
        for row in self._rows:
            for z in row.values():
                counts[z] += 1
        return counts

    def _check_relational_axioms(self, single):
        """The laws after the structure check, in order.  On a
        single-valued m each is decided on index rows; a multi-valued m
        is decided on the relations of each law, which also give every
        offender, on first access."""
        u, rows, inv = self.elements, self._rows, self._inv
        n, m = len(rows), lambda: self.m_rel
        e, idu = lambda: self.e_rel, lambda: identity(u)
        units = list(map(u.index.__getitem__, self.units))
        laws = ("m(mxid)=m(idxm)", "m(exid)=id")
        _check_composition(laws, m, self, u, rows if single else None)

        # (law, its test on rows or None, its two sides as relations)
        for law, on_rows, sides in (
            (
                "m(idxe)=id",
                single and (lambda: _fixes(map(self._cols.__getitem__, units), n)),
                lambda: (compose(m(), product(idu(), e())), unitor_right(u)),
            ),
            (
                "s2=id",  # s is a map, so its rows decide it whatever m is
                lambda: list(map(inv.__getitem__, inv)) == list(range(n)),
                lambda: (compose(self.s_rel, self.s_rel), idu()),
            ),
            (
                "sm=m.flip(sxs)",
                single and (lambda: _reverses(rows, self._cols, inv)),
                lambda: _flip_sides(m(), inv),
            ),
        ):
            if not (on_rows() if on_rows else operator.eq(*sides())):
                raise AxiomViolation(law, lambda: _first_difference(*sides()))

        # the mask of the products s(g)g
        if single:
            outs = lambda i: 1 << rows[inv[i]][i] if i in rows[inv[i]] else 0
        else:
            outs = lambda i: self.m_rel._rows.get(inv[i] * n + i, 0)
        for g in u:
            products = outs(u.index[g])
            if not products:
                raise AxiomViolation("m(s(g),g)-in-units", g, "product undefined")
            stray = products & ~self._unit_mask
            if stray:
                least = min(map(u.name_of, _bits(stray)))
                raise AxiomViolation(
                    "m(s(g),g)-in-units", g, f"{least!r} is not a unit"
                )

    # -- basic queries ----------------------------------------------

    def mult(self, a, b):
        """Product of a and b, or None when not composable."""
        i = self._index.get(a)
        ab = None if i is None else self._rows[i].get(self._index.get(b))
        return None if ab is None else self._names[ab]

    def _index_of(self, g) -> int:
        i = self._index.get(g)
        if i is None:
            raise UnknownElement(g, self.name)
        return i

    def inv(self, g):
        return self._names[self._inv[self._index_of(g)]]

    def e_left(self, g):
        return self._names[self._left[self._index_of(g)]]

    def e_right(self, g):
        return self._names[self._right[self._index_of(g)]]

    def _named_ends(self):
        """(g, e_L(g), e_R(g)) by name, for every element g."""
        at = self._names.__getitem__
        return zip(self._names, map(at, self._left), map(at, self._right))

    def composable(self) -> tuple:
        """All composable pairs, sorted."""
        names = self._names
        pairs = ((names[a], names[b]) for a, row in enumerate(self._rows) for b in row)
        return tuple(sorted(pairs))

    def orbits(self) -> tuple:
        """Partition of the units into orbits."""
        neighbours: dict = {e: set() for e in self.units}
        for _, left, right in self._named_ends():
            neighbours[left].add(right)
            neighbours[right].add(left)
        remaining = set(self.units)
        blocks = []
        while remaining:
            start = min(remaining)
            block, frontier = {start}, [start]
            while frontier:
                e = frontier.pop()
                for f in neighbours[e]:
                    if f not in block:
                        block.add(f)
                        frontier.append(f)
            remaining -= block
            blocks.append(tuple(sorted(block)))
        return tuple(sorted(blocks))

    def isotropy(self, e) -> "SubgroupoidRef":
        """The group of elements with both units equal to e."""
        if e not in self._unit_set:
            raise UnknownElement(e, f"units of {self.name!r}")
        members = {g for g, left, right in self._named_ends() if left == e == right}
        return SubgroupoidRef(self, members)

    def isotropy_bundle(self) -> "SubgroupoidRef":
        members = {g for g, left, right in self._named_ends() if left == right}
        return SubgroupoidRef(self, members)

    def transitive_components(self) -> tuple:
        out = []
        for block in self.orbits():
            blockset = set(block)
            members = {g for g, _, right in self._named_ends() if right in blockset}
            out.append(SubgroupoidRef(self, members))
        return tuple(out)

    def units_universe(self) -> Universe:
        return Universe(f"{self.elements.name}.units", self.units)

    # -- constructions ----------------------------------------------

    def restrict(self, unit_subset) -> "Groupoid":
        """Full subgroupoid over a subset of the units."""
        fs = set(unit_subset)
        stray = sorted(fs - self._unit_set)
        if stray:
            raise PreconditionFailed(
                f"restrict: {stray[0]!r} is not a unit of {self.name!r}"
            )
        members = {
            g for g, left, right in self._named_ends() if left in fs and right in fs
        }
        name = self.name
        if fs != self._unit_set:
            name = f"{self.name}|{'+'.join(sorted(fs))}"
        return SubgroupoidRef(self, members).as_groupoid(name)

    def same_structure(self, other: "Groupoid") -> bool:
        """Equality of element names, units, inverse, and table.

        Ignores display and universe names, so groupoids read back from
        documents compare equal to freshly built ones.  Decided on index
        rows, moved onto the other's indices.
        """
        at = list(map(other._index.get, self._names))
        if len(at) != len(other._names) or None in at:
            return False
        if self._unit_set != other._unit_set:
            return False
        inv, rows = _moved(at, self._inv, self._rows)
        return inv == other._inv and rows == other._rows

    def is_subgroupoid(self, members) -> bool:
        try:
            SubgroupoidRef(self, members)
        except (PreconditionFailed, UnknownElement):
            return False
        return True

    def is_wide(self, members) -> bool:
        return self.is_subgroupoid(members) and self._unit_set <= set(members)

    def orbit_relation(self) -> "Groupoid":
        """The orbit equivalence relation as a groupoid over the units."""
        from .builders import equivalence_groupoid

        return equivalence_groupoid(self.units_universe(), self.orbits())

    def decompose_transitive(self, base_unit=None):
        """Present a transitive groupoid as units x isotropy x units.

        Returns (units universe, isotropy group table, phi) where phi
        maps each product-form element name "x|g|y" to s(p(x)) g p(y)
        for the sorted-least section p of e_right with p(base) = base.
        """
        from .builders import group_table_of

        if len(self.orbits()) != 1:
            raise PreconditionFailed(f"{self.name!r} is not transitive")
        e0 = min(self.units) if base_unit is None else base_unit
        if e0 not in self._unit_set:
            raise UnknownElement(e0, f"units of {self.name!r}")
        p = {e0: e0}
        for y in self.units:
            if y != e0:
                p[y] = min(
                    g
                    for g, left, right in self._named_ends()
                    if left == e0 and right == y
                )
        g0 = group_table_of(self, self.isotropy(e0).members, f"{self.name}@{e0}")
        base = self.units_universe()
        phi = {
            f"{x}|{g}|{y}": self.mult(self.mult(self.inverse[p[x]], g), p[y])
            for x in self.units
            for g in g0.elements
            for y in self.units
        }
        return base, g0, phi

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Groupoid)
            and self.elements == other.elements
            and self.same_structure(other)
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.units, sum(map(len, self._rows))))

    def __repr__(self) -> str:
        return (
            f"Groupoid({self.name!r}, {len(self.elements)} elements, "
            f"{len(self.units)} units)"
        )


def _index_pass(acting: Universe, on: Universe, triples: set):
    """(rows, single) of a set of named triples (z, a, x), a in `acting`
    and x, z in `on`: rows[a][x] is the index of z, and single is True
    when the rows hold every triple, as a single-valued relation's do."""
    a_index, x_index = acting.index, on.index
    rows = [{} for _ in a_index]
    for z, a, x in triples:
        rows[a_index[a]][x_index[x]] = x_index[z]
    return rows, sum(map(len, rows)) == len(triples)


def _moves_rel(acting: Universe, on: Universe, moves) -> FinRel:
    """phi : A x X -> X, A `acting` and X `on`, as the relation of its
    move rows, moves[a][x] the index of phi(a, x): m for a groupoid's
    `_rows`, an action's relation for its `_moves`."""
    n = len(on)
    rows = {a * n + x: 1 << y for a, row in enumerate(moves) for x, y in row.items()}
    return FinRel._of_rows(product_universe(acting, on), on, rows)


def _named_triples(acting: Universe, on: Universe, moves) -> tuple:
    """The (phi(a, x), a, x) triples of move rows by name, sorted: a
    groupoid's table, an action's triples."""
    names, points = acting.names, on.names
    moved = ((a, x, y) for a, row in enumerate(moves) for x, y in row.items())
    return tuple(sorted([(points[y], names[a], points[x]) for a, x, y in moved]))


def _moved(at, inv, rows):
    """inv and rows moved onto other indices, index k to at[k]."""
    if at == list(range(len(at))):
        return inv, rows
    moved_inv, moved_rows = [None] * len(at), [None] * len(at)
    for k, j, row in zip(at, inv, rows):
        moved_inv[k] = at[j]
        moved_rows[k] = {at[b]: at[c] for b, c in row.items()}
    return moved_inv, moved_rows


def _fixes(lines, n) -> bool:
    """Every entry of the dicts `lines` is a fixed point, and their keys
    cover range(n): for the move rows phi(e, -) of the units e of a
    single-valued phi, phi(e x id) = id, and for the columns m(-, e) of
    a single-valued m, m(id x e) = id."""
    covered = set()
    for line in lines:
        if list(line) != list(line.values()):
            return False
        covered.update(line)
    return len(covered) == n


def _reverses(rows, cols, inv) -> bool:
    """s(xy) ~= s(y)s(x) at every pair (x, y) of single-valued rows,
    with cols[y][x] = xy.

    s is a total involution, so (x, y) -> (s(y), s(x)) is a bijection of
    pairs, and an undefined pair whose flip is defined is caught at the
    flip: the defined pairs are enough."""
    at = inv.__getitem__
    return all(
        list(map(cols[inv[x]].get, map(at, row))) == list(map(at, row.values()))
        for x, row in enumerate(rows)
    )


def _flip_sides(m: FinRel, inv):
    """The two sides of sm=m.flip(sxs), on the rows of m: s m moves each
    output c to s(c), and m flip (s x s) each input (a, b) to (s(b), s(a))."""
    n = len(inv)
    flipped = [inv[ab % n] * n + inv[ab // n] for ab in range(n * n)]
    return (
        FinRel._of_rows(m.source, m.target, _moved_rows(m._rows, None, inv)),
        FinRel._of_rows(m.source, m.target, _moved_rows(m._rows, flipped)),
    )


def _check_composition(laws, phi, groupoid: Groupoid, carrier: Universe, moves):
    """Raise AxiomViolation, under its name in `laws`, at the first of
    phi(m x id) = phi(id x phi) and phi(e x id) = id that fails, where
    phi : G x X -> X, X is `carrier` and G is `groupoid`.

    phi() is the relation.  A single-valued phi is decided on its move
    rows `moves`, moves[g][x] the index of phi(g, x), by the generator
    test of the module docstring and _fixes; a multi-valued one, for
    which moves is None, on relations.  The offender is computed on
    first access.
    """
    composition, unit = laws
    offender = lambda: two_sided_difference(phi(), groupoid.m_rel)
    if moves is None:  # multi-valued: decided by the scan
        offender = offender()
    elif _composes_on_generators(moves, groupoid):
        offender = None
    if offender is not None:
        raise AxiomViolation(composition, offender)
    e_x_id = lambda: product(groupoid.e_rel, identity(carrier))
    sides = lambda: (compose(phi(), e_x_id()), unitor_left(carrier))
    if moves is None:
        holds = operator.eq(*sides())
    else:
        units = map(groupoid.elements.index.__getitem__, groupoid.units)
        holds = _fixes(map(moves.__getitem__, units), len(carrier))
    if not holds:
        raise AxiomViolation(unit, lambda: _first_difference(*sides()))


def _after(f: dict, g: dict) -> dict:
    """The partial map f after g."""
    return {x: f[y] for x, y in g.items() if y in f}


def _composes_on_generators(moves, groupoid: Groupoid) -> bool:
    """phi(gh, x) ~= phi(g, phi(h, x)) for the generators h of G, on
    the move rows of phi: where gh is defined, phi(g, -) after phi(h, -)
    agrees with phi(gh, -) on the x that h moves, and phi(gh, -) moves no
    other x; where it is not, phi(g, -) moves none of h's outputs."""
    cols = groupoid._cols  # cols[h][g] is gh
    for h in _generators(groupoid._rows, cols):
        move_h, col = moves[h], cols[h]
        outs = list(move_h.values())
        for g, move in enumerate(moves):
            gh = col.get(g)
            if gh is None:
                if not move.keys().isdisjoint(outs):
                    return False
            else:
                row = moves[gh]
                if not (
                    row.keys() <= move_h.keys()
                    and list(map(move.get, outs)) == list(map(row.get, move_h))
                ):
                    return False
    return True


def _generators(rows, cols):
    """Greedy generators: the least element not yet generated, each
    yielded before the generated set is closed under defined products."""
    generated = [False] * len(rows)
    for g in range(len(rows)):
        if generated[g]:
            continue
        yield g
        generated[g] = True
        frontier = [g]
        while frontier:
            a = frontier.pop()
            for b, c in [*rows[a].items(), *cols[a].items()]:
                if generated[b] and not generated[c]:
                    generated[c] = True
                    frontier.append(c)


def validate_groupoid(name, elements, units, inverse, table) -> Groupoid:
    """Build a groupoid, raising AxiomViolation on the first bad law."""
    return Groupoid(name, elements, units, inverse, table)


class SubgroupoidRef(object):
    """A subset of a groupoid closed under inverse and multiplication."""

    def __init__(self, parent: Groupoid, members):
        ms = frozenset(members)
        ordered = sorted(ms)
        for g in ordered:
            if g not in parent.elements:
                raise UnknownElement(g, f"elements of {parent.name!r}")
            if parent.inverse[g] not in ms:
                raise PreconditionFailed(
                    f"not closed under inverse at {g!r} in {parent.name!r}"
                )
        index, names = parent._index, parent._names
        inside = {index[g] for g in ordered}
        allowed = inside | {None}  # None where the pair does not compose
        for a in ordered:
            row = parent._rows[index[a]]
            if not allowed.issuperset(map(row.get, inside)):
                b = min(names[b] for b in inside if row.get(b) not in allowed)
                raise PreconditionFailed(
                    f"not closed under multiplication at ({a!r}, {b!r})"
                )
        self.parent = parent
        self.members = ms

    @property
    def units(self) -> tuple:
        return tuple(e for e in self.parent.units if e in self.members)

    @property
    def is_wide(self) -> bool:
        return set(self.parent.units) <= self.members

    def as_groupoid(self, name=None) -> Groupoid:
        parent = self.parent
        if name is None:
            name = f"{parent.name}[{'+'.join(sorted(self.members))}]"
        elements = Universe(parent.elements.name, self.members)
        # at[i] is the index in `elements` of the parent's element i; the
        # members are closed under products and inverses
        at = {parent._index[g]: k for k, g in enumerate(elements.names)}
        rows = [
            {at[b]: at[c] for b, c in parent._rows[i].items() if b in at} for i in at
        ]
        inv = [at[parent._inv[i]] for i in at]
        units = [at[parent._index[e]] for e in self.units]
        return Groupoid._of_rows(name, elements, units, inv, rows)

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupoidRef)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.parent, self.members))

    def __repr__(self):
        return f"SubgroupoidRef({self.parent.name!r}, {len(self.members)} members)"


def _placed(name, universe_name, labels, units, inv, rows) -> Groupoid:
    """The groupoid on Universe(universe_name, labels), given on
    positions: units, inv and rows as for Groupoid._of_rows, position k
    standing for labels[k], moved once onto the universe's indices."""
    elements = Universe(universe_name, labels)
    at = list(map(elements.index.__getitem__, labels))
    inv, rows = _moved(at, inv, rows)
    return Groupoid._of_rows(name, elements, [at[e] for e in units], inv, rows)


def _semidirect(name, elements_name, groupoid, carrier: Universe, moves, label):
    """G x| X for an action of G on X, `carrier`, with move rows `moves`:
    the (g, x) with phi(g, x) defined, named label(g, x), from x to
    phi(g, x), with (g1, phi(g2, x))(g2, x) = (g1 g2, x)."""
    # positions run over the moves g by g; at[g][x] is that of (g, x)
    at, labels, names = [], [], carrier.names
    for g, row in zip(groupoid._names, moves):
        at.append(dict(zip(row, range(len(labels), len(labels) + len(row)))))
        labels.extend(label(g, names[x]) for x in row)
    units = [k for e in groupoid.units for k in at[groupoid._index[e]].values()]
    inv = [at[groupoid._inv[g]][y] for g, row in enumerate(moves) for y in row.values()]
    rows, cols = [{} for _ in labels], groupoid._cols  # cols[b][a] is ab
    for g2, row in enumerate(moves):
        for x, y in row.items():
            k = at[g2][x]
            for g1, g1g2 in cols[g2].items():
                rows[at[g1][y]][k] = at[g1g2][x]
    return _placed(name, elements_name, labels, units, inv, rows)


def disjoint_union(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Disjoint union; elements are tagged "L:x" and "R:y"."""
    # g2's element of index i is at position |g1| + i
    n = len(g1._rows)
    labels = [f"L:{g}" for g in g1._names] + [f"R:{g}" for g in g2._names]
    units = [g1._index[e] for e in g1.units]
    units += [n + g2._index[e] for e in g2.units]
    inv = g1._inv + [n + j for j in g2._inv]
    rows = [dict(row) for row in g1._rows]
    rows += [{n + b: n + c for b, c in row.items()} for row in g2._rows]
    elements = f"{g1.elements.name}+{g2.elements.name}"
    return _placed(f"{g1.name}+{g2.name}", elements, labels, units, inv, rows)


def cartesian_product(g1: Groupoid, g2: Groupoid) -> Groupoid:
    """Product groupoid: (a1,a2)(b1,b2) = (a1 b1, a2 b2) where both
    products are defined."""
    # the pair (a1, a2) has index a1 * |g2| + a2
    n = len(g2._rows)
    rows = [
        {
            b1 * n + b2: c1 * n + c2
            for b1, c1 in row1.items()
            for b2, c2 in row2.items()
        }
        for row1 in g1._rows
        for row2 in g2._rows
    ]
    inv = [i1 * n + i2 for i1 in g1._inv for i2 in g2._inv]
    units = [g1._index[e1] * n + g2._index[e2] for e1 in g1.units for e2 in g2.units]
    pu = product_universe(g1.elements, g2.elements)
    return Groupoid._of_rows(f"{g1.name}x{g2.name}", pu, units, inv, rows)
