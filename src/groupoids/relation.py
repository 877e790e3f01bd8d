"""Finite universes and relations between them, on integer indices.

A relation r : X -> Y is a set of (output, input) pairs inside Y x X.
Composition, transposition and cartesian products follow the usual
set-theoretic formulas; values are immutable and compare by content.

Indices.  A Universe keeps its element names sorted, and the name at
position i of `elements` has index i.  A product of universes is a
ProductUniverse over the flattened list of its plain factors, indexed
in mixed radix: (x1, ..., xk) has index (...(i1 * n2 + i2) * n3 + ...)
* nk + ik.  So (A x B) x C and A x (B x C) are one index space, and
the pair (x, y) of A x B has index x * |B| + y whatever A and B are.
A FinRel holds its mask rows, the one index form of a relation in the
package: `_rows` maps each input index to the nonzero int mask of its
output indices, bit j for output index j.  compose, product,
transpose, identity, flip, the unitors, domain, image and is_mapping
work on those integers alone and never look at a name; morphisms hold
these rows as their relation, and _bits and _moved_rows, which read
and move them, live here, as do _composed_rows and _equal_rows, the
row kernels of compose and of equality, with which morphisms compose
and compare, and _rank_key, the rows' pairs in sorted(graph) order,
which hashes relations and morphisms and sorts enumerator results.

Names.  Pair universes name their elements by joining the component
names with a comma.  A product builds its names, its sorted `elements`
and its name -> index dict only when one of them is asked for.  Names
are made at the boundary: the public FinRel constructor reads
(output, input) name pairs into rows and checks them against its
universes; `pairs` and `graph` are made from the rows on first read;
and first_difference names only the pairs of the rows that differ.
Two universes that are equal by name but index differently (a plain
universe and a product with the same name and elements) still give
equal relations: equality, compose and first_difference move rows
through _index_map, the one index map, which other modules import.

Collisions.  Component names may themselves contain commas (nested
pairs do), so product_universe(a, b) refuses the product whenever two
distinct pairs (x, y) would join to the same name.  When every name of
a, or every name of b, has the same number of commas, a joined name
splits in exactly one place and no collision is possible; only
otherwise are the |a| * |b| joined names built and compared.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, reduce
from typing import Iterable

from .errors import UniverseError, UniverseMismatch, UnknownElement

PAIR_SEP = ","


class Universe:
    """A named finite set of element identifiers, kept sorted.

    `names` lists the elements in index order; for a plain universe it
    is `elements` itself.  `index` maps each name to its index.
    """

    def __init__(self, name: str, elements: Iterable[str]):
        elems = tuple(sorted(elements))
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            dup = next(x for x, y in zip(elems, elems[1:]) if x == y)
            raise UniverseError(f"duplicate element {dup!r} in universe {name!r}")
        self.name = name
        self.elements = elems
        self.names = elems
        self.index = index

    @property
    def factors(self) -> tuple:
        """The plain universes whose product this is."""
        return (self,)

    @cached_property
    def _uniform(self) -> bool:
        """True when every name has the same number of commas."""
        return len({x.count(PAIR_SEP) for x in self.elements}) <= 1

    @cached_property
    def _ranks(self) -> list:
        """The rank of each index: its name's place in sorted order.  On a
    product this builds its names, once."""
        rank = {name: r for r, name in enumerate(self.elements)}
        return list(map(rank.__getitem__, self.names))

    def name_of(self, i: int) -> str:
        return self.names[i]

    def __contains__(self, x) -> bool:
        return x in self.index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Universe)
            and self.name == other.name
            and len(self) == len(other)
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.name, len(self)))

    def __repr__(self) -> str:
        return f"Universe({self.name!r}, {len(self)} elements)"


class ProductUniverse(Universe):
    """The product of plain universes, indexed in mixed radix.

    Names, sorted elements and the name -> index dict are built on
    first use.
    """

    factors: tuple = ()  # set per instance; shadows Universe.factors

    def __init__(self, a: Universe, b: Universe):
        self.factors = a.factors + b.factors
        self.name = f"{a.name}*{b.name}"
        self._size = len(a) * len(b)
        self._uniform = a._uniform and b._uniform

    @cached_property
    def names(self) -> list:
        names = self.factors[0].names
        for f in self.factors[1:]:
            names = [x + PAIR_SEP + y for x in names for y in f.names]
        return names

    @cached_property
    def elements(self) -> tuple:
        return tuple(sorted(self.names))

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.names)}

    def name_of(self, i: int) -> str:
        if "names" in self.__dict__:
            return self.names[i]
        parts = []
        for f in reversed(self.factors):
            i, j = divmod(i, len(f))
            parts.append(f.names[j])
        return PAIR_SEP.join(reversed(parts))

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if isinstance(other, ProductUniverse) and self.factors == other.factors:
            return True
        return Universe.__eq__(self, other)

    __hash__ = Universe.__hash__


def _index_map(u: Universe, v: Universe):
    """None when u and v are one index space (the same factors), else
    the list taking each index of u to the index of the same name in v,
    which must hold every name of u."""
    if u is v or u.factors == v.factors:
        return None
    return list(map(v.index.__getitem__, u.names))


def _namer(universe: Universe, lookups: int):
    """Index -> name for `lookups` lookups: through the full name list
    when that costs no more than decoding each index."""
    if "names" in universe.__dict__ or len(universe) <= lookups:
        return universe.names.__getitem__
    return universe.name_of


ONE = Universe("1", ("1",))


def pair_name(x: str, y: str) -> str:
    return x + PAIR_SEP + y


def product_universe(a: Universe, b: Universe) -> Universe:
    """Universe of pairs; joined names must stay collision free."""
    prod = ProductUniverse(a, b)
    if not (a._uniform or b._uniform):
        names = [x + PAIR_SEP + y for x in a.names for y in b.names]
        if len(set(names)) != len(names):
            raise UniverseError(
                f"ambiguous pair names in product of {a.name!r} and {b.name!r}"
            )
        prod.names = names
    return prod


class FinRel:
    """Relation between two finite universes, held as its mask rows.

    `_rows` maps each input index to the nonzero int mask of its output
    indices: bit j of _rows[i] set means the input with index i is
    related to the output with index j.  `pairs`, the (output, input)
    index pairs, and `graph`, the same pairs as sorted (output name,
    input name) tuples, are made from the rows on first read.
    """

    def __init__(self, source: Universe, target: Universe, graph):
        graph = tuple(graph)
        src, tgt, rows = source.index, target.index, {}
        try:
            for y, x in graph:
                i = src[x]
                rows[i] = rows.get(i, 0) | 1 << tgt[y]
        except KeyError:
            for y, x in sorted(graph):
                if x not in source:
                    raise UnknownElement(
                        x, f"source universe {source.name!r}"
                    ) from None
                if y not in target:
                    raise UnknownElement(
                        y, f"target universe {target.name!r}"
                    ) from None
        self.source, self.target, self._rows = source, target, rows

    @classmethod
    def _of_rows(cls, source: Universe, target: Universe, rows: dict):
        """The relation with mask rows `rows`, which must be nonzero and
        in range; nothing is checked."""
        rel = cls.__new__(cls)
        rel.source, rel.target, rel._rows = source, target, rows
        return rel

    @cached_property
    def pairs(self) -> frozenset:
        return frozenset([(y, x) for x, mx in self._rows.items() for y in _bits(mx)])

    @cached_property
    def graph(self) -> tuple:
        pairs = self.pairs
        out = _namer(self.target, len(pairs))
        inp = _namer(self.source, len(pairs))
        return tuple(sorted([(out(y), inp(x)) for y, x in pairs]))

    def outputs(self, x: str):
        """All elements related to the input x."""
        if x not in self.source:
            raise UnknownElement(x, f"source universe {self.source.name!r}")
        mask = self._rows.get(self.source.index[x], 0)
        return tuple(sorted(map(self.target.name_of, _bits(mask))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinRel):
            return False
        u, v = (self.source, self.target), (other.source, other.target)
        return _equal_rows(self._rows, u, other._rows, v)

    def __hash__(self) -> int:
        key = _rank_key(self._rows, self.source, self.target)
        return hash((self.source, self.target, tuple(key)))

    def __repr__(self) -> str:
        size = sum(mx.bit_count() for mx in self._rows.values())
        return (
            f"FinRel({self.source.name!r} -> {self.target.name!r}, "
            f"{size} pairs)"
        )


def _bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _moved_rows(rows: dict, at_in=None, at_out=None) -> dict:
    """Mask rows with input x moved to at_in[x] and output bit d to
    at_out[d]; None keeps that side's indices."""
    if at_out is not None:
        rows = {x: sum(1 << at_out[d] for d in _bits(mx)) for x, mx in rows.items()}
    return rows if at_in is None else {at_in[x]: mx for x, mx in rows.items()}


def _equal_rows(rows: dict, u: tuple, other: dict, v: tuple) -> bool:
    """Whether mask rows `rows` on the (source, target) universes u equal
    `other` on v: the universes are equal by name, and `rows` moved
    onto v's indices are `other`."""
    return u == v and _moved_rows(rows, *map(_index_map, u, v)) == other


def _composed_rows(s_rows: dict, r_rows: dict, at) -> dict:
    """The mask rows of s after r: x goes to the OR of s's masks over
    the output bits of r(x), with s's inputs first moved by `at` onto
    r's output indices (None when they are one index space)."""
    s_rows, rows = _moved_rows(s_rows, at), {}
    for x, mx in r_rows.items():
        out = 0
        while mx:
            low = mx & -mx
            out |= s_rows.get(low.bit_length() - 1, 0)
            mx ^= low
        if out:
            rows[x] = out
    return rows


def _rank_key(rows: dict, source: Universe, target: Universe) -> list:
    """The sorted pairs (target rank, source rank) of mask rows, each as
    the int t * |source| + s, which orders as the pair does: ranks order
    as the names do, so the key is sorted(graph)'s order and the same
    for every index order of equal universes."""
    t_rank, s_rank, ns = target._ranks, source._ranks, len(source)
    return sorted([t_rank[d] * ns + s_rank[x] for x, mx in rows.items() for d in _bits(mx)])


def _preimages(r: FinRel) -> dict:
    """output index -> the list of input indices related to it."""
    pre = defaultdict(list)
    for x, mx in r._rows.items():
        while mx:  # highest bit first: one shift per output, no negation
            y = mx.bit_length() - 1
            pre[y].append(x)
            mx ^= 1 << y
    return pre


def triples_rel(a: Universe, b: Universe, target: Universe, triples) -> FinRel:
    """The relation A x B -> target relating the pair (x, y) to z for
    each triple (z, x, y) of the sequence `triples`, read by index.  A
    name outside its universe is reported as FinRel reports it for the
    joined pair names."""
    source = product_universe(a, b)
    a_index, b_index, t_index, n = a.index, b.index, target.index, len(b)
    rows: dict = {}
    try:
        for z, x, y in triples:
            i = a_index[x] * n + b_index[y]
            rows[i] = rows.get(i, 0) | 1 << t_index[z]
    except KeyError:
        return FinRel(source, target, ((z, pair_name(x, y)) for z, x, y in triples))
    return FinRel._of_rows(source, target, rows)


def compose(s: FinRel, r: FinRel) -> FinRel:
    """Relational composition s after r: x goes to the OR of s's masks
    over the output bits of r(x)."""
    if r.target != s.source:
        raise UniverseMismatch(r.target, s.source, "compose")
    # s's inputs onto r's output indices, which may differ for equal names
    rows = _composed_rows(s._rows, r._rows, _index_map(s.source, r.target))
    return FinRel._of_rows(r.source, s.target, rows)


def two_sided_difference(phi: FinRel, m: FinRel):
    """Sorted-least (output name, input name) pair on which phi(m x id)
    and phi(id x phi) differ, or None, for phi : G x X -> X and the
    product m : G x G -> G, by the preimage scan of the groupoid.py
    docstring, with the preimage lists of phi and m read off their rows;
    exact for relations that share their index spaces."""
    pre_phi = _preimages(phi)
    pre_m = pre_phi if m is phi else _preimages(m)
    nx, ngx = len(phi.target), len(phi.source)
    for name in phi.target.elements:
        left, right = set(), set()
        for gx in pre_phi.get(phi.target.index[name], ()):
            g, x = divmod(gx, nx)
            left.update([gh * nx + x for gh in pre_m.get(g, ())])
            right.update(map((g * ngx).__add__, pre_phi.get(x, ())))
        if left != right:
            inputs = reduce(ProductUniverse, m.source.factors + phi.target.factors)
            return name, min(map(inputs.name_of, left ^ right))
    return None


def transpose(r: FinRel) -> FinRel:
    rows = {y: sum(1 << x for x in xs) for y, xs in _preimages(r).items()}
    return FinRel._of_rows(r.target, r.source, rows)


def product(r: FinRel, r1: FinRel) -> FinRel:
    """Componentwise product relation X x X1 -> Y x Y1: (x, x1) has
    index x * |X1| + x1, and its mask holds r1(x1) shifted to each block
    y * |Y1| of an output y of x."""
    src = product_universe(r.source, r1.source)
    tgt = product_universe(r.target, r1.target)
    ns, nt, rows = len(r1.source), len(r1.target), {}
    for x, mx in r._rows.items():
        spread = sum(1 << y * nt for y in _bits(mx))
        for x1, m1 in r1._rows.items():
            rows[x * ns + x1] = m1 * spread  # the blocks do not overlap
    return FinRel._of_rows(src, tgt, rows)


def domain(r: FinRel) -> tuple:
    return tuple(sorted(map(r.source.name_of, r._rows)))


def image(r: FinRel) -> tuple:
    mask = reduce(int.__or__, r._rows.values(), 0)
    return tuple(sorted(map(r.target.name_of, _bits(mask))))


def is_mapping(r: FinRel) -> bool:
    """True when every source element has exactly one output."""
    return len(r._rows) == len(r.source) and all(
        mx & (mx - 1) == 0 for mx in r._rows.values()
    )


def identity(universe: Universe) -> FinRel:
    rows = {i: 1 << i for i in range(len(universe))}
    return FinRel._of_rows(universe, universe, rows)


def flip(a: Universe, b: Universe) -> FinRel:
    """The swap A x B -> B x A."""
    src = product_universe(a, b)
    tgt = product_universe(b, a)
    na, nb = len(a), len(b)
    rows = {x * nb + y: 1 << (y * na + x) for x in range(na) for y in range(nb)}
    return FinRel._of_rows(src, tgt, rows)


def unitor_left(universe: Universe) -> FinRel:
    """The canonical bijection 1 x X -> X."""
    src = product_universe(ONE, universe)
    return FinRel._of_rows(src, universe, identity(universe)._rows)


def unitor_right(universe: Universe) -> FinRel:
    """The canonical bijection X x 1 -> X."""
    src = product_universe(universe, ONE)
    return FinRel._of_rows(src, universe, identity(universe)._rows)


def mapping_rel(source: Universe, target: Universe, func) -> FinRel:
    """Graph of a total map given as a dict."""
    missing = [x for x in source if x not in func]
    if missing:
        raise UnknownElement(missing[0], "mapping domain")
    return FinRel(source, target, ((func[x], x) for x in source))


def first_difference(lhs: FinRel, rhs: FinRel):
    """Sorted-least pair on which two relations disagree, or None."""
    u, v = (lhs.source, lhs.target), (rhs.source, rhs.target)
    for a, b in zip(u, v):
        if a != b:
            raise UniverseMismatch(a, b, "first_difference")
    rows, other = _moved_rows(lhs._rows, *map(_index_map, u, v)), rhs._rows
    if rows == other:
        return None
    diff = [
        (y, x)
        for x in rows.keys() | other.keys()
        if rows.get(x) != other.get(x)
        for y in _bits(rows.get(x, 0) ^ other.get(x, 0))
    ]
    out = _namer(rhs.target, len(diff))
    inp = _namer(rhs.source, len(diff))
    return min((out(y), inp(x)) for y, x in diff)
