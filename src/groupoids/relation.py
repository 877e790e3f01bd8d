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
A FinRel stores a frozenset of (output index, input index) pairs;
compose, product, transpose, identity, flip and the unitors work on
those integers alone and never look at a name.

Names.  Pair universes name their elements by joining the component
names with a comma.  A product builds its names, its sorted `elements`
and its name -> index dict only when one of them is asked for.  Names
are made at the boundary: the public FinRel constructor reads
(output, input) name pairs and checks them against its universes;
`graph` names a relation's pairs, sorted, on first use; and
first_difference names only the pairs on which two relations differ.
Two universes that are equal by name but index differently (a plain
universe and a product with the same name and elements) still give
equal relations: equality, compose and first_difference move pairs
through _index_map, the one index map, which other modules import.

Collisions.  Component names may themselves contain commas (nested
pairs do), so product_universe(a, b) refuses the product whenever two
distinct pairs (x, y) would join to the same name.  When every name of
a, or every name of b, has the same number of commas, a joined name
splits in exactly one place and no collision is possible; only
otherwise are the |a| * |b| joined names built and compared.
"""

from __future__ import annotations

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
    """Relation between two finite universes.

    `pairs` holds (output, input) index pairs: (j, i) present means the
    input with index i is related to the output with index j.  `graph`
    holds the same pairs as sorted (output name, input name) tuples.
    """

    def __init__(self, source: Universe, target: Universe, graph):
        names = set(graph)
        src, tgt = source.index, target.index
        try:
            pairs = frozenset([(tgt[y], src[x]) for y, x in names])
        except KeyError:
            for y, x in sorted(names):
                if x not in source:
                    raise UnknownElement(
                        x, f"source universe {source.name!r}"
                    ) from None
                if y not in target:
                    raise UnknownElement(
                        y, f"target universe {target.name!r}"
                    ) from None
            raise
        self.source = source
        self.target = target
        self.pairs = pairs
        self._names = names
        self._index_cache = None

    @classmethod
    def _from_indices(cls, source: Universe, target: Universe, pairs: frozenset):
        """The relation with these index pairs, which must lie in range;
        nothing is checked."""
        rel = cls.__new__(cls)
        rel.source = source
        rel.target = target
        rel.pairs = pairs
        rel._names = None
        rel._index_cache = None
        return rel

    @cached_property
    def graph(self) -> tuple:
        names = self._names
        if names is None:
            out = _namer(self.target, len(self.pairs))
            inp = _namer(self.source, len(self.pairs))
            names = [(out(y), inp(x)) for y, x in self.pairs]
        return tuple(sorted(names))

    def _by_index(self) -> dict:
        """input index -> list of output indices, built on first use."""
        by_index = self._index_cache
        if by_index is None:
            by_index = {}
            for y, x in self.pairs:
                if x in by_index:
                    by_index[x].append(y)
                else:
                    by_index[x] = [y]
            self._index_cache = by_index
        return by_index

    @cached_property
    def _by_input(self) -> dict:
        index: dict = {}
        for y, x in self.graph:
            index.setdefault(x, []).append(y)
        return {x: tuple(ys) for x, ys in index.items()}

    def outputs(self, x: str):
        """All elements related to the input x."""
        if x not in self.source:
            raise UnknownElement(x, f"source universe {self.source.name!r}")
        return self._by_input.get(x, ())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinRel)
            and self.source == other.source
            and self.target == other.target
            and _pairs_on(self, other) == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, len(self.pairs)))

    def __repr__(self) -> str:
        return (
            f"FinRel({self.source.name!r} -> {self.target.name!r}, "
            f"{len(self.pairs)} pairs)"
        )


def triples_rel(a: Universe, b: Universe, target: Universe, triples) -> FinRel:
    """The relation A x B -> target relating the pair (x, y) to z for
    each triple (z, x, y) of the sequence `triples`, read by index.  A
    name outside its universe is reported as FinRel reports it for the
    joined pair names."""
    source = product_universe(a, b)
    a_index, b_index, t_index, n = a.index, b.index, target.index, len(b)
    try:
        pairs = frozenset(
            [(t_index[z], a_index[x] * n + b_index[y]) for z, x, y in triples]
        )
    except KeyError:
        return FinRel(source, target, ((z, pair_name(x, y)) for z, x, y in triples))
    return FinRel._from_indices(source, target, pairs)


def _pairs_on(r: FinRel, onto: FinRel) -> frozenset:
    """r's pairs on the indices of onto's equal universes."""
    at_out, at_in = _index_map(r.target, onto.target), _index_map(r.source, onto.source)
    if at_out is at_in is None:
        return r.pairs
    at_out, at_in = at_out or range(len(r.target)), at_in or range(len(r.source))
    return frozenset([(at_out[y], at_in[x]) for y, x in r.pairs])


def compose(s: FinRel, r: FinRel) -> FinRel:
    """Relational composition s after r."""
    if r.target != s.source:
        raise UniverseMismatch(r.target, s.source, "compose")
    by_index = s._by_index()
    at = _index_map(r.target, s.source)  # r's outputs onto s's inputs
    if at is not None:
        by_index = {y: by_index.get(j, ()) for y, j in enumerate(at)}
    pairs = frozenset([(z, x) for y, x in r.pairs for z in by_index.get(y, ())])
    return FinRel._from_indices(r.source, s.target, pairs)


def two_sided_difference(phi: FinRel, m: FinRel):
    """Sorted-least (output name, input name) pair on which phi(m x id)
    and phi(id x phi) differ, or None, for phi : G x X -> X and the
    product m : G x G -> G, by the preimage scan of the groupoid.py
    docstring; exact for relations that share their index spaces."""
    pre_phi, pre_m = transpose(phi)._by_index(), transpose(m)._by_index()
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
    return FinRel._from_indices(
        r.target, r.source, frozenset([(x, y) for y, x in r.pairs])
    )


def product(r: FinRel, r1: FinRel) -> FinRel:
    """Componentwise product relation X x X1 -> Y x Y1."""
    src = product_universe(r.source, r1.source)
    tgt = product_universe(r.target, r1.target)
    ns, nt = len(r1.source), len(r1.target)
    pairs1 = r1.pairs
    shifted = [(y * nt, x * ns) for y, x in r.pairs]
    pairs = frozenset(
        [(y + y1, x + x1) for y, x in shifted for y1, x1 in pairs1]
    )
    return FinRel._from_indices(src, tgt, pairs)


def domain(r: FinRel) -> tuple:
    name = r.source.name_of
    return tuple(sorted(name(x) for x in {x for _, x in r.pairs}))


def image(r: FinRel) -> tuple:
    name = r.target.name_of
    return tuple(sorted(name(y) for y in {y for y, _ in r.pairs}))


def is_mapping(r: FinRel) -> bool:
    """True when every source element has exactly one output."""
    by_index = r._by_index()
    return len(by_index) == len(r.source) and all(
        len(ys) == 1 for ys in by_index.values()
    )


def identity(universe: Universe) -> FinRel:
    return FinRel._from_indices(
        universe, universe, frozenset([(i, i) for i in range(len(universe))])
    )


def flip(a: Universe, b: Universe) -> FinRel:
    """The swap A x B -> B x A."""
    src = product_universe(a, b)
    tgt = product_universe(b, a)
    na, nb = len(a), len(b)
    pairs = frozenset([(y * na + x, x * nb + y) for x in range(na) for y in range(nb)])
    return FinRel._from_indices(src, tgt, pairs)


def unitor_left(universe: Universe) -> FinRel:
    """The canonical bijection 1 x X -> X."""
    src = product_universe(ONE, universe)
    return FinRel._from_indices(src, universe, identity(universe).pairs)


def unitor_right(universe: Universe) -> FinRel:
    """The canonical bijection X x 1 -> X."""
    src = product_universe(universe, ONE)
    return FinRel._from_indices(src, universe, identity(universe).pairs)


def mapping_rel(source: Universe, target: Universe, func) -> FinRel:
    """Graph of a total map given as a dict."""
    missing = [x for x in source if x not in func]
    if missing:
        raise UnknownElement(missing[0], "mapping domain")
    return FinRel(source, target, ((func[x], x) for x in source))


def first_difference(lhs: FinRel, rhs: FinRel):
    """Sorted-least pair on which two relations disagree, or None."""
    for u, v in ((lhs.source, rhs.source), (lhs.target, rhs.target)):
        if u != v:
            raise UniverseMismatch(u, v, "first_difference")
    diff = _pairs_on(lhs, rhs) ^ rhs.pairs
    if not diff:
        return None
    out = _namer(rhs.target, len(diff))
    inp = _namer(rhs.source, len(diff))
    return min((out(y), inp(x)) for y, x in diff)
