"""Morphisms of groupoids in the relational sense.

A morphism h from Gamma to Delta is a relation whose graph lives in
Delta x Gamma and which satisfies

    h m = m' (h x h),   h s = s' h,   h e = e'

as exact relation equalities.  These are the only checks, made only
where the boundary policy in groupoid.py says.

A morphism is held as its mask rows, which are its relation's rows:
`_rows` maps each input index of h's domain to the nonzero int mask of
its outputs, bit d for target index d, the one index form of a FinRel.
Morphism._of_rows is the one unchecked set-up; every morphism the
package builds computes its rows by index arithmetic and comes from it.
The enumerators' morphisms come from it too: the structured one's are
morphisms by the argument in enum_morphisms, and the naive one's
survivors keep every law on the rows they were decided on.  The
checked entry, Morphism(...), parses a named graph into a FinRel,
decides the laws on its rows and holds them.
A morphism names nothing until it is read.  On the first read of any
of them, one pass over the rows names the base map on units (here
rho, mapping units of the target to units of the source), the domain,
the image and the kernel, the inputs whose mask lies inside the
target's unit mask.  `rel` is the FinRel over the same rows, made on
first read, and `graph` and `outputs` read it.  Composition and
equality work on the rows with relation.py's own kernels: k after h
is _composed_rows of their rows, as in relation.compose, and two
morphisms are equal when their groupoids are and _equal_rows, FinRel's
equality, holds of their rows, also where two equal groupoids index
their names apart.  The hash reads relation._rank_key of the rows, the
pairs in sorted(graph) order by rank, which no index order changes.
The ranks are each universe's cached _ranks: on a product universe,
the first read builds its names, once; the key itself is rebuilt on
each call and stored nowhere.

The laws are decided on the rows, with no side built.  Both groupoids
are valid, so m and m' are single-valued and read off their `_rows`.
At an input pair (x, y) the right side's outputs are the defined
products d1 d2 with d1 in h(x) and d2 in h(y); the left side's are
h(xy), or none when xy is undefined.  The right side depends only on
the two masks and the target, so a memo keyed by the pair of masks
holds it; it is a product table of the target, never a verdict, and
the naive enumerator keeps one per call for all its candidates.  One
pass over the pairs of h's domain compares the two masks and stops at
the first mismatch.  The right side has no pair outside dom h x dom h;
the left side may, and it has |hm| pairs in all, where |hm| is the sum over
the pairs (d, z) of h of the number of factorizations xy = z
(Groupoid._factor_counts).  So when every compared pair matches, the
sides are equal exactly when the outputs matched, the set bits, number
|hm|.  This holds for any h, multi-valued or partial.  h s = s' h says
h(s(x)) = s'(h(x)), compared over dom h: off it both are empty, or s(x)
is in it and fails.  h e = e' says the units' masks OR to the target's
unit mask.  An offender, the sorted-least pair where a law's sides
differ, is built from the rows only when it is asked for.

That the base map is unique, the domain a union of transitive
components, the image a wide subgroupoid of the target and each fiber
map single-valued are theorems of the axioms; the tests check them
against an oracle.  Monomorphisms are decided by the kernel criterion;
failed candidates come with explicit cancellation witnesses built from
the classical proof shapes.  Epimorphisms have no known finite decision
procedure, so the API offers surjectivity, a constructive refutation
for proper images (separating_pair) and a bounded witness search.

The derived constructions are theorems about valid morphisms and are not
re-checked, but a returned witness, a certificate, is verified; the grid
in tests/test_derived.py checks each one against an independent oracle.
Kernel: an output f of g is also one of both units of g, as s'(f)f = f,
so both are rho(f); hs = s'h and hm = m'(hxh) keep all-unit outputs
all-unit under inverse, product and conjugation.  classify_into_group:
the domain, a union of components over e0, the one value of rho, is the
isotropy group at e0, where h is single-valued.  quotient_by_kernel: on
a full domain he = e' puts every unit in the kernel, so by the Kernel
argument it is a wide normal subgroupoid of the isotropy bundle, and
the quotient is built without quotient_groupoid's checks of that.
quotient_by_kernel and epi_mono_factorization: s(g)g' in the kernel
gives h(g') = h(g), so h factors through pi by a mono, and pi and the
component projection are onto.  product_pairing: the union's
projections read the tagged graphs back.  separating_pair: if some
element outside is not an involution, gamma0 is the least such, and
sigma swaps each member g with right unit e_L(gamma0) and g gamma0: it
commutes with left translation by a member but not by gamma0.  Else
gamma0, the least element outside, lies in an isotropy group whose
orbit is one unit (arrows between units are not involutions, so lie
inside), the members there form a normal subgroup, and k2 is its
quotient map.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_

from .errors import (
    AxiomViolation,
    IsMonomorphism,
    PreconditionFailed,
    UniverseMismatch,
)
from .groupoid import Groupoid, SubgroupoidRef, cartesian_product, disjoint_union
from .builders import (
    _group_moves,
    group_groupoid,
    group_table_of,
    pair_groupoid,
    quotient_group_table,
    set_groupoid,
)
from .relation import (
    FinRel,
    Universe,
    _bits,
    _composed_rows,
    _equal_rows,
    _index_map,
    _moved_rows,
    _rank_key,
    compose,
    first_difference,
    pair_name,
    product,
)


def _mask_product(mx: int, my: int, trows: list) -> int:
    """The mask of the defined products d1 d2, d1 in mx and d2 in my.

    Only set bits are visited, lowest first, so two one-output masks
    cost one lookup in the target's rows.
    """
    out = 0
    while mx:
        low = mx & -mx
        drow = trows[low.bit_length() - 1]
        rest = my
        while rest:
            bit = rest & -rest
            d = drow.get(bit.bit_length() - 1)
            if d is not None:
                out |= 1 << d
            rest ^= bit
        mx ^= low
    return out


def _hm_refutation(rows: dict, src: Groupoid, tgt: Groupoid, memo=None):
    """The first input pair (x, y) where hm and m'(hxh) differ, () if
    only their sizes do, or None, on mask rows of h and both products.

    `rows` maps each input index of h's domain to the bit mask of its
    output indices (bit d for target index d), with no zero mask.
    `memo` maps mx << |tgt| | my to the mask of the defined products
    d1 d2, d1 in mx and d2 in my: products in the target only, so one
    memo serves every h into the same target.
    """
    srows, trows = src._rows, tgt._rows
    shift = len(trows)
    if memo is None:
        memo = {}
    matched = 0
    for x, mx in rows.items():
        srow = srows[x]
        high = mx << shift
        for y, my in rows.items():
            rhs = memo.get(high | my)
            if rhs is None:
                rhs = memo[high | my] = _mask_product(mx, my, trows)
            # the left side is h(xy), none where xy is undefined
            if rows.get(srow.get(y), 0) != rhs:
                return x, y
            matched += rhs.bit_count()
    counts = src._factor_counts
    total = sum(m.bit_count() * counts[z] for z, m in rows.items())
    return None if matched == total else ()


def _check_laws(src: Groupoid, tgt: Groupoid, rows: dict):
    """Raise at the first of hm=m'(hxh), hs=s'h and he=e' that h, given
    by its mask rows, breaks; the offender is built on first access."""
    # the units' masks, whose OR starts at 0: a source may have no units
    on_units = (mx for x, mx in rows.items() if src._unit_mask >> x & 1)
    if _hm_refutation(rows, src, tgt) is not None:
        law = "hm=m'(hxh)"
    elif _moved_rows(rows, src._inv, tgt._inv) != rows:  # h(s(x)) = s'(h(x))
        law = "hs=s'h"
    elif reduce(or_, on_units, 0) != tgt._unit_mask:
        law = "he=e'"
    else:
        return

    def sides():
        h = FinRel._of_rows(src.elements, tgt.elements, rows)
        if law == "hm=m'(hxh)":
            return compose(h, src.m_rel), compose(tgt.m_rel, product(h, h))
        if law == "hs=s'h":
            return compose(h, src.s_rel), compose(tgt.s_rel, h)
        return compose(h, src.e_rel), tgt.e_rel

    raise AxiomViolation(law, lambda: first_difference(*sides()))


class _View:
    """The base map, the domain, the image or the kernel of a morphism.

    The first read of any of the four names them all in one pass over the
    rows and stores them on the morphism, where they then shadow these
    non-data descriptors.  The axioms make every derived law (unique base
    map, domain a union of components, wide image, single-valued fibers)
    a theorem, so none is re-checked here.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, h, owner=None):
        if h is None:
            return self
        s_names, t_names, units = h.source._names, h.target._names, h.target._unit_mask
        image, kernel, base = 0, [], {}
        for x, mx in h._rows.items():
            image |= mx
            if mx & units == mx:
                kernel.append(s_names[x])
                if h.source._unit_mask >> x & 1:
                    for d in _bits(mx):
                        base[t_names[d]] = s_names[x]
        views = vars(h)
        views["base_map"] = base
        views["domain_elements"] = frozenset(map(s_names.__getitem__, h._rows))
        views["image_elements"] = frozenset(map(t_names.__getitem__, _bits(image)))
        views["kernel_members"] = frozenset(kernel)
        return views[self.name]


class Morphism:
    def __init__(self, source: Groupoid, target: Groupoid, graph):
        self.rel = FinRel(source.elements, target.elements, graph)
        _check_laws(source, target, self.rel._rows)
        self._setup(source, target, self.rel._rows)

    @classmethod
    def _of_rows(cls, source: Groupoid, target: Groupoid, rows: dict):
        """The morphism with mask rows `rows`, unchecked; no mask is 0."""
        return cls.__new__(cls)._setup(source, target, rows)

    def _setup(self, source, target, rows):
        # a morphism is held as its rows alone; nothing is named here
        self.source, self.target, self._rows = source, target, rows
        return self

    # named together, in one pass over the rows, on the first read of any
    base_map = _View()
    domain_elements = _View()
    image_elements = _View()
    kernel_members = _View()

    @cached_property
    def rel(self) -> FinRel:
        return FinRel._of_rows(self.source.elements, self.target.elements, self._rows)

    @property
    def graph(self) -> tuple:
        return self.rel.graph

    def outputs(self, gamma) -> tuple:
        return self.rel.outputs(gamma)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return False
        u = self.source.elements, self.target.elements
        v = other.source.elements, other.target.elements
        return (self.source, self.target) == (other.source, other.target) and (
            _equal_rows(self._rows, u, other._rows, v)
        )

    def __hash__(self) -> int:
        key = _rank_key(self._rows, self.source.elements, self.target.elements)
        return hash((self.source, self.target, tuple(key)))

    def __repr__(self) -> str:
        pairs = sum(mx.bit_count() for mx in self._rows.values())
        return f"Morphism({self.source.name!r} -> {self.target.name!r}, {pairs} pairs)"


class Kernel:
    """Kernel of a morphism: the domain elements sent only to units."""

    def __init__(self, morphism: Morphism):
        self.morphism = morphism
        self.members = morphism.kernel_members

    def __repr__(self) -> str:
        return f"Kernel({len(self.members)} members)"


class CancellationWitness:
    """A probe groupoid and two distinct morphisms proving non-cancellation.

    side "mono": w1, w2 map the probe into the analyzed morphism's
    source and the composites h.w1 = h.w2 agree.  side "epi": w1, w2
    map the target into the probe and w1.h = w2.h agree.
    """

    def __init__(self, probe: Groupoid, w1: Morphism, w2: Morphism, side: str):
        if side not in ("mono", "epi"):
            raise PreconditionFailed(f"unknown witness side {side!r}")
        if w1 == w2:
            raise PreconditionFailed("witness morphisms must differ")
        self.probe = probe
        self.w1 = w1
        self.w2 = w2
        self.side = side

    def verify(self, h: Morphism) -> bool:
        if self.side == "mono":
            return compose_morphisms(h, self.w1) == compose_morphisms(h, self.w2)
        return compose_morphisms(self.w1, h) == compose_morphisms(self.w2, h)

    def __repr__(self) -> str:
        return f"CancellationWitness({self.side}, probe={self.probe.name!r})"


def compose_morphisms(k: Morphism, h: Morphism) -> Morphism:
    """The composite k after h, the relational composite of their rows."""
    if h.target != k.source:
        raise UniverseMismatch(
            h.target.elements, k.source.elements, "compose_morphisms"
        )
    # k's inputs onto h's output indices, which may differ for equal names
    at = _index_map(k.source.elements, h.target.elements)
    return Morphism._of_rows(h.source, k.target, _composed_rows(k._rows, h._rows, at))


def identity_morphism(groupoid: Groupoid) -> Morphism:
    rows = {x: 1 << x for x in range(len(groupoid._rows))}
    return Morphism._of_rows(groupoid, groupoid, rows)


def base_map(h: Morphism) -> dict:
    """The map from target units to source units determined by h."""
    return dict(h.base_map)


def _fiber_map(h: Morphism, f, ends: str) -> dict:
    """The map g -> h(g) on the source elements g with unit(g) = rho(f)
    and h(g) with unit(h(g)) = f, where `ends` names the index list of
    that unit, "_left" or "_right"."""
    if f not in h.target._unit_set:
        raise PreconditionFailed(f"{f!r} is not a unit of {h.target.name!r}")
    src, tgt = h.source, h.target
    e, at_f = src._index[h.base_map[f]], tgt._index[f]
    s_ends, t_ends = getattr(src, ends), getattr(tgt, ends)
    pairs = ((x, d) for x, mx in h._rows.items() if s_ends[x] == e for d in _bits(mx))
    return {src._names[x]: tgt._names[d] for x, d in pairs if t_ends[d] == at_f}


def fiber_map_right(h: Morphism, f) -> dict:
    """Right-fiber map at the target unit f."""
    return _fiber_map(h, f, "_right")


def fiber_map_left(h: Morphism, f) -> dict:
    """Left-fiber map at the target unit f."""
    return _fiber_map(h, f, "_left")


def kernel(h: Morphism) -> Kernel:
    return Kernel(h)


def is_mono(h: Morphism) -> bool:
    """Monomorphism test: the kernel is exactly the source units."""
    return h.kernel_members == h.source._unit_set


def is_surjective(h: Morphism) -> bool:
    return h.image_elements == frozenset(h.target.elements)


def mono_witness(h: Morphism) -> CancellationWitness:
    """Two probe morphisms demonstrating that h is not mono."""
    if is_mono(h):
        raise IsMonomorphism(f"{h!r} is a monomorphism")
    src = h.source
    units, index, all_units = tuple(src.units), src._index, src._unit_mask
    if h.domain_elements != frozenset(src.elements):
        covered = {src.e_right(g) for g in h.domain_elements}
        missing = next(o for o in src.orbits() if o[0] not in covered)
        rest = sorted(set(units) - set(missing))
        if rest:
            # w1 includes the units; w2 sends the missing ones from rest[0]
            probe = set_groupoid(src.units_universe())
            at = probe._index
            rows1 = {at[e]: 1 << index[e] for e in units}
            rows2 = {at[e]: 1 << index[e] for e in rest}
            rows2[at[rest[0]]] |= sum(1 << index[e] for e in missing)
        else:
            # the whole unit set is one missing orbit; any two distinct
            # constant probes compose with h to the empty relation
            fresh = Universe(f"{src.elements.name}.probe", ("p0", "p1"))
            probe = set_groupoid(fresh)
            rows1, rows2 = {0: all_units}, {1: all_units}
    else:
        gamma0 = min(h.kernel_members - set(units))
        e0 = src.e_left(gamma0)
        iso = src.isotropy(e0).members
        h0 = sorted(iso & h.kernel_members)
        probe = group_groupoid(
            group_table_of(src, h0, f"{src.name}.ker@{e0}")
        )
        # w1 sends each k of h0 to every unit, w2 to k and the units but e0
        at, others = probe._index, all_units & ~(1 << index[e0])
        rows1 = {at[k]: all_units for k in h0}
        rows2 = {at[k]: others | 1 << index[k] for k in h0}
    w1, w2 = Morphism._of_rows(probe, src, rows1), Morphism._of_rows(probe, src, rows2)
    witness = CancellationWitness(probe, w1, w2, "mono")
    if not witness.verify(h):
        raise AxiomViolation("derived:mono-witness", None, "composites differ")
    return witness


def left_regular(groupoid: Groupoid) -> Morphism:
    """Left translations, as a morphism into the pair groupoid on Γ."""
    rows = _pair_rows(groupoid._rows, len(groupoid._rows))  # a goes to each (ab, b)
    return Morphism._of_rows(groupoid, pair_groupoid(groupoid.elements), rows)


def _as_member_set(groupoid: Groupoid, part) -> frozenset:
    if isinstance(part, SubgroupoidRef):
        if part.parent != groupoid:
            raise PreconditionFailed("subgroupoid belongs to another groupoid")
        return part.members
    if isinstance(part, Groupoid):
        return frozenset(part.elements)
    return frozenset(part)


def _subgroupoid(groupoid: Groupoid, part, wide=None) -> SubgroupoidRef:
    """`part`, a SubgroupoidRef, a Groupoid or a set of members, as a
    subgroupoid of `groupoid`, checked once.  With `wide`, a part that
    is not wide is refused with that message."""
    ref = SubgroupoidRef(groupoid, _as_member_set(groupoid, part))
    if wide is not None and not ref.is_wide:
        raise PreconditionFailed(wide)
    return ref


def component_projection(groupoid: Groupoid, part) -> Morphism:
    """Transposed inclusion of a union of transitive components."""
    members = _as_member_set(groupoid, part)
    full = groupoid._arrows({groupoid._right[groupoid._index_of(g)] for g in members})
    if members != full:
        raise PreconditionFailed(
            f"{min(members ^ full)!r} breaks the transitive-component condition"
        )
    sub = SubgroupoidRef(groupoid, members).as_groupoid()
    rows = {groupoid._index[g]: 1 << y for y, g in enumerate(sub._names)}
    return Morphism._of_rows(groupoid, sub, rows)


def wide_inclusion(groupoid: Groupoid, part) -> Morphism:
    """Inclusion of a wide subgroupoid as a morphism."""
    sub = _subgroupoid(groupoid, part, "subgroupoid is not wide").as_groupoid()
    rows = {x: 1 << groupoid._index[g] for x, g in enumerate(sub._names)}
    return Morphism._of_rows(sub, groupoid, rows)


def _unit_pairs(groupoid: Groupoid, target: Groupoid) -> dict:
    """The mask rows of γ ↦ (left unit, right unit) into a groupoid on
    pairs of units, whose index of a pair is read off its name."""
    at, names = target._index, groupoid._names
    ends = enumerate(zip(groupoid._left, groupoid._right))
    return {g: 1 << at[pair_name(names[l], names[r])] for g, (l, r) in ends}


def to_orbit_pair(groupoid: Groupoid) -> Morphism:
    """γ ↦ (left unit, right unit) into the pair groupoid on units."""
    target = pair_groupoid(groupoid.units_universe())
    return Morphism._of_rows(groupoid, target, _unit_pairs(groupoid, target))


def to_orbit_relation(groupoid: Groupoid) -> Morphism:
    """Same unit-pair map, onto the orbit equivalence relation."""
    target = groupoid.orbit_relation()
    return Morphism._of_rows(groupoid, target, _unit_pairs(groupoid, target))


def restrict_to_domain(h: Morphism) -> Morphism:
    """The same relation viewed from the full subgroupoid on D(h)."""
    sub = SubgroupoidRef(h.source, h.domain_elements).as_groupoid()
    at = list(map(sub._index.get, h.source._names))  # None off the domain
    return Morphism._of_rows(sub, h.target, _moved_rows(h._rows, at))


def product_injections(g1: Groupoid, g2: Groupoid):
    """The two canonical morphisms into the cartesian product."""
    # the pair (a, b) has index a * |g2| + b in the product
    prod, n, units1 = cartesian_product(g1, g2), len(g2._rows), g1._unit_mask
    i1 = {a: g2._unit_mask << a * n for a in range(len(g1._rows)) if g2.units}
    i2 = {b: sum(1 << (e * n + b) for e in _bits(units1)) for b in range(n) if units1}
    return Morphism._of_rows(g1, prod, i1), Morphism._of_rows(g2, prod, i2)


def _tags(union: Groupoid, g1: Groupoid, g2: Groupoid):
    """The index in the disjoint union of each element of g1, as L:g,
    and of each element of g2, as R:g."""
    at = union._index
    return [at[f"L:{g}"] for g in g1._names], [at[f"R:{g}"] for g in g2._names]


def union_projections(g1: Groupoid, g2: Groupoid):
    """Disjoint union with its two projection morphisms."""
    union = disjoint_union(g1, g2)
    left, right = _tags(union, g1, g2)
    p1 = Morphism._of_rows(union, g1, {x: 1 << g for g, x in enumerate(left)})
    p2 = Morphism._of_rows(union, g2, {x: 1 << g for g, x in enumerate(right)})
    return union, p1, p2


def product_pairing(p1: Morphism, p2: Morphism) -> Morphism:
    """The morphism into the disjoint union determined by p1 and p2."""
    if p1.source != p2.source:
        raise PreconditionFailed("pairing requires a common source")
    union = disjoint_union(p1.target, p2.target)
    left, right = _tags(union, p1.target, p2.target)
    rows = _moved_rows(p1._rows, None, left)
    at = _index_map(p2.source.elements, p1.source.elements)
    for x, mx in _moved_rows(p2._rows, at, right).items():
        rows[x] = rows.get(x, 0) | mx
    return Morphism._of_rows(p1.source, union, rows)


def functor_to_morphism(source: Groupoid, target: Groupoid, mapping) -> Morphism:
    """Graph of a functor, accepted only when units map bijectively."""
    mapping = dict(mapping)
    for g in source.elements:
        if g not in mapping:
            raise PreconditionFailed(f"functor undefined at {g!r}")
        if mapping[g] not in target.elements:
            raise PreconditionFailed(f"functor value {mapping[g]!r} unknown")
    if sorted(mapping[e] for e in source.units) != list(target.units):
        raise PreconditionFailed("functor is not a bijection on units")
    return Morphism(source, target, ((mapping[g], g) for g in source.elements))


def _pair_rows(moves: list, n: int) -> dict:
    """The mask rows of g ↦ {(gx, x)}, for move rows moves[g][x] on n
    points, into their pair groupoid, where (y, x) is at y * n + x."""
    return {
        g: sum(1 << (y * n + x) for x, y in row.items())
        for g, row in enumerate(moves)
        if row
    }


def group_action_morphism(table, space: Universe, act) -> Morphism:
    """The morphism into the pair groupoid defined by a group action."""
    group = group_groupoid(table)
    rows = _pair_rows(_group_moves(group, space, act), len(space))
    return Morphism._of_rows(group, pair_groupoid(space), rows)


def has_unique_fixed_point_property(table, space: Universe, act) -> bool:
    """Transitive, and every point is the unique fixed point of some g.

    This is a sufficient condition for the associated morphism into
    the pair groupoid to be an epimorphism.
    """
    moves, n = _group_moves(group_groupoid(table), space, act), len(space)
    if n and len({row[0] for row in moves}) < n:  # the orbit of point 0
        return False
    fixed = ([x for x, y in row.items() if x == y] for row in moves)
    return len({f[0] for f in fixed if len(f) == 1}) == n


def classify_into_group(h: Morphism):
    """Present a morphism into a group as (one-point orbit, group hom)."""
    if len(h.target.units) != 1:
        raise PreconditionFailed(f"{h.target.name!r} is not a group")
    e0 = h.base_map[h.target.units[0]]
    iso = h.source.isotropy(e0).members
    at, names = h.source._index, h.target._names
    return e0, {g: names[next(_bits(h._rows[at[g]]))] for g in sorted(iso)}


def quotient_by_kernel(h: Morphism):
    """Factor a full-domain morphism through its kernel quotient."""
    from .action import _quotient

    if h.domain_elements != frozenset(h.source.elements):
        raise PreconditionFailed("morphism domain must be the whole groupoid")
    # a wide normal subgroupoid of the isotropy bundle, by the module
    # docstring's argument, so quotient_groupoid's checks are not re-run
    quotient, pi = _quotient(h.source, h.kernel_members)
    # the class of x has its one bit in pi's row of x
    rows = {}
    for x, mx in h._rows.items():
        k = next(_bits(pi._rows[x]))
        rows[k] = rows.get(k, 0) | mx
    return pi, Morphism._of_rows(quotient, h.target, rows)


def epi_mono_factorization(h: Morphism):
    """Write h as a surjection onto a quotient followed by a mono."""
    if h.domain_elements == frozenset(h.source.elements):
        proj = identity_morphism(h.source)
        inner = h
    else:
        proj = component_projection(h.source, h.domain_elements)
        inner = restrict_to_domain(h)
    pi, reduced = quotient_by_kernel(inner)
    return compose_morphisms(pi, proj), reduced


def separating_pair(groupoid: Groupoid, part):
    """Two morphisms equal on a proper wide subgroupoid but not globally.

    Returns (probe, k1, k2).  Existence is the contrapositive step in
    showing epimorphisms are surjective.
    """
    from .bisection import Bisection, ad

    wide = "separating_pair needs a wide subgroupoid"
    members = _subgroupoid(groupoid, part, wide).members
    outside = sorted(set(groupoid.elements) - members)
    if not outside:
        raise PreconditionFailed("subgroupoid must be proper")

    moved = [g for g in outside if groupoid.inverse[g] != g]
    if moved:
        gamma0 = min(moved)
        e0 = groupoid.e_left(gamma0)
        into = map(groupoid._names.__getitem__, groupoid._fibers[groupoid._index[e0]])
        h_set = [g for g in into if g in members]  # in name order
        sigma = {g: g for g in groupoid.elements}
        for g in h_set:  # swap g and g gamma0
            sigma[g] = groupoid.mult(g, gamma0)
            sigma[sigma[g]] = g
        k1 = left_regular(groupoid)
        probe = k1.target  # the pair groupoid on the elements, built once
        twist = Bisection(
            probe, {pair_name(sigma[g], g) for g in groupoid.elements}
        )
        k2 = compose_morphisms(ad(twist), k1)
    else:
        gamma0 = min(outside)
        e0 = groupoid.e_right(gamma0)
        iso = sorted(groupoid.isotropy(e0).members)
        table = group_table_of(groupoid, iso, f"{groupoid.name}@{e0}")
        sub = sorted(set(iso) & members)
        ktable, proj = quotient_group_table(table, sub)
        probe = group_groupoid(ktable)
        at, to = groupoid._index, probe._index
        rows1 = {at[g]: probe._unit_mask for g in iso}
        rows2 = {at[g]: 1 << to[proj[g]] for g in iso}
        k1 = Morphism._of_rows(groupoid, probe, rows1)
        k2 = Morphism._of_rows(groupoid, probe, rows2)
    return probe, k1, k2


def find_non_epi_witness(h: Morphism):
    """A verified right-cancellation witness, or None when none is found.

    None is not a proof that h is an epimorphism.
    """
    from .bisection import ad, all_bisections

    if not is_surjective(h):
        probe, k1, k2 = separating_pair(h.target, h.image_elements)
        witness = CancellationWitness(probe, k1, k2, "epi")
        if not witness.verify(h):
            raise AxiomViolation("derived:epi-witness", None, "composites differ")
        return witness
    ident = identity_morphism(h.target)
    unit_set = frozenset(h.target.units)
    for b in all_bisections(h.target):
        if b.members == unit_set:
            continue
        twisted = ad(b)
        if twisted == ident:
            continue
        if compose_morphisms(twisted, h) == h:
            return CancellationWitness(h.target, twisted, ident, "epi")
    return None
