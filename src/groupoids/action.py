"""Groupoid actions as relations, with the constructions they carry.

An action of a groupoid on a set X is a relation phi : Γ×X -> X with
the two exact equalities that Γ's product has when Γ acts on itself:
phi(m x id) = phi(id x phi) and phi(e x id) = id, the only checks, made
where the boundary policy in groupoid.py says.  An action is held as
move rows, `_moves[g][x]` the index of phi(g, x), as a groupoid holds
its `_rows`, the move rows of left multiplication.  Builders hand rows
to Action._of_rows, the one unchecked set-up.  Action(...) indexes its
triples in one pass; when the rows hold every triple, phi is
single-valued and groupoid.py's _check_composition decides both laws
on the rows, with no relation built, and otherwise on the relation of
the triples.  One pass over the rows reads off the classical picture:
a base map rho on X, a domain {(γ,x): e_R(γ)=rho(x)}, and a
single-valued partial map.  That rho is well defined, the domain is
that fiber product and the map is single-valued and inverted by s are
theorems of the axioms; the tests check them against an oracle.
`triples` and `rel` are made from the rows on first read, by
groupoid.py's _named_triples and _moves_rel, which make a groupoid's
`table` and `m_rel` from its `_rows`.  On top of
that the module builds action groupoids (groupoid.py's _semidirect),
coset spaces and quotient groupoids, homogeneous-space identification
for transitive groupoids, induced actions along a subgroupoid, and the
normal form of transitive actions.  By groupoid.py's argument, the d
with phi(g, xd) ~= phi(g, x)d are closed under defined products, so
right_commuting_to_morphism checks its law only for the generators d.

The constructions on actions are theorems of their checked inputs and
are not re-checked; tests/test_derived.py checks each one over the
Tier-1 grid against an independent oracle.  quotient_groupoid: for
g' = gn with n in N, g s(n)s(g) is in N by normality, so s is well
defined on classes, and pi is onto.  homogeneous_identification: gamma
marks gamma p(e_R(gamma)), and gamma, gamma' mark one point exactly when
s(gamma)gamma' fixes the section, so psi is a bijection onto the cosets,
and psi(delta x) = [delta gamma] = delta psi(x); a unit e marks p(e),
so the marking subgroupoid is wide and _cosets reads its classes.
action_groupoid_functor: the composite is into the pair groupoid on the
target's units, so _pair_action reads it as an action unchecked.
classify_transitive_action: fiber_act is the action restricted to the
isotropy group at e0, e|1|e0 moves the fiber over e0 onto the fiber
over e, and x|g|y = (x|1|e0)(e0|g|e0)(e0|1|y), so psi is an isomorphism
from the standard action.
"""

from __future__ import annotations

from functools import cached_property

from .errors import PreconditionFailed, UniverseMismatch, UnknownElement
from .relation import (
    FinRel,
    Universe,
    _bits,
    _index_map,
    _moved_rows,
    compose,
    identity,
    mapping_rel,
    pair_name,
    product,
    product_universe,
    triples_rel,
)
from .groupoid import (
    Groupoid,
    SubgroupoidRef,
    _after,
    _check_composition,
    _generators,
    _index_pass,
    _moves_rel,
    _named_triples,
    _placed,
    _semidirect,
)
from .builders import (
    GroupTable,
    _group_moves,
    _normal,
    group_groupoid,
    pair_groupoid,
    product_form,
)
from .morphism import (
    Morphism,
    _pair_rows,
    _subgroupoid,
    compose_morphisms,
    fiber_map_right,
    to_orbit_pair,
)


class Action:
    """A validated relational action, held as its move rows."""

    def __init__(self, groupoid: Groupoid, carrier: Universe, triples):
        self._hold(groupoid, carrier, None)
        u, triples = groupoid.elements, set(triples)
        try:
            self._moves, single = _index_pass(u, carrier, triples)
        except KeyError:  # the first stray name, in sorted triple order
            for triple in sorted(triples):
                for z, space in zip(triple, (carrier, u, carrier)):
                    if z not in space:
                        raise UnknownElement(z, f"universe {space.name!r}") from None
        product_universe(product_universe(u, u), carrier)  # and triple names
        if not single:  # rows cannot hold phi: it is the relation of its triples
            self.rel = triples_rel(u, carrier, carrier, triples)
        laws, phi = ("phi(mxid)=phi(idxphi)", "phi(exid)=id"), lambda: self.rel
        moves = self._moves if single else None
        _check_composition(laws, phi, groupoid, carrier, moves)
        self._setup()

    @classmethod
    def _of_rows(cls, groupoid: Groupoid, carrier: Universe, moves):
        """The action with move rows `moves`, unchecked."""
        return cls.__new__(cls)._hold(groupoid, carrier, moves)._setup()

    def _hold(self, groupoid: Groupoid, carrier: Universe, moves):
        """Hold groupoid, carrier and move rows, refusing ambiguous pair
        names."""
        product_universe(groupoid.elements, carrier)
        self.groupoid, self.carrier, self._moves = groupoid, carrier, moves
        return self

    def _setup(self):
        # one pass over the rows; base map, domain and single-valued
        # partial map are theorems of the axioms and are not re-checked
        names, points = self.groupoid._names, self.carrier.names
        unit_set, rho, table = self.groupoid._unit_set, {}, {}
        for gamma, row in zip(names, self._moves):
            for x, y in row.items():
                table[(gamma, points[x])] = points[y]
            if gamma in unit_set:
                rho.update(dict.fromkeys(map(points.__getitem__, row), gamma))
        self.base_map, self.domain, self._table = rho, frozenset(table), table
        return self

    @cached_property
    def triples(self) -> tuple:
        """The (phi(g, x), g, x) triples by name, sorted."""
        return _named_triples(self.groupoid.elements, self.carrier, self._moves)

    @cached_property
    def rel(self) -> FinRel:
        """phi as the relation G x X -> X, built from the rows."""
        return _moves_rel(self.groupoid.elements, self.carrier, self._moves)

    def apply(self, gamma, point):
        """The moved point, or None outside the domain."""
        return self._table.get((gamma, point))

    def __eq__(self, other) -> bool:
        """Decided as relations, which reconcile index orders."""
        if not isinstance(other, Action):
            return False
        if (self.groupoid, self.carrier) != (other.groupoid, other.carrier):
            return False
        return self.rel == other.rel

    def __hash__(self) -> int:
        return hash((self.groupoid, self.carrier, self.domain))

    def __repr__(self) -> str:
        return (
            f"Action({self.groupoid.name!r} on {self.carrier.name!r}, "
            f"{len(self._table)} triples)"
        )


class GammaSet:
    """A carrier together with a validated action on it."""

    def __init__(self, carrier: Universe, action: Action):
        if carrier != action.carrier:
            raise PreconditionFailed("carrier does not match the action")
        self.carrier = carrier
        self.action = action

    def __eq__(self, other) -> bool:
        return isinstance(other, GammaSet) and self.action == other.action

    def __hash__(self) -> int:
        return hash(self.action)

    def __repr__(self) -> str:
        return f"GammaSet({self.action!r})"


def left_mult_action(groupoid: Groupoid) -> Action:
    """The groupoid acting on itself by left multiplication."""
    return Action._of_rows(groupoid, groupoid.elements, groupoid._rows)


def unit_action(groupoid: Groupoid) -> Action:
    """The action on units moving e_R(g) to e_L(g)."""
    carrier = groupoid.units_universe()
    point = {groupoid._index[e]: k for k, e in enumerate(carrier.names)}
    moves = [{point[r]: point[l]} for l, r in zip(groupoid._left, groupoid._right)]
    return Action._of_rows(groupoid, carrier, moves)


def conjugation_action(groupoid: Groupoid) -> Action:
    """The action on the isotropy bundle by conjugation."""
    bundle = sorted(groupoid.isotropy_bundle().members)
    carrier = Universe(f"{groupoid.elements.name}.iso", bundle)
    # g moves k to g k s(g) where gk is defined
    point = {groupoid._index[k]: j for j, k in enumerate(carrier.names)}
    rows, inv = groupoid._rows, groupoid._inv
    moves = [
        {point[k]: point[rows[row[k]][inv[g]]] for k in point if k in row}
        for g, row in enumerate(rows)
    ]
    return Action._of_rows(groupoid, carrier, moves)


def classical_to_relational(groupoid: Groupoid, carrier: Universe, rho, act) -> Action:
    """Re-express a base map plus partial action as triples, checked as
    an action whose base map is rho."""
    rho = dict(rho)
    action = Action(groupoid, carrier, ((y, g, x) for (g, x), y in dict(act).items()))
    for x in carrier:
        if rho.get(x) != action.base_map[x]:
            raise PreconditionFailed(f"base map at {x!r} is not the action's")
    return action


def as_mapping(action: Action):
    """The classical picture: base map and partial action map."""
    return dict(action.base_map), dict(action._table)


def action_to_pair_morphism(action: Action) -> Morphism:
    """The morphism into the pair groupoid over the carrier."""
    rows = _pair_rows(action._moves, len(action.carrier))
    return Morphism._of_rows(action.groupoid, pair_groupoid(action.carrier), rows)


def morphism_to_action(h: Morphism, carrier: Universe) -> Action:
    """Read a morphism into the pair groupoid back as an action."""
    if not h.target.same_structure(pair_groupoid(carrier)):
        raise PreconditionFailed(
            f"{h.target.name!r} is not the pair groupoid over {carrier.name!r}"
        )
    return _pair_action(h, carrier)


def _pair_action(h: Morphism, carrier: Universe) -> Action:
    """The action read off a morphism into the pair groupoid over the
    carrier, which is not checked."""
    # h's outputs onto the pair indices x1 * n + x2 of (x1, x2)
    at = _index_map(h.target.elements, product_universe(carrier, carrier))
    moves, n = [{} for _ in h.source._rows], len(carrier)
    for g, mg in _moved_rows(h._rows, None, at).items():
        for d in _bits(mg):
            moves[g][d % n] = d // n
    return Action._of_rows(h.source, carrier, moves)


def right_commuting_to_morphism(action: Action, delta: Groupoid) -> Morphism:
    """Turn an action on a groupoid commuting with right multiplication
    into a morphism onto that groupoid."""
    if tuple(action.carrier) != tuple(delta.elements):
        raise UniverseMismatch(action.carrier, delta.elements, "carrier")
    to = _index_map(action.carrier, delta.elements)
    if to is not None:  # index as delta does
        moves = [{to[x]: to[y] for x, y in row.items()} for row in action._moves]
        action = Action._of_rows(action.groupoid, delta.elements, moves)
    source = product_universe(action.groupoid.elements, delta.elements)
    product_universe(source, delta.elements)  # refuses ambiguous names
    if not _commutes_on_generators(action, delta):
        raise PreconditionFailed(
            "action does not commute with right multiplication"
        )
    unit_set = set(delta.units)
    graph = {
        (action.apply(g, f), g) for g, f in action.domain if f in unit_set
    }
    return Morphism(action.groupoid, delta, graph)


def _commutes_on_generators(action: Action, delta: Groupoid) -> bool:
    """phi(g, xd) ~= phi(g, x)d for the generators d of delta."""
    moves, cols = action._moves, delta._cols  # cols[d][x] is xd
    return all(
        _after(move, cols[d]) == _after(cols[d], move)
        for d in _generators(delta._rows, cols)
        for move in moves
    )


def pullback_action(h: Morphism, space: GammaSet) -> GammaSet:
    """Precompose an action with a morphism into its groupoid."""
    if space.action.groupoid != h.target:
        raise PreconditionFailed("the action does not belong to the target")
    # g moves x as each d that h relates it to does
    at = _index_map(h.target.elements, space.action.groupoid.elements)
    moves = [{} for _ in h.source._rows]
    for g, mg in _moved_rows(h._rows, None, at).items():
        for d in _bits(mg):
            moves[g].update(space.action._moves[d])
    return GammaSet(space.carrier, Action._of_rows(h.source, space.carrier, moves))


def is_equivariant(func, first: GammaSet, second: GammaSet) -> bool:
    """Whether a map of carriers intertwines two actions."""
    if first.action.groupoid != second.action.groupoid:
        raise PreconditionFailed("actions of different groupoids")
    f_rel = mapping_rel(first.carrier, second.carrier, dict(func))
    lhs = compose(f_rel, first.action.rel)
    rhs = compose(
        second.action.rel,
        product(identity(first.action.groupoid.elements), f_rel),
    )
    return lhs == rhs


def action_groupoid(action: Action) -> Groupoid:
    """The groupoid of moves (g, x) with multiplication over matching x."""
    g, x = action.groupoid, action.carrier
    name, elements_name = f"Act({g.name},{x.name})", f"{g.elements.name}*{x.name}"
    return _semidirect(name, elements_name, g, x, action._moves, pair_name)


def action_groupoid_functor(h: Morphism):
    """The unit action of a morphism plus its fiber-map functor."""
    composite = compose_morphisms(to_orbit_pair(h.target), h)
    phi = _pair_action(composite, h.target.units_universe())  # into its pair groupoid
    functor = {}
    for f in h.target.units:
        fiber = fiber_map_right(h, f)
        for gamma, delta in fiber.items():
            functor[(gamma, f)] = delta
    return phi, functor


def functor_to_zm(phi: Action, functor, target: Groupoid) -> Morphism:
    """Rebuild the morphism from a functor on the action groupoid."""
    functor = dict(functor)
    if set(functor) != set(phi.domain):
        raise PreconditionFailed(
            "functor domain differs from the action groupoid"
        )
    gamma0 = phi.groupoid
    unit_set = set(gamma0.units)
    for (gamma, f), delta in functor.items():
        if delta not in target.elements:
            raise UnknownElement(delta, target.name)
        if gamma in unit_set and delta != f:
            raise PreconditionFailed(f"functor moves the unit over {f!r}")
        if target.e_right(delta) != f or target.e_left(delta) != phi.apply(
            gamma, f
        ):
            raise PreconditionFailed(
                f"functor value at {(gamma, f)!r} does not run from {f!r} "
                "to its image under the action"
            )
    # Each value runs from f to phi(gamma, f), so once Morphism(...) has
    # checked the graph, the functor is that morphism's fiber-map functor
    # (its unique graph member over gamma with right unit f) and phi is
    # its unit action: the inverse and product laws are then theorems.
    graph = {(delta, gamma) for (gamma, _), delta in functor.items()}
    return Morphism(gamma0, target, graph)


class CosetSpace:
    """Classes of gamma1 ~ gamma2 iff s(gamma1)gamma2 lies in G."""

    def __init__(self, groupoid, members, classes, projection, action):
        self.groupoid = groupoid
        self.members = members
        self.classes = classes
        self.projection = projection
        self.action = action

    @property
    def carrier(self) -> Universe:
        return self.action.carrier

    def __repr__(self) -> str:
        return f"CosetSpace({self.groupoid.name!r}, {len(self.classes)} classes)"


def _cosets(groupoid: Groupoid, members) -> tuple:
    """The classes aH of a wide subgroupoid H, each a sorted tuple, in the
    order of their least elements, and the map from each element to the
    label of its class."""
    # the class of a is aH = {ah : h in H composable}; in name order, the
    # first element met of each class is its least
    u, rows = groupoid.elements, groupoid._rows
    inside = [u.index[h] for h in members]
    classes, projection = [], {}
    for a in u:
        if a not in projection:
            row = rows[u.index[a]]
            block = tuple(sorted(u.names[row[h]] for h in inside if h in row))
            classes.append(block)
            projection.update(dict.fromkeys(block, f"[{a}]"))
    return tuple(classes), projection


def coset_space(groupoid: Groupoid, part) -> CosetSpace:
    """Quotient of a groupoid by a wide subgroupoid, with its action."""
    members = _subgroupoid(groupoid, part, "coset space needs a wide subgroupoid").members
    classes, projection = _cosets(groupoid, members)
    carrier = Universe(
        f"{groupoid.elements.name}/~", tuple(projection[b[0]] for b in classes)
    )
    # a moves the class of b to that of ab
    at = [carrier.index[projection[g]] for g in groupoid._names]
    moves = [{at[b]: at[c] for b, c in row.items()} for row in groupoid._rows]
    action = Action._of_rows(groupoid, carrier, moves)
    return CosetSpace(groupoid, members, classes, projection, action)


def quotient_groupoid(groupoid: Groupoid, part):
    """Quotient by a normal-per-unit wide subgroupoid of the isotropy
    bundle, together with the projection morphism."""
    members = _subgroupoid(groupoid, part, "quotient needs a wide subgroupoid").members
    for g in sorted(members):
        if groupoid.e_left(g) != groupoid.e_right(g):
            raise PreconditionFailed(f"{g!r} is outside the isotropy bundle")
    fibers = {e: [] for e in groupoid.units}  # the isotropy groups, on indices
    for g, (left, right) in enumerate(zip(groupoid._left, groupoid._right)):
        if left == right:
            fibers[groupoid._names[left]].append(g)
    inside = set(map(groupoid._index.__getitem__, members))
    for e, fiber in fibers.items():
        if not _normal(groupoid._rows, fiber, inside.intersection(fiber)):
            raise PreconditionFailed(f"subgroup is not normal at unit {e!r}")
    return _quotient(groupoid, members)


def _quotient(groupoid: Groupoid, members):
    """quotient_groupoid on members it need not check: a wide subgroupoid
    of the isotropy bundle, normal at every unit, such as a kernel."""
    classes, projection = _cosets(groupoid, members)
    # position k is the class classes[k]; at[i] is the class of element i,
    # and the products and inverses of a class's elements fall in one class
    index, at = groupoid._index, [0] * len(groupoid._rows)
    for k, block in enumerate(classes):
        for g in block:
            at[index[g]] = k
    rows, class_of = [{} for _ in classes], at.__getitem__
    for i, row in enumerate(groupoid._rows):
        rows[at[i]].update(zip(map(class_of, row), map(class_of, row.values())))
    inv = [at[groupoid._inv[index[block[0]]]] for block in classes]
    units = {at[index[e]] for e in groupoid.units}
    labels = [projection[block[0]] for block in classes]
    elements = f"{groupoid.elements.name}/G"
    quotient = _placed(f"{groupoid.name}/G", elements, labels, units, inv, rows)
    to = [quotient._index[label] for label in labels]  # the index of class k
    pi = {i: 1 << to[k] for i, k in enumerate(at)}
    return quotient, Morphism._of_rows(groupoid, quotient, pi)


def homogeneous_identification(action: Action, section):
    """Express a saturating transitive action as a coset-space action.

    Takes the section p of the base map explicitly and fails loudly
    when it does not saturate the carrier.
    """
    groupoid = action.groupoid
    section = dict(section)
    if len(groupoid.orbits()) != 1:
        raise PreconditionFailed("groupoid is not transitive")
    for e in groupoid.units:
        if e not in section:
            raise PreconditionFailed(f"section undefined at {e!r}")
        if section[e] not in action.carrier:
            raise UnknownElement(section[e], action.carrier.name)
        if action.base_map[section[e]] != e:
            raise PreconditionFailed(f"not a section of the base map at {e!r}")
    # the point each gamma marks: gamma p(e_R(gamma))
    mark = {
        gamma: action.apply(gamma, section[groupoid.e_right(gamma)])
        for gamma in groupoid.elements
    }
    reached = set(mark.values())
    if reached != set(action.carrier):
        raise PreconditionFailed(
            f"section does not saturate the carrier; {min(set(action.carrier) - reached)!r} unreached"
        )

    wide = {g for g, x in mark.items() if x == section[groupoid.e_left(g)]}
    ref = SubgroupoidRef(groupoid, wide)
    _, projection = _cosets(groupoid, wide)
    psi = {
        x: projection[min(g for g, y in mark.items() if y == x)]
        for x in action.carrier
    }
    return ref, psi


def induced_action(groupoid: Groupoid, part, action: Action):
    """Extend an action of a subgroupoid to the whole groupoid.

    Returns the class universe and the action on it.
    """
    ref = _subgroupoid(groupoid, part)
    members, delta = ref.members, ref.as_groupoid()
    if not action.groupoid.same_structure(delta):
        raise PreconditionFailed("the action does not live on the subgroupoid")
    base_units = set(ref.units)
    if set(action.base_map.values()) != base_units:
        raise PreconditionFailed("base map is not onto the subgroupoid units")

    pre_carrier = sorted(
        (gamma, x)
        for gamma in groupoid.elements
        for x in action.carrier
        if groupoid.e_right(gamma) == action.base_map[x]
    )
    # the class of (gamma, x) is {(gamma s(delta), delta x) : delta in H
    # with delta x defined}, and then gamma s(delta) is defined; in sorted
    # order, the first item met of each class is its least
    classes, projection = [], {}
    for gamma, x in pre_carrier:
        if (gamma, x) not in projection:
            moved = ((delta, action.apply(delta, x)) for delta in members)
            block = tuple(
                sorted(
                    (groupoid.mult(gamma, groupoid.inverse[delta]), y)
                    for delta, y in moved
                    if y is not None
                )
            )
            classes.append(block)
            projection.update(dict.fromkeys(block, f"[{pair_name(gamma, x)}]"))
    carrier = Universe(
        f"{groupoid.elements.name}*{action.carrier.name}.induced",
        tuple(projection[b[0]] for b in classes),
    )
    # gamma1 moves the class of (gamma, x) to that of (gamma1 gamma, x)
    at, names, cols = carrier.index, groupoid._names, groupoid._cols
    moves = [{} for _ in names]
    for gamma, x in pre_carrier:
        k = at[projection[(gamma, x)]]
        for gamma1, prod in cols[groupoid._index[gamma]].items():
            moves[gamma1][k] = at[projection[(names[prod], x)]]
    return carrier, Action._of_rows(groupoid, carrier, moves)


def product_form_action(space: Universe, table: GroupTable, carrier: Universe, act) -> Action:
    """The standard action of a product-form groupoid built from a
    group action on a fiber."""
    fiber = _group_moves(group_groupoid(table), carrier, act)
    groupoid = product_form(space, table)
    product_carrier = product_universe(space, carrier)
    # e1|g|e2 moves (e2, z) to (e1, gz), at e2 * |Z| + z and e1 * |Z| + gz
    at, n = space.index, len(carrier)
    moves = [None] * len(groupoid._rows)
    for e1 in space:
        for e2 in space:
            for g, row in zip(table.elements, fiber):
                moves[groupoid._index[f"{e1}|{g}|{e2}"]] = {
                    at[e2] * n + z: at[e1] * n + gz for z, gz in row.items()
                }
    return Action._of_rows(groupoid, product_carrier, moves)


def classify_transitive_action(space: Universe, table: GroupTable, action: Action, z0=None):
    """Normal form of an action of a product-form transitive groupoid:
    a fiber universe, a group action on it, and the matching bijection."""
    if len(action.carrier) == 0:
        raise PreconditionFailed("empty carrier")
    if not action.groupoid.same_structure(product_form(space, table)):
        raise PreconditionFailed("action groupoid is not the given product form")
    if z0 is None:
        z0 = min(action.carrier.elements)
    elif z0 not in action.carrier:
        raise UnknownElement(z0, action.carrier.name)
    base_of = {f"{e}|{table.unit}|{e}": e for e in space}
    e0 = base_of[action.base_map[z0]]
    over_e0 = [z for z in action.carrier if action.base_map[z] == action.base_map[z0]]
    fiber = Universe(f"{action.carrier.name}@{e0}", tuple(sorted(over_e0)))
    fiber_act = {
        (g, z): action.apply(f"{e0}|{g}|{e0}", z)
        for g in table.elements
        for z in fiber
    }
    psi = {
        pair_name(e, z): action.apply(f"{e}|{table.unit}|{e0}", z)
        for e in space
        for z in fiber
    }
    return fiber, fiber_act, psi
