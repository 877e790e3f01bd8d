"""Groupoid actions as relations, with the constructions they carry.

An action of a groupoid on a set X is a relation from Γ×X to X
subject to two exact equalities, mirroring how the groupoid itself is
axiomatized.  These are the only checks, made only where the boundary
policy in groupoid.py says; the actions the package builds come from
Action._trusted.  One pass over the triples then reads off the
classical picture: a base map rho on X, a domain {(γ,x): e_R(γ)=rho(x)},
and a single-valued partial map.  That rho is well defined, the domain
is that fiber product and the map is single-valued and inverted by s
are theorems of the axioms; the tests check them against an oracle.  On
top of that the module builds action groupoids, coset spaces and
quotient groupoids, homogeneous-space identification for transitive
groupoids, induced actions along a subgroupoid, and the normal form of
transitive actions.

phi(m x id) = phi(id x phi) builds no relation on G x G x X.  It is
decided by groupoid.py's _check_composition, the function that decides
associativity, which is this law for G acting on itself; groupoid.py's
docstring gives the argument.  By the same argument the d with
phi(g, xd) ~= phi(g, x)d (~= as there) are closed under defined
products, so right_commuting_to_morphism checks its law only for the
greedy generators d of delta.  phi(e x id) = id is compared as it
reads, with phi(e x id) built.

The constructions on actions are theorems of their checked inputs and
are not re-checked; tests/test_derived.py checks each one over the
Tier-1 grid against an independent oracle.  quotient_groupoid: for
g' = gn with n in N, g s(n)s(g) is in N by normality, so s is well
defined on classes, and pi is onto.  homogeneous_identification: gamma
marks gamma p(e_R(gamma)), and gamma, gamma' mark one point exactly when
s(gamma)gamma' fixes the section, so psi is a bijection onto the cosets,
and psi(delta x) = [delta gamma] = delta psi(x).
classify_transitive_action: fiber_act is the action restricted to the
isotropy group at e0, e|1|e0 moves the fiber over e0 onto the fiber
over e, and x|g|y = (x|1|e0)(e0|g|e0)(e0|1|y), so psi is an isomorphism
from the standard action.
"""

from __future__ import annotations

from .errors import (
    AxiomViolation,
    PreconditionFailed,
    UniverseMismatch,
    UnknownElement,
)
from .relation import (
    Universe,
    compose,
    first_difference,
    identity,
    mapping_rel,
    pair_name,
    product,
    product_universe,
    triples_rel,
    unitor_left,
)
from .groupoid import (
    Groupoid,
    SubgroupoidRef,
    _after,
    _check_composition,
    _generators,
    _placed,
)
from .builders import GroupTable, check_group_action, pair_groupoid, product_form
from .morphism import (
    Morphism,
    _as_member_set,
    compose_morphisms,
    fiber_map_right,
    to_orbit_pair,
)


class Action:
    """A validated relational action, stored as triples (y, g, x)."""

    def __init__(self, groupoid: Groupoid, carrier: Universe, triples):
        self._read(groupoid, carrier, triples, check=True)

    @classmethod
    def _trusted(cls, groupoid: Groupoid, carrier: Universe, triples):
        """An action built from structures the package holds, unchecked."""
        action = cls.__new__(cls)
        action._read(groupoid, carrier, triples, check=False)
        return action

    def _read(self, groupoid, carrier, triples, check):
        self.groupoid = groupoid
        self.carrier = carrier
        self.triples = tuple(sorted(set(triples)))
        self.rel = triples_rel(groupoid.elements, carrier, carrier, self.triples)
        if check:
            self._check_axioms()
        self._derive()

    def _check_axioms(self):
        g, x, rel = self.groupoid, self.carrier, self.rel
        product_universe(g.m_rel.source, x)  # refuses ambiguous triple names
        _check_composition("phi(mxid)=phi(idxphi)", lambda: rel, g, self._moves())
        lhs, unit = compose(rel, product(g.e_rel, identity(x))), unitor_left(x)
        if lhs != unit:
            raise AxiomViolation(
                "phi(exid)=id", lambda: first_difference(lhs, unit)
            )

    def _moves(self):
        """moves[g][x] is the index of phi(g, x), or None when phi is
        multi-valued."""
        n, by_pair = len(self.carrier), self.rel._by_index()
        if len(by_pair) != len(self.rel.pairs):
            return None
        moves = [{} for _ in self.groupoid.elements.names]
        for gx, (y,) in by_pair.items():
            g, x = divmod(gx, n)
            moves[g][x] = y
        return moves

    def _derive(self):
        # one pass over the triples; base map, domain and single-valued
        # partial map are theorems of the axioms and are not re-checked
        unit_set = self.groupoid._unit_set
        rho, table = {}, {}
        for y, gamma, point in self.triples:
            table[(gamma, point)] = y
            if gamma in unit_set:
                rho[point] = gamma
        self.base_map = rho
        self.domain = frozenset(table)
        self._table = table

    def apply(self, gamma, point):
        """The moved point, or None outside the domain."""
        return self._table.get((gamma, point))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Action)
            and self.groupoid == other.groupoid
            and self.carrier == other.carrier
            and self.triples == other.triples
        )

    def __hash__(self) -> int:
        return hash((self.groupoid, self.carrier, self.triples))

    def __repr__(self) -> str:
        return (
            f"Action({self.groupoid.name!r} on {self.carrier.name!r}, "
            f"{len(self.triples)} triples)"
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
    return Action._trusted(
        groupoid, groupoid.elements, ((c, a, b) for c, a, b in groupoid.table)
    )


def unit_action(groupoid: Groupoid) -> Action:
    """The action on units moving e_R(g) to e_L(g)."""
    carrier = groupoid.units_universe()
    triples = (
        (groupoid.e_left(g), g, groupoid.e_right(g)) for g in groupoid.elements
    )
    return Action._trusted(groupoid, carrier, triples)


def conjugation_action(groupoid: Groupoid) -> Action:
    """The action on the isotropy bundle by conjugation."""
    bundle = sorted(groupoid.isotropy_bundle().members)
    carrier = Universe(f"{groupoid.elements.name}.iso", bundle)
    triples = []
    for g in groupoid.elements:
        for k in bundle:
            if groupoid.e_right(g) == groupoid.e_left(k):
                moved = groupoid.mult(groupoid.mult(g, k), groupoid.inverse[g])
                triples.append((moved, g, k))
    return Action._trusted(groupoid, carrier, triples)


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
    target = pair_groupoid(action.carrier)
    graph = [(pair_name(y, x), g) for y, g, x in action.triples]
    return Morphism._trusted(action.groupoid, target, graph)


def morphism_to_action(h: Morphism, carrier: Universe) -> Action:
    """Read a morphism into the pair groupoid back as an action."""
    if not h.target.same_structure(pair_groupoid(carrier)):
        raise PreconditionFailed(
            f"{h.target.name!r} is not the pair groupoid over {carrier.name!r}"
        )
    decode = {
        pair_name(x1, x2): (x1, x2) for x1 in carrier for x2 in carrier
    }
    triples = []
    for d, g in h.graph:
        x1, x2 = decode[d]
        triples.append((x1, g, x2))
    return Action._trusted(h.source, carrier, triples)


def right_commuting_to_morphism(action: Action, delta: Groupoid) -> Morphism:
    """Turn an action on a groupoid commuting with right multiplication
    into a morphism onto that groupoid."""
    if tuple(action.carrier) != tuple(delta.elements):
        raise UniverseMismatch(action.carrier, delta.elements, "carrier")
    if action.carrier.factors != delta.elements.factors:  # index as delta does
        action = Action._trusted(action.groupoid, delta.elements, action.triples)
    product_universe(action.rel.source, delta.elements)  # refuses ambiguous names
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
    moves, cols = action._moves(), delta._cols  # cols[d][x] is xd
    return all(
        _after(move, cols[d]) == _after(cols[d], move)
        for d in _generators(delta._rows, cols)
        for move in moves
    )


def pullback_action(h: Morphism, space: GammaSet) -> GammaSet:
    """Precompose an action with a morphism into its groupoid."""
    if space.action.groupoid != h.target:
        raise PreconditionFailed("the action does not belong to the target")
    carrier = space.carrier
    rel = compose(space.action.rel, product(h.rel, identity(carrier)))
    triples = []
    for g in h.source.elements:
        for x in carrier:
            for y in rel.outputs(pair_name(g, x)):
                triples.append((y, g, x))
    return GammaSet(carrier, Action._trusted(h.source, carrier, triples))


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
    g, rho = action.groupoid, action.base_map
    members = sorted(action.domain)
    labels = [pair_name(gamma, x) for gamma, x in members]
    elements = Universe(f"{g.elements.name}*{action.carrier.name}", labels)
    # position k is the move members[k]; (g1, g2 x)(g2, x) = (g1 g2, x)
    at = {move: k for k, move in enumerate(members)}
    names, cols = g._names, g._cols  # cols[b][a] is the index of ab
    units = [at[(rho[x], x)] for x in action.carrier]
    inv = [at[(g.inverse[gamma], action.apply(gamma, x))] for gamma, x in members]
    rows = [{} for _ in members]
    for k, (gamma2, x) in enumerate(members):
        moved = action.apply(gamma2, x)
        for gamma1, prod in cols[g._index[gamma2]].items():
            rows[at[(names[gamma1], moved)]][k] = at[(names[prod], x)]
    name = f"Act({g.name},{action.carrier.name})"
    return _placed(name, elements, labels, units, inv, rows)


def action_groupoid_functor(h: Morphism):
    """The unit action of a morphism plus its fiber-map functor."""
    composite = compose_morphisms(to_orbit_pair(h.target), h)
    phi = morphism_to_action(composite, h.target.units_universe())
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
    members = _as_member_set(groupoid, part)
    ref = SubgroupoidRef(groupoid, members)
    if not ref.is_wide:
        raise PreconditionFailed("coset space needs a wide subgroupoid")
    classes, projection = _cosets(groupoid, members)
    carrier = Universe(
        f"{groupoid.elements.name}/~", tuple(projection[b[0]] for b in classes)
    )
    triples = {
        (projection[c], a, projection[b]) for c, a, b in groupoid.table
    }
    action = Action._trusted(groupoid, carrier, triples)
    return CosetSpace(groupoid, members, classes, projection, action)


def quotient_groupoid(groupoid: Groupoid, part):
    """Quotient by a normal-per-unit wide subgroupoid of the isotropy
    bundle, together with the projection morphism."""
    members = _as_member_set(groupoid, part)
    ref = SubgroupoidRef(groupoid, members)
    if not ref.is_wide:
        raise PreconditionFailed("quotient needs a wide subgroupoid")
    for g in sorted(members):
        if groupoid.e_left(g) != groupoid.e_right(g):
            raise PreconditionFailed(
                f"{g!r} is outside the isotropy bundle"
            )
    for e in groupoid.units:
        fiber = groupoid.isotropy(e).members
        sub = fiber & members
        for g in fiber:
            for n in sub:
                conj = groupoid.mult(groupoid.mult(g, n), groupoid.inverse[g])
                if conj not in sub:
                    raise PreconditionFailed(
                        f"subgroup is not normal at unit {e!r}"
                    )
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
    elements = Universe(f"{groupoid.elements.name}/G", labels)
    quotient = _placed(f"{groupoid.name}/G", elements, labels, units, inv, rows)
    pi = Morphism._trusted(
        groupoid, quotient, ((projection[g], g) for g in groupoid.elements)
    )
    return quotient, pi


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
    space = coset_space(groupoid, wide)
    psi = {
        x: space.projection[min(g for g, y in mark.items() if y == x)]
        for x in action.carrier
    }
    return ref, psi


def induced_action(groupoid: Groupoid, part, action: Action):
    """Extend an action of a subgroupoid to the whole groupoid.

    Returns the class universe and the action on it.
    """
    members = _as_member_set(groupoid, part)
    ref = SubgroupoidRef(groupoid, members)
    delta = ref.as_groupoid()
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
    triples = set()
    for gamma, x in pre_carrier:
        for gamma1 in groupoid.elements:
            prod = groupoid.mult(gamma1, gamma)
            if prod is not None:
                triples.add(
                    (projection[(prod, x)], gamma1, projection[(gamma, x)])
                )
    return carrier, Action._trusted(groupoid, carrier, triples)


def product_form_action(space: Universe, table: GroupTable, carrier: Universe, act) -> Action:
    """The standard action of a product-form groupoid built from a
    group action on a fiber."""
    act = check_group_action(table, carrier, act)
    groupoid = product_form(space, table)
    triples = []
    for e1 in space:
        for e2 in space:
            for g in table.elements:
                for z in carrier:
                    triples.append(
                        (
                            pair_name(e1, act[(g, z)]),
                            f"{e1}|{g}|{e2}",
                            pair_name(e2, z),
                        )
                    )
    product_carrier = product_universe(space, carrier)
    return Action._trusted(groupoid, product_carrier, triples)


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
