"""Classical-law oracles for groupoids, morphisms and actions, and the
row edits the fuzz tests feed them.

The constructors of Groupoid, Morphism and Action check only the
relational axioms.  The classical laws below are theorems of those
axioms; these oracles check them directly, element by element, so the
tests can show that no law goes unchecked.  Each oracle returns the
name of the first law broken, or None when every law holds.  The
`*_violation` oracles after `action_violation` do the same for the
derived constructions (kernels, quotients, factorizations, separating
pairs, decompositions, homogeneous spaces, normal forms of actions and
Ad), which the package does not re-check.  Two more oracles are
references for the search: `actions_direct_reference`, the exhaustive
direct action enumerator, kept for the order its pruned successor must
give, and `naive_candidates`, the candidates of the naive morphism
enumerator in its order, for a filter that checks every one.
`relational_verdict` and `morphism_relational_verdict` decide the
relational axioms of a groupoid and of a morphism on relations built in
full, as references for the checked constructors' verdicts.
`generated_groupoids` draws the inputs of the generated oracle grids:
every finite groupoid is, up to isomorphism, a disjoint union of
components X x G x X, so a few (|X|, G) pairs, a relabelling and an
index order give every small groupoid and every presentation of it.
"""

import itertools

from hypothesis import strategies as st

from groupoids.action import classical_to_relational
from groupoids.builders import cyclic_table, klein_table, product_form, symmetric_table
from groupoids.groupoid import Groupoid, disjoint_union, validate_groupoid
from groupoids.morphism import fiber_map_left, fiber_map_right
from groupoids.relation import (
    ONE,
    FinRel,
    Universe,
    compose,
    first_difference,
    flip,
    identity,
    pair_name,
    product,
    product_universe,
    triples_rel,
    unitor_left,
    unitor_right,
)


def groupoid_violation(elements, units, inverse, table):
    """First classical groupoid law the raw data breaks, or None.

    Total on any input drawn from `elements`: a missing product or
    inverse is a broken law, never a KeyError.  e_L(g) and e_R(g) are
    read as the products g s(g) and s(g) g, so the two inverse laws
    hold by definition once those products are units.
    """
    elements, units, table = set(elements), set(units), set(table)
    if not (
        units <= elements
        and set(inverse) == elements
        and set(inverse.values()) <= elements
        and all(x in elements for row in table for x in row)
    ):
        return "structure"
    mult = {}
    for c, a, b in table:
        if mult.setdefault((a, b), c) != c:
            return "m-single-valued"
    inv = inverse
    e_left = {g: mult.get((g, inv[g])) for g in elements}
    e_right = {g: mult.get((inv[g], g)) for g in elements}
    for g in sorted(elements):
        if e_left[g] not in units or e_right[g] not in units:
            return "m(s(g),g)-in-units"
    for e in sorted(units):
        if inv[e] != e or e_left[e] != e or e_right[e] != e:
            return "units-fixed"
    for a, b in itertools.product(elements, repeat=2):
        if ((a, b) in mult) != (e_right[a] == e_left[b]):
            return "composable-iff-units-match"
    for a in elements:
        if mult.get((e_left[a], a)) != a:
            return "left-unit-law"
        if mult.get((a, e_right[a])) != a:
            return "right-unit-law"
    for (a, b), c in mult.items():
        if mult.get((inv[b], inv[a])) != inv[c]:
            return "inverse-antihomomorphism"
        if e_left[c] != e_left[a] or e_right[c] != e_right[b]:
            return "product-units"
    for a, b, c in itertools.product(elements, repeat=3):
        ab, bc = mult.get((a, b)), mult.get((b, c))
        left = mult.get((ab, c)) if ab is not None else None
        right = mult.get((a, bc)) if bc is not None else None
        if left != right:
            return "associativity"
    return None


def relational_verdict(elements, units, inverse, table):
    """(law, offender, detail) of the first relational axiom the data
    breaks, in the checked constructor's order, or None when all hold.

    Every name must be an element and the inverse map total.  Each law
    is decided as it reads, on relations built in full: m from the
    triples, s from the inverse map, e from the units, and both sides
    of each equality by compose, product and flip.  The offender of an
    equality is the sorted-least pair on which its sides differ, with no
    detail; that of the last law is the least g, with the detail the
    constructor gives.
    """
    u = Universe("G", elements)
    m, idu = triples_rel(u, u, u, table), identity(u)
    s = FinRel(u, u, [(inverse[x], x) for x in u])
    e = FinRel(ONE, u, [(x, "1") for x in units])
    sides = {  # each law's two sides, built when it is reached
        "m(mxid)=m(idxm)": lambda: (
            compose(m, product(m, idu)),
            compose(m, product(idu, m)),
        ),
        "m(exid)=id": lambda: (compose(m, product(e, idu)), unitor_left(u)),
        "m(idxe)=id": lambda: (compose(m, product(idu, e)), unitor_right(u)),
        "s2=id": lambda: (compose(s, s), idu),
        "sm=m.flip(sxs)": lambda: (
            compose(s, m),
            compose(m, compose(flip(u, u), product(s, s))),
        ),
    }
    for law, built in sides.items():
        offender = first_difference(*built())
        if offender is not None:
            return law, offender, ""
    for g in u:
        products = m.outputs(pair_name(inverse[g], g))
        if not products:
            return "m(s(g),g)-in-units", g, "product undefined"
        stray = sorted(set(products) - set(units))
        if stray:
            return "m(s(g),g)-in-units", g, f"{stray[0]!r} is not a unit"
    return None


def morphism_relational_verdict(source, target, graph):
    """(law, offender) of the first morphism law the graph breaks, in
    the checked constructor's order, or None when all hold.

    Each law is decided as it reads, on relations built in full: h from
    the graph and both sides of hm = m'(hxh), hs = s'h and he = e' by
    compose and product.  The offender is the sorted-least pair on
    which the sides differ.
    """
    h = FinRel(source.elements, target.elements, graph)
    sides = {  # each law's two sides, built when it is reached
        "hm=m'(hxh)": lambda: (
            compose(h, source.m_rel),
            compose(target.m_rel, product(h, h)),
        ),
        "hs=s'h": lambda: (compose(h, source.s_rel), compose(target.s_rel, h)),
        "he=e'": lambda: (compose(h, source.e_rel), target.e_rel),
    }
    for law, built in sides.items():
        offender = first_difference(*built())
        if offender is not None:
            return law, offender
    return None


def subgroupoid_loop(groupoid, members):
    """Whether members is closed under inverse and multiplication, by
    the direct loop over the members."""
    ms = set(members)
    if not ms <= set(groupoid.elements):
        return False
    for g in ms:
        if groupoid.inverse[g] not in ms:
            return False
    for a in ms:
        for b in ms:
            c = groupoid.mult(a, b)
            if c is not None and c not in ms:
                return False
    return True


def morphism_violation(h):
    """First classical law a validated morphism breaks, or None.

    Reads the graph of h and checks it, and the data h derived from
    it, against the classical picture: a unique base map on units, a
    domain that is a union of transitive components, a wide image,
    single-valued fiber maps and the kernel.
    """
    src, tgt = h.source, h.target
    src_units, tgt_units = set(src.units), set(tgt.units)
    outputs = {}
    for d, g in h.graph:
        outputs.setdefault(g, set()).add(d)
    rho = {}
    for f in tgt.units:
        cands = {e for d, e in h.graph if d == f and e in src_units}
        if len(cands) != 1:
            return "base-map"
        (rho[f],) = cands
    if h.base_map != rho:
        return "base-map"
    expected = {g for g in src.elements if src.e_right(g) in set(rho.values())}
    if set(outputs) != expected or h.domain_elements != expected:
        return "domain-components"
    image = {d for d, _ in h.graph}
    wide = tgt_units <= image and tgt.is_subgroupoid(image)
    if not wide or h.image_elements != image:
        return "image-wide"
    for unit, fiber_map, law in (
        (Groupoid.e_right, fiber_map_right, "fiber-right"),
        (Groupoid.e_left, fiber_map_left, "fiber-left"),
    ):
        for f in tgt.units:
            fiber = {}
            for g in src.elements:
                if unit(src, g) != rho[f]:
                    continue
                hits = [d for d in outputs.get(g, ()) if unit(tgt, d) == f]
                if len(hits) != 1:
                    return law
                fiber[g] = hits[0]
            if fiber_map(h, f) != fiber:
                return law
    kernel = {g for g, ds in outputs.items() if ds <= tgt_units}
    if h.kernel_members != kernel:
        return "kernel"
    return None


def action_violation(a):
    """First classical law a validated action breaks, or None.

    Checks the triples of a, and the data a derived from them, against
    the classical picture: a base map rho on the carrier, the domain
    {(g, x): e_R(g) = rho(x)}, moved points over e_L(g), and a partial
    map that is single-valued and inverted by s.
    """
    g, triples = a.groupoid, set(a.triples)
    rho = {}
    for x in a.carrier:
        hits = [e for e in g.units if (x, e, x) in triples]
        if len(hits) != 1:
            return "action-base-map"
        rho[x] = hits[0]
    if a.base_map != rho:
        return "action-base-map"
    expected = {
        (gamma, x)
        for gamma in g.elements
        for x in a.carrier
        if g.e_right(gamma) == rho[x]
    }
    if {(gamma, x) for _, gamma, x in triples} != expected or a.domain != expected:
        return "action-domain"
    moved = {}
    for y, gamma, x in sorted(triples):
        if rho[y] != g.e_left(gamma):
            return "action-left-unit"
        if (x, g.inverse[gamma], y) not in triples:
            return "action-symmetry"
        if moved.setdefault((gamma, x), y) != y or a.apply(gamma, x) != y:
            return "action-single-valued"
    return None


def _outputs(h) -> dict:
    """g -> the set of outputs of g, read off the graph of h."""
    outputs = {}
    for d, g in h.graph:
        outputs.setdefault(g, set()).add(d)
    return outputs


def _kernel_of(h) -> set:
    """The domain elements h sends only to units."""
    units = set(h.target.units)
    return {g for g, ds in _outputs(h).items() if ds <= units}


def kernel_violation(h, members):
    """First law the kernel `members` of h breaks, or None: the domain
    elements sent only to units, holding the domain's units, inside the
    isotropy bundle, closed under inverse and product, and normal."""
    src = h.source
    if set(members) != _kernel_of(h):
        return "kernel-members"
    if not {e for e in src.units if e in _outputs(h)} <= set(members):
        return "kernel-units"
    if any(src.e_left(g) != src.e_right(g) for g in members):
        return "kernel-isotropy"
    if not subgroupoid_loop(src, members):
        return "kernel-subgroupoid"
    for g in src.elements:
        for k in members:
            gk = src.mult(g, k)
            if gk is not None and src.mult(gk, src.inverse[g]) not in members:
                return "kernel-normal"
    return None


def group_classification_violation(h, e0, hom):
    """First law the classification (e0, hom) of h, a morphism into a
    group, breaks, or None: e0 is a unit alone in its orbit, hom is a
    homomorphism on its isotropy group, keyed in name order, and the
    graph of h is exactly hom's."""
    src, tgt = h.source, h.target
    if len(tgt.units) != 1 or e0 not in src.units:
        return "group-base"
    if any((src.e_left(g) == e0) != (src.e_right(g) == e0) for g in src.elements):
        return "group-orbit"
    iso = {g for g in src.elements if src.e_left(g) == e0 == src.e_right(g)}
    if list(hom) != sorted(iso):
        return "group-domain"
    if set(h.graph) != {(d, g) for g, d in hom.items()}:
        return "group-graph"
    for a in iso:
        for b in iso:
            if hom[src.mult(a, b)] != tgt.mult(hom[a], hom[b]):
                return "group-hom"
    return None


def factorization_violation(h, epi, mono):
    """First law the factorization h = mono after epi breaks, or None:
    the shapes match, epi is onto, mono's kernel is its source's units,
    and the composite, joined pair by pair, is h."""
    if (epi.source, epi.target, mono.target) != (h.source, mono.source, h.target):
        return "factor-shape"
    if {d for d, _ in epi.graph} != set(epi.target.elements):
        return "factor-epi"
    if _kernel_of(mono) != set(mono.source.units):
        return "factor-mono"
    outs = _outputs(mono)
    composite = {(d2, g) for d1, g in epi.graph for d2 in outs.get(d1, ())}
    if composite != set(h.graph):
        return "factor-composite"
    return None


def pairing_violation(p1, p2, paired):
    """First law the pairing of p1 and p2 breaks, or None: the tags "L:"
    and "R:" split its graph into p1's and p2's."""
    if paired.source != p1.source:
        return "pairing-source"
    parts = {"L": set(), "R": set()}
    for d, g in paired.graph:
        tag, _, name = d.partition(":")
        if tag not in parts:
            return "pairing-tags"
        parts[tag].add((name, g))
    if parts["L"] != set(p1.graph) or parts["R"] != set(p2.graph):
        return "pairing-projections"
    return None


def separating_violation(groupoid, members, probe, k1, k2):
    """First law a separating pair breaks, or None: k1 and k2 run from
    the groupoid to the probe, agree on `members` and differ."""
    for k in (k1, k2):
        if (k.source, k.target) != (groupoid, probe):
            return "separating-shape"
    inside = [{(d, g) for d, g in k.graph if g in members} for k in (k1, k2)]
    if inside[0] != inside[1]:
        return "separating-agreement"
    if set(k1.graph) == set(k2.graph):
        return "separating-distinct"
    return None


def decomposition_violation(groupoid, base, table, phi):
    """First law the decomposition phi of a transitive groupoid breaks,
    or None: phi is a bijection from the names x|g|y onto the elements,
    phi(x|g|y) runs from y to x, and phi(x|g|y) phi(y|h|z) =
    phi(x|gh|z)."""
    keys = [(x, g, y) for x in base for g in table.elements for y in base]
    if set(phi) != {f"{x}|{g}|{y}" for x, g, y in keys}:
        return "decomposition-names"
    if sorted(phi.values()) != sorted(groupoid.elements):
        return "decomposition-bijective"
    for x, g, y in keys:
        a = phi[f"{x}|{g}|{y}"]
        if (groupoid.e_left(a), groupoid.e_right(a)) != (x, y):
            return "decomposition-units"
        for h in table.elements:
            for z in base:
                b, c = phi[f"{y}|{h}|{z}"], phi[f"{x}|{table.mult(g, h)}|{z}"]
                if groupoid.mult(a, b) != c:
                    return "decomposition-product"
    return None


def quotient_violation(groupoid, members, quotient, pi):
    """First law the quotient by `members` breaks, or None: pi is a map
    onto the quotient whose classes are the cosets s(a)b in members, the
    quotient is a groupoid, and pi carries units, inverses and products
    over."""
    proj = {g: d for d, g in pi.graph}
    if len(proj) != len(pi.graph) or set(proj) != set(groupoid.elements):
        return "quotient-map"
    if set(proj.values()) != set(quotient.elements):
        return "quotient-onto"
    for a in groupoid.elements:
        for b in groupoid.elements:
            coset = groupoid.mult(groupoid.inverse[a], b) in members
            if (proj[a] == proj[b]) != coset:
                return "quotient-classes"
    q = quotient
    if groupoid_violation(q.elements, q.units, q.inverse, q.table) is not None:
        return "quotient-groupoid"
    if set(q.units) != {proj[e] for e in groupoid.units}:
        return "quotient-units"
    if any(q.inverse[proj[g]] != proj[groupoid.inverse[g]] for g in groupoid.elements):
        return "quotient-inverse"
    if any(q.mult(proj[a], proj[b]) != proj[c] for c, a, b in groupoid.table):
        return "quotient-product"
    return None


def homogeneous_violation(action, section, ref, psi):
    """First law the identification (ref, psi) of a transitive action
    breaks, or None: ref is the stabilizer of the section, and psi is a
    bijection of the carrier onto the cosets of ref, named by their
    least member in brackets, that carries the action to left
    multiplication of cosets."""
    g, triples = action.groupoid, set(action.triples)
    stab = {
        gamma
        for gamma in g.elements
        if (section[g.e_left(gamma)], gamma, section[g.e_right(gamma)]) in triples
    }
    if ref.members != stab:
        return "homogeneous-stabilizer"
    coset = {
        a: {b for b in g.elements if g.mult(g.inverse[a], b) in stab}
        for a in g.elements
    }
    label = {a: f"[{min(c)}]" for a, c in coset.items()}
    if set(psi) != set(action.carrier):
        return "homogeneous-domain"
    if len(set(psi.values())) != len(psi) or set(psi.values()) != set(label.values()):
        return "homogeneous-bijective"
    for y, delta, x in triples:
        for gamma in g.elements:
            if label[gamma] == psi[x] and label.get(g.mult(delta, gamma)) != psi[y]:
                return "homogeneous-intertwine"
    return None


def classification_violation(space, table, action, fiber, fiber_act, psi):
    """First law the normal form (fiber, fiber_act, psi) of an action of
    the product form space x table x space breaks, or None: fiber is
    the points over one unit e0|1|e0, fiber_act is the group action
    there of the e0|g|e0, and psi is a bijection of the pairs (e, z)
    onto the carrier carrying the standard action (x|g|y)(y, z) =
    (x, gz) to the action."""
    triples = set(action.triples)
    base = {
        x: e for x in action.carrier for e in space
        if (x, f"{e}|{table.unit}|{e}", x) in triples
    }
    if not fiber.names:
        return "classification-fiber"
    e0 = base[fiber.names[0]]
    if list(fiber) != sorted(x for x, e in base.items() if e == e0):
        return "classification-fiber"
    if set(fiber_act) != {(g, z) for g in table.elements for z in fiber}:
        return "classification-fiber-action"
    for (g, z), y in fiber_act.items():
        if (y, f"{e0}|{g}|{e0}", z) not in triples:
            return "classification-fiber-action"
    for z in fiber:
        if fiber_act[(table.unit, z)] != z:
            return "classification-fiber-action"
        for g in table.elements:
            for h in table.elements:
                moved = fiber_act[(g, fiber_act[(h, z)])]
                if moved != fiber_act[(table.mult(g, h), z)]:
                    return "classification-fiber-action"
    if set(psi) != {pair_name(e, z) for e in space for z in fiber}:
        return "classification-domain"
    if sorted(psi.values()) != sorted(action.carrier):
        return "classification-bijective"
    for x in space:
        for y in space:
            for (g, z), gz in fiber_act.items():
                arrow = f"{x}|{g}|{y}"
                if (psi[pair_name(x, gz)], arrow, psi[pair_name(y, z)]) not in triples:
                    return "classification-intertwine"
    return None


def ad_violation(groupoid, members, h):
    """First law Ad of the bisection `members` breaks, or None: h sends
    each g to the one d with d b_r = b_l g, where b_l and b_r are the
    members whose right units are g's left and right units, h is a
    bijection, and its kernel is the units."""
    by_right = {groupoid.e_right(b): b for b in members}
    outputs = _outputs(h)
    for g in groupoid.elements:
        if len(outputs.get(g, ())) != 1:
            return "ad-single-valued"
        (d,) = outputs[g]
        left = groupoid.mult(by_right[groupoid.e_left(g)], g)
        if groupoid.mult(d, by_right[groupoid.e_right(g)]) != left:
            return "ad-conjugation"
    if sorted(d for d, _ in h.graph) != sorted(groupoid.elements):
        return "ad-bijective"
    if _kernel_of(h) != set(groupoid.units):
        return "ad-mono"
    return None


def actions_direct_reference(groupoid, carrier):
    """Every action of the groupoid on the carrier, in the order the
    direct enumerator must keep: base maps in product order, and for
    each one every full evaluation table in the product order of the
    sorted slots, tested against the compatibility law after it is
    built."""
    units = sorted(groupoid.units)
    points = sorted(carrier.elements)
    # the left factors of each g2, as (g1, g1 g2): the composable pairs
    left_factors = {g: [] for g in groupoid.elements}
    for c, g1, g2 in groupoid.table:
        left_factors[g2].append((g1, c))
    results = []
    for combo in itertools.product(units, repeat=len(points)):
        rho = dict(zip(points, combo))
        slots = sorted(
            (g, x)
            for g in groupoid.elements
            for x in points
            if groupoid.e_right(g) == rho[x]
        )
        cand = []
        for g, x in slots:
            if g == rho[x]:
                cand.append((x,))
            else:
                cand.append(
                    tuple(y for y in points if rho[y] == groupoid.e_left(g))
                )
        if any(not c for c in cand):
            continue
        for values in itertools.product(*cand):
            phi = dict(zip(slots, values))
            if all(
                phi[(g1, y)] == phi[(prod, x)]
                for (g2, x), y in phi.items()
                for g1, prod in left_factors[g2]
            ):
                results.append(
                    classical_to_relational(groupoid, carrier, rho, phi)
                )
    return results


def naive_candidates(source, target):
    """Every candidate graph of the naive morphism enumerator, in its
    order, rebuilt here from the lattice's definition.

    Unit profiles come first: each unit input of the source emits a
    subset of the target units, and together they emit them all.  For
    each profile the candidates run over the product of the choices of
    the representatives g (the non-units with g <= s(g), in name
    order): an output set for g, with s(g) sent to its s'-image, or,
    for an involution g, a union of the sets {d, s'(d)}.  Each g's
    output sets are tried in sorted order."""

    def subsets(items):
        items = sorted(items)
        return [
            c for r in range(len(items) + 1) for c in itertools.combinations(items, r)
        ]

    tgt, tgt_units = sorted(target.elements), sorted(target.units)
    s_inv, t_inv = source.inverse, target.inverse
    choices = []
    for g in sorted(source.elements):
        if g in source.units or s_inv[g] < g:
            continue
        if s_inv[g] == g:
            blocks = {tuple(sorted({d, t_inv[d]})) for d in tgt}
            opts = [tuple(sorted(itertools.chain(*c))) for c in subsets(blocks)]
        else:
            opts = subsets(tgt)
        choices.append(
            [
                [(d, g) for d in outs]
                + ([(t_inv[d], s_inv[g]) for d in outs] if s_inv[g] != g else [])
                for outs in sorted(opts)
            ]
        )
    units = sorted(source.units)
    for combo in itertools.product(subsets(tgt_units), repeat=len(units)):
        if set(itertools.chain(*combo)) != set(tgt_units):
            continue
        unit_pairs = [(d, e) for e, outs in zip(units, combo) for d in outs]
        for picks in itertools.product(*choices):
            yield list(itertools.chain(unit_pairs, *picks))


def edit_rows(draw, rows, alphabets):
    """Apply one random edit to the list `rows` in place: delete a row,
    insert one, or change one entry of one, drawing entry i from
    alphabets[i].  `draw` is a Hypothesis draw function."""
    edit = draw(st.sampled_from(("delete", "insert", "change")))
    if edit == "insert" or not rows:
        rows.append(tuple(draw(st.sampled_from(a)) for a in alphabets))
    elif edit == "delete":
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    else:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(alphabets) - 1))
        row = list(rows[i])
        row[j] = draw(st.sampled_from(alphabets[j]))
        rows[i] = tuple(row)


SMALL_GROUPS = [cyclic_table(n) for n in range(1, 7)]
SMALL_GROUPS += [klein_table(), symmetric_table(3)]


@st.composite
def generated_groupoids(draw, max_size=18):
    """A groupoid made of 1-3 components X x G x X, with |X| <= 3, G
    among Z1-Z6, V4 and S3 and at most `max_size` elements in all.

    Its elements are renamed by a drawn bijection, and it is built
    through validate_groupoid.  About half land on a product universe
    of the names with a one-point factor, whose index order is not its
    name order: "0+,0" sorts before "0,0", as in the apart_indexed
    fixture."""
    parts, size = [], 0
    for _ in range(draw(st.integers(1, 3))):
        fits = [
            (n, t) for n in (1, 2, 3) for t in SMALL_GROUPS
            if size + n * n * len(t) <= max_size
        ]
        if not fits:
            break
        n, table = draw(st.sampled_from(fits))
        parts.append(product_form(Universe(f"X{n}", "xyz"[:n]), table))
        size += n * n * len(table)
    whole = parts[0]
    for part in parts[1:]:
        whole = disjoint_union(whole, part)
    labels = Universe("L", [f"{i // 2}{'+' * (i % 2)}" for i in range(size)])
    if draw(st.booleans()):
        universe = product_universe(labels, Universe("R", ("0",)))
    else:
        universe = labels
    rename = dict(zip(whole.elements, draw(st.permutations(universe.names))))
    return renamed(whole, rename, universe, f"gen({'+'.join(p.name for p in parts)})")


def renamed(groupoid, rename, elements, name):
    """The groupoid with each element g named rename[g], on `elements`,
    built through validate_groupoid."""
    return validate_groupoid(
        name,
        elements,
        [rename[e] for e in groupoid.units],
        {rename[g]: rename[h] for g, h in groupoid.inverse.items()},
        [tuple(map(rename.__getitem__, row)) for row in groupoid.table],
    )
