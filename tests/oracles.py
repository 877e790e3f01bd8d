"""Classical-law oracles for groupoids, morphisms and actions, and the
row edits the fuzz tests feed them.

The constructors of Groupoid, Morphism and Action check only the
relational axioms.  The classical laws below are theorems of those
axioms; these oracles check them directly, element by element, so the
tests can show that no law goes unchecked.  Each oracle returns the
name of the first law broken, or None when every law holds.  One more
oracle, `actions_direct_reference`, is the exhaustive direct action
enumerator, kept for the order its pruned successor must give.
"""

import itertools

from hypothesis import strategies as st

from groupoids.action import classical_to_relational
from groupoids.groupoid import Groupoid
from groupoids.morphism import fiber_map_left, fiber_map_right


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
