"""Exhaustive enumeration of morphisms and actions, plus witness hunting.

The two morphism enumerators are deliberately independent oracles.  The
naive one walks a candidate lattice factored by the unit and involution
laws and lets validation reject the rest.  Each choice's share of the
graph, its named pairs, is built once per call, and a candidate is the
concatenation of its choices' shares; every candidate is still
validated in full by Morphism(...).  The structured one rebuilds
candidates from base maps and single-fiber data.  Tests require their
outputs to agree.
"""

import itertools

from .action import classical_to_relational, morphism_to_action
from .builders import (
    group_groupoid,
    group_table_of,
    pair_groupoid,
    set_groupoid,
    subgroup_table,
    subgroups_of,
)
from .errors import AxiomViolation, BudgetExceeded, PreconditionFailed
from .groupoid import Groupoid
from .morphism import CancellationWitness, Morphism, compose_morphisms
from .relation import Universe


class EnumBudget:
    """Caps on candidate graph size and on candidates examined."""

    def __init__(self, max_pairs=20, max_candidates=2 ** 20, override=False):
        if max_pairs <= 0 or max_candidates <= 0:
            raise PreconditionFailed("budget caps must be positive")
        self.max_pairs = max_pairs
        self.max_candidates = max_candidates
        self.override = override

    def __repr__(self) -> str:
        return (
            f"EnumBudget(max_pairs={self.max_pairs}, "
            f"max_candidates={self.max_candidates}, override={self.override})"
        )


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _unit_profiles(src_units, tgt_units):
    """Output sets for unit inputs: units only, covering the target units."""
    tgt = sorted(tgt_units)
    options = list(_subsets(tgt))
    for combo in itertools.product(options, repeat=len(src_units)):
        covered = set()
        for chunk in combo:
            covered.update(chunk)
        if covered == set(tgt):
            yield dict(zip(src_units, combo))


def enum_morphisms_naive(source: Groupoid, target: Groupoid, budget=None) -> list:
    """Every morphism from source to target, by filtered exhaustion.

    Candidates range over all graphs satisfying the unit law (unit
    inputs emit exactly the target units collectively) and the
    involution law (the output set of s(g) is the s-image of the output
    set of g); each one is then validated in full.
    """
    budget = budget or EnumBudget()
    pairs = len(target.elements) * len(source.elements)
    if pairs > budget.max_pairs and not budget.override:
        raise BudgetExceeded(
            f"candidate graphs over {pairs} pairs, cap is {budget.max_pairs}"
        )
    src_units = sorted(source.units)
    unit_set = set(src_units)
    tgt_all = sorted(target.elements)

    reps = [
        g
        for g in sorted(source.elements)
        if g not in unit_set and not source.inverse[g] < g
    ]
    # each choice's share of the graph, named once: the pairs (d, g) and
    # (s'(d), s(g)) for each rep g and output set
    rep_chunks = []
    for g in reps:
        sg = source.inverse[g]
        if sg == g:
            blocks = sorted({tuple(sorted({d, target.inverse[d]})) for d in tgt_all})
            opts = [
                tuple(sorted(itertools.chain.from_iterable(combo)))
                for combo in _subsets(blocks)
            ]
        else:
            opts = list(_subsets(tgt_all))
        chunks = []
        for outs in sorted(opts):
            chunk = [(d, g) for d in outs]
            if sg != g:
                chunk += [(target.inverse[d], sg) for d in outs]
            chunks.append(chunk)
        rep_chunks.append(chunks)

    found = []
    examined = 0
    for profile in _unit_profiles(src_units, target.units):
        unit_pairs = [(d, e) for e, outs in profile.items() for d in outs]
        for combo in itertools.product(*rep_chunks):
            examined += 1
            if examined > budget.max_candidates and not budget.override:
                raise BudgetExceeded(
                    f"examined {examined} candidates, "
                    f"cap is {budget.max_candidates}"
                )
            graph = list(itertools.chain(unit_pairs, *combo))
            try:
                found.append(Morphism(source, target, graph))
            except AxiomViolation as err:
                if err.law != "hm=m'(hxh)":
                    raise
    found.sort(key=lambda h: sorted(h.graph))
    return found


def _surjections(domain, codomain):
    domain = sorted(domain)
    codomain = sorted(codomain)
    full = set(codomain)
    for combo in itertools.product(codomain, repeat=len(domain)):
        if set(combo) == full:
            yield dict(zip(domain, combo))


def _fiber_assignments(source, target, rho, e0, fiber, F0):
    """Consistent output tables on the right fiber over e0, keyed (g, f).

    Forcing propagates products against the isotropy group at e0 and
    the matching inverse slots; every surviving table extends to a
    candidate graph.
    """
    iso = [g for g in fiber if source.e_left(g) == e0]
    tgt_sorted = sorted(target.elements)
    cands = {}
    for g in fiber:
        eL = source.e_left(g)
        for f in F0:
            if g == e0:
                cands[(g, f)] = (f,)
            else:
                cands[(g, f)] = tuple(
                    d
                    for d in tgt_sorted
                    if target.e_right(d) == f
                    and rho[target.e_left(d)] == eL
                )
    slots = sorted(cands)

    def force(asg):
        changed = True
        while changed:
            changed = False
            for x in iso:
                for f in F0:
                    dx = asg.get((x, f))
                    if dx is None:
                        continue
                    f1 = target.e_left(dx)
                    sx = source.inverse[x]
                    want = target.inverse[dx]
                    cur = asg.get((sx, f1))
                    if cur is None:
                        if want not in cands[(sx, f1)]:
                            return None
                        asg[(sx, f1)] = want
                        changed = True
                    elif cur != want:
                        return None
                    for g in fiber:
                        gx = source.mult(g, x)
                        dg = asg.get((g, f1))
                        if dg is None:
                            continue
                        want2 = target.mult(dg, dx)
                        cur2 = asg.get((gx, f))
                        if cur2 is None:
                            if want2 not in cands[(gx, f)]:
                                return None
                            asg[(gx, f)] = want2
                            changed = True
                        elif cur2 != want2:
                            return None
        return asg

    results = []

    def walk(asg, idx):
        while idx < len(slots) and slots[idx] in asg:
            idx += 1
        if idx == len(slots):
            results.append(dict(asg))
            return
        slot = slots[idx]
        for d in cands[slot]:
            trial = dict(asg)
            trial[slot] = d
            forced = force(trial)
            if forced is not None:
                walk(forced, idx + 1)

    seed = force({(e0, f): f for f in F0})
    if seed is not None:
        walk(seed, 0)
    return results


def enum_morphisms(source: Groupoid, target: Groupoid) -> list:
    """Every morphism from source to target, assembled structurally.

    Candidates are built from a choice of source orbits, a base map
    onto their units, and one output table per component on the right
    fiber over the least unit; each reconstruction is validated in
    full before being kept.
    """
    orbit_blocks = source.orbits()
    tgt_units = sorted(target.units)
    found = []
    # mask 0 chooses no orbit: the empty graph, which is a morphism
    # exactly when the target has no units
    for mask in range(2 ** len(orbit_blocks)):
        chosen = [
            block
            for i, block in enumerate(orbit_blocks)
            if mask >> i & 1
        ]
        pool = sorted(itertools.chain.from_iterable(chosen))
        for rho in _surjections(tgt_units, pool):
            comp = []
            for block in chosen:
                e0 = min(block)
                fiber = sorted(
                    g for g in source.elements if source.e_right(g) == e0
                )
                F0 = sorted(f for f in tgt_units if rho[f] == e0)
                opts = _fiber_assignments(source, target, rho, e0, fiber, F0)
                if not opts:
                    comp = None
                    break
                block_set = set(block)
                members = sorted(
                    g
                    for g in source.elements
                    if source.e_right(g) in block_set
                )
                path = {
                    e: min(g for g in fiber if source.e_left(g) == e)
                    for e in block
                }
                comp.append((members, path, F0, opts))
            if comp is None:
                continue
            for combo in itertools.product(*[c[3] for c in comp]):
                graph = set()
                for (members, path, F0, _), table in zip(comp, combo):
                    for g in members:
                        g2 = path[source.e_right(g)]
                        g1 = source.mult(g, g2)
                        for f in F0:
                            d1 = table[(g1, f)]
                            d2 = table[(g2, f)]
                            graph.add(
                                (target.mult(d1, target.inverse[d2]), g)
                            )
                try:
                    found.append(Morphism(source, target, graph))
                except AxiomViolation:
                    continue
    found.sort(key=lambda h: sorted(h.graph))
    return found


def enum_actions(groupoid: Groupoid, carrier: Universe) -> list:
    """Every action of the groupoid on the carrier, through the
    correspondence with morphisms into the pair groupoid."""
    pairs = pair_groupoid(carrier)
    return [
        morphism_to_action(h, carrier)
        for h in enum_morphisms(groupoid, pairs)
    ]


def enum_actions_direct(groupoid: Groupoid, carrier: Universe) -> list:
    """Every action, by direct search over base maps and evaluation tables.

    Independent of the morphism enumerators: candidates are classical
    (base map, partial evaluation) pairs checked against the unit and
    compatibility laws, the latter over the composable pairs of the
    groupoid's table only, then re-expressed relationally.
    """
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


def proof_probes(groupoid: Groupoid) -> list:
    """Probe groupoids shaped like the cancellation arguments: set
    groupoids on orbit markers and subgroups of marker isotropy groups."""
    markers = sorted(min(block) for block in groupoid.orbits())
    probes = []
    subsets = [c for c in _subsets(markers) if c]
    subsets.sort(key=lambda t: (len(t), t))
    for combo in subsets:
        space = Universe(f"{groupoid.name}.set({','.join(combo)})", combo)
        probes.append(set_groupoid(space))
    for e in markers:
        table = group_table_of(
            groupoid, groupoid.isotropy(e).members, f"{groupoid.name}.iso@{e}"
        )
        for members in subgroups_of(table):
            sub = subgroup_table(
                table, members, f"{table.name}.sub({','.join(members)})"
            )
            probes.append(group_groupoid(sub))
    return probes


def check_cancellation(h: Morphism, side: str, probes=None, budget=None):
    """Hunt for two enumerated morphisms a probe cannot tell apart
    through h.

    side "left" searches arrows into the source and composes h after
    them; side "right" searches arrows out of the target.  Returns the
    first witness in probe-then-canonical order, or None.  A None on
    the right side is not a proof: no finite probe family is known to
    be complete there.
    """
    budget = budget or EnumBudget()
    if side not in ("left", "right"):
        raise PreconditionFailed(f"unknown cancellation side {side!r}")
    if probes is None:
        probes = proof_probes(h.source if side == "left" else h.target)
    examined = 0
    for probe in probes:
        if side == "left":
            arrows = enum_morphisms(probe, h.source)
        else:
            arrows = enum_morphisms(h.target, probe)
        for w1, w2 in itertools.combinations(arrows, 2):
            examined += 1
            if examined > budget.max_candidates and not budget.override:
                raise BudgetExceeded(
                    f"examined {examined} witness pairs, "
                    f"cap is {budget.max_candidates}"
                )
            if side == "left":
                same = compose_morphisms(h, w1) == compose_morphisms(h, w2)
            else:
                same = compose_morphisms(w1, h) == compose_morphisms(w2, h)
            if same:
                witness = CancellationWitness(
                    probe, w1, w2, "mono" if side == "left" else "epi"
                )
                if not witness.verify(h):
                    raise AxiomViolation(f"derived:{witness.side}-witness", None)
                return witness
    return None


def find_groupoid_isomorphism(left: Groupoid, right: Groupoid):
    """A structure-preserving bijection between element sets, or None."""
    if len(left.elements) != len(right.elements):
        return None
    left_units = set(left.units)
    right_units = set(right.units)
    if len(left_units) != len(right_units):
        return None

    def shape(g):
        return sorted(
            (len(block), len(g.isotropy(min(block)).members))
            for block in g.orbits()
        )

    if shape(left) != shape(right):
        return None
    order = sorted(left.elements)

    def push(fwd, bwd, a, b):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if x in fwd:
                if fwd[x] != y:
                    return False
                continue
            if y in bwd:
                return False
            if (x in left_units) != (y in right_units):
                return False
            fwd[x] = y
            bwd[y] = x
            stack.append((left.inverse[x], right.inverse[y]))
            for x2 in list(fwd):
                y2 = fwd[x2]
                for (a1, a2), (b1, b2) in (
                    ((x, x2), (y, y2)),
                    ((x2, x), (y2, y)),
                ):
                    c = left.mult(a1, a2)
                    d = right.mult(b1, b2)
                    if (c is None) != (d is None):
                        return False
                    if c is not None:
                        stack.append((c, d))
        return True

    def search(fwd, bwd):
        missing = [x for x in order if x not in fwd]
        if not missing:
            return dict(fwd)
        x = missing[0]
        for y in sorted(right.elements):
            if y in bwd:
                continue
            fwd2, bwd2 = dict(fwd), dict(bwd)
            if push(fwd2, bwd2, x, y):
                got = search(fwd2, bwd2)
                if got is not None:
                    return got
        return None

    return search({}, {})
