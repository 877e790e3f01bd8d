"""Exhaustive enumeration of morphisms and actions, plus witness hunting.

The two morphism enumerators are deliberately independent oracles.  The
naive one walks a candidate lattice factored by the unit and involution
laws and decides every candidate by the law left, hm = m'(hxh).  Each
choice's share of the graph is built once per call as mask rows (input
index -> bit mask of output indices); the choices' inputs are disjoint,
so a candidate's rows are its choices' rows merged.  The law is decided
on those rows by morphism._hm_refutation, as Morphism(...) decides it,
against one memo per call of the target's products of output masks.
The pair (x, y) that refuted the last candidate is compared first;
consecutive candidates differ in their last choices, so it mostly
refutes again.  This orders a candidate's comparisons and prunes none:
every candidate is examined and decided.  Only a survivor's rows are
named, and validated in full by Morphism(...), from the names.  The
structured one rebuilds candidates as mask rows from base maps and
single-fiber data, forced on index rows, each decided by
Morphism._checked against one memo per call and held as those rows.
Tests require their outputs to agree.

The two action enumerators are independent in the same way: one goes
through morphisms into the pair groupoid, the other is classical and
reads only the groupoid's table.  The classical one searches each base
map's evaluation table depth first with forward checking (Haralick and
Elliott, Artificial Intelligence 14, 1980).  A compatibility
constraint phi(g1, phi(g2, x)) = phi(g1 g2, x) is tested once its last
slot is set.  So no table that breaks a law survives, and no lawful
table is cut, since a cut needs a constraint that already fails on set
slots.  Slots are set in sorted order, each trying its values in
order, so the results come in the order of the full product of slot
values that an exhaustive filter would give.
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
from .morphism import _hm_refutation, _rows_rel
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
    set of g).  Every one is decided by hm = m'(hxh) on its mask rows,
    with the function Morphism(...) uses, so a refused candidate builds
    no relation, morphism or exception; each survivor is validated in
    full by Morphism(...).
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
    s_index, t_index = source.elements.index, target.elements.index

    def mask(outs):
        return sum(1 << t_index[d] for d in outs)

    reps = [
        g
        for g in sorted(source.elements)
        if g not in unit_set and not source.inverse[g] < g
    ]
    # each choice's share of the graph, built once as mask rows (input
    # -> bit mask of outputs, no zero mask): g and, unless g is an
    # involution, s(g) sent to the s'-image of g's outputs
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
            rows = {s_index[g]: mask(outs)} if outs else {}
            if sg != g and outs:
                rows[s_index[sg]] = mask(target.inverse[d] for d in outs)
            chunks.append(rows)
        rep_chunks.append(chunks)

    found = []
    examined = 0
    memo = {}  # products of output masks in the target, shared by candidates
    refuted = None  # the pair that refuted the last candidate
    for profile in _unit_profiles(src_units, target.units):
        unit_rows = {s_index[e]: mask(outs) for e, outs in profile.items() if outs}
        for combo in itertools.product(*rep_chunks):
            examined += 1
            if examined > budget.max_candidates and not budget.override:
                raise BudgetExceeded(
                    f"examined {examined} candidates, "
                    f"cap is {budget.max_candidates}"
                )
            # the choices' inputs are disjoint, so their rows just merge
            rows = dict(unit_rows)
            for fragment in combo:
                rows.update(fragment)
            refuted = _hm_refutation(rows, source, target, memo, refuted)
            if refuted is not None:
                continue
            graph = _rows_rel(source, target, rows).graph
            found.append(Morphism(source, target, graph))
    found.sort(key=lambda h: sorted(h.graph))
    return found


def _surjections(domain, codomain):
    domain = sorted(domain)
    codomain = sorted(codomain)
    full = set(codomain)
    for combo in itertools.product(codomain, repeat=len(domain)):
        if set(combo) == full:
            yield dict(zip(domain, combo))


class _FiberSearch:
    """Consistent output tables on the right fiber over a unit e0 of the
    source, for one base map at a time (`tables`).

    Forcing propagates products against the isotropy group at e0 and
    the matching inverse slots; every surviving table extends to a
    candidate graph.  What depends only on the fiber is read here once,
    on element indices: the fiber positions of products g x with x in
    the isotropy group, and of inverses.  The target's rows, inverses
    and left units are its own index lists.
    """

    def __init__(self, source, target, e0, fiber):
        self.e0, self.fiber = e0, fiber
        self.t_index = t_index = target.elements.index
        if len(fiber) == 1:  # e0 alone: its one table is e0 -> f on F0
            return
        s_index = source.elements.index
        self.t_rows, self.t_inv, self.t_left = target._rows, target._inv, target._left
        # (index, left unit) of the targets from each unit, in name order
        self.ending = {f: [] for f in target.units}
        for d, left, right in sorted(target._named_ends()):
            self.ending[right].append((t_index[d], left))
        fpos = {s_index[g]: i for i, g in enumerate(fiber)}
        self.lefts = [source.e_left(g) for g in fiber]
        self.iso = [i for i, eL in enumerate(self.lefts) if eL == e0]
        self.inv_of = {x: fpos[source._inv[s_index[fiber[x]]]] for x in self.iso}
        # times[g][x] is the fiber position of g x, x in the isotropy group
        s_rows = source._rows
        self.times = [
            {x: fpos[s_rows[s_index[g]][s_index[fiber[x]]]] for x in self.iso}
            for g in fiber
        ]

    def tables(self, rho, F0):
        """The tables for base map rho, on the slots (g, f) for f in F0.

        A table is a list of target element indices.  Slot (g, f) is
        numbered g * len(F0) + f by the positions of g in the fiber and f
        in `F0`, so slot order is sorted key order.  A newly set slot is
        pushed on a worklist and, when popped, fires every forcing rule
        it is a premise of whose other premise is set; the forced closure
        is the same in any firing order, and so is a conflict.  The walk
        undoes its trial values off a trail instead of copying the table.
        """
        if len(self.fiber) == 1:
            return [[self.t_index[f] for f in F0]]
        t_index, t_rows = self.t_index, self.t_rows
        t_inv, t_left = self.t_inv, self.t_left
        iso, inv_of, times = self.iso, self.inv_of, self.times
        nf = len(F0)
        # the F0 position of each unit in F0; every value of an isotropy
        # slot has its left unit there
        f_at = {t_index[f]: i for i, f in enumerate(F0)}
        units = [t_index[f] for f in F0]
        # the values of (g, f): f itself for g = e0, else the d from f to
        # a unit over e_L(g) in name order, found once per (e_L(g), f)
        by_ends = {}
        cands, allowed = [], []
        for g, eL in zip(self.fiber, self.lefts):
            for f in F0:
                if g == self.e0:
                    opts = (t_index[f],)
                    opt_set = frozenset(opts)
                elif (eL, f) in by_ends:
                    opts, opt_set = by_ends[(eL, f)]
                else:
                    opts = tuple(d for d, e in self.ending[f] if rho[e] == eL)
                    opt_set = frozenset(opts)
                    by_ends[(eL, f)] = opts, opt_set
                cands.append(opts)
                allowed.append(opt_set)
        if not all(cands):  # a slot no value can fill, forced or tried
            return []
        n = len(cands)
        asg = [-1] * n
        trail, work = [], []

        def put(s, d):
            cur = asg[s]
            if cur < 0:
                if d not in allowed[s]:
                    return False
                asg[s] = d
                trail.append(s)
                work.append(s)
                return True
            return cur == d

        def force():
            while work:
                s = work.pop()
                g, f = divmod(s, nf)
                d = asg[s]
                if g in inv_of:  # g is in the isotropy group
                    # (g, f) as (x, f): its inverse slot, and (g' x, f)
                    # from every set (g', f1)
                    f1 = f_at[t_left[d]]
                    if not put(inv_of[g] * nf + f1, t_inv[d]):
                        return False
                    for g2, row in enumerate(times):
                        dg = asg[g2 * nf + f1]
                        if dg >= 0 and not put(row[g] * nf + f, t_rows[dg][d]):
                            return False
                # (g, f) as (g, f1): (g x, f2) from every set (x, f2) over f
                row, unit = times[g], units[f]
                for x in iso:
                    for f2 in range(nf):
                        dx = asg[x * nf + f2]
                        if (
                            dx >= 0
                            and t_left[dx] == unit
                            and not put(row[x] * nf + f2, t_rows[d][dx])
                        ):
                            return False
            return True

        def undo(mark):
            for s in trail[mark:]:
                asg[s] = -1
            del trail[mark:]
            work.clear()

        def unset(idx):
            while idx < n and asg[idx] >= 0:
                idx += 1
            return idx

        e = self.fiber.index(self.e0)
        for f, unit in enumerate(units):
            put(e * nf + f, unit)
        if not force():
            return []
        # the walk, depth first: each level is [its slot, the next value
        # to try, the trail length on entry]; a plain loop, so no closure
        # holds itself and the tables are freed when the call returns
        results = []
        levels = [[unset(0), 0, len(trail)]]
        while levels:
            level = levels[-1]
            idx, i, mark = level
            if idx == n:
                results.append(asg[:])
                levels.pop()
                continue
            undo(mark)
            if i == len(cands[idx]):
                levels.pop()
                continue
            level[1] = i + 1
            put(idx, cands[idx][i])
            if force():
                levels.append([unset(idx + 1), 0, len(trail)])
        return results


def enum_morphisms(source: Groupoid, target: Groupoid) -> list:
    """Every morphism from source to target, assembled structurally.

    Candidates are built from a choice of source orbits, a base map
    onto their units, and one output table per component on the right
    fiber over the least unit.  A member g, with g2 the path to e_R(g)
    and g1 = g g2, gets the mask of the h(g1) h(g2)^-1 over the table's
    units.  Morphism._checked decides each reconstruction, with one memo
    per call of the target's products of output masks.
    """
    orbit_blocks = source.orbits()
    tgt_units = sorted(target.units)
    t_rows, t_inv = target._rows, target._inv
    # per orbit, on first use: its least unit e0, each member's index
    # with the fiber positions of g1 and g2, and the fiber search over e0
    shapes = {}

    def shape(i):
        if i not in shapes:
            e0 = min(orbit_blocks[i])
            fiber = sorted(g for g in source.elements if source.e_right(g) == e0)
            pos = {g: p for p, g in enumerate(fiber)}
            path = {source.e_left(g): g for g in reversed(fiber)}  # least per unit
            members = [
                (source._index[g], pos[source.mult(g, path[e])], pos[path[e]])
                for g, _, e in source._named_ends()
                if e in path
            ]
            search = _FiberSearch(source, target, e0, fiber)
            shapes[i] = e0, members, search
        return shapes[i]

    found = []
    memo = {}  # products of output masks in the target, shared by candidates
    # mask 0 chooses no orbit: the empty graph, which is a morphism
    # exactly when the target has no units
    for mask in range(2 ** len(orbit_blocks)):
        chosen = [i for i in range(len(orbit_blocks)) if mask >> i & 1]
        pool = sorted(itertools.chain.from_iterable(orbit_blocks[i] for i in chosen))
        for rho in _surjections(tgt_units, pool):
            comp = []
            for i in chosen:
                e0, members, search = shape(i)
                F0 = sorted(f for f in tgt_units if rho[f] == e0)
                opts = search.tables(rho, F0)
                if not opts:
                    comp = None
                    break
                comp.append((members, len(F0), opts))
            if comp is None:
                continue
            for combo in itertools.product(*[c[2] for c in comp]):
                rows = {}
                for (members, nf, _), table in zip(comp, combo):
                    for x, p1, p2 in members:
                        mx = 0
                        for f in range(nf):
                            d1, d2 = table[p1 * nf + f], table[p2 * nf + f]
                            mx |= 1 << t_rows[d1][t_inv[d2]]
                        rows[x] = mx
                try:
                    found.append(Morphism._checked(source, target, rows, memo))
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


def _lawful_tables(slots, cand, left_factors):
    """The value tuples of itertools.product(*cand), in its order, whose
    table phi on `slots` keeps phi(g1, phi(g2, x)) = phi(g1 g2, x).

    The constraint of (g2, x), a value y of it and a left factor g1 of
    g2 reads: if phi(g2, x) = y, then phi(g1, y) = phi(g1 g2, x).  A
    slot with one value, such as (rho(x), x), is set before the search.
    Each constraint is filed under the last of its three slots to be
    set, by the role that slot plays (g2, g1 or the product), and
    tested when that slot is set: so every constraint of a full table
    is tested, and a partial table is cut only when a constraint on its
    set slots already fails, which no extension can mend.  Slots are
    set depth first in order, each trying its values in order, which is
    the product's order.

    In a groupoid, a constraint filed under its product slot follows
    from two filed under the other roles once the unit slots are set,
    through phi(s(g1), phi(g1 g2, x)) = phi(g2, x) and phi(g1,
    phi(s(g1), w)) = w.  So the product role changes no result, but it
    cuts early: without it Z6 on four points takes seconds, not
    milliseconds.
    """
    pos = {slot: k for k, slot in enumerate(slots)}
    # a slot with one value keeps it and has rank -1; the others are free
    val = [c[0] for c in cand]
    free = [k for k, c in enumerate(cand) if len(c) > 1]
    rank = [-1] * len(slots)
    for k in free:
        rank[k] = k
    # as_g2[k][y]: (a, b) to agree once slot k holds y; as_g1[k] and
    # as_prod[k]: (s, y, b) such that slot b agrees with k if s holds y
    as_g2 = {k: {} for k in free}
    as_g1 = {k: [] for k in free}
    as_prod = {k: [] for k in free}
    for s, (g2, x) in enumerate(slots):
        for y in cand[s]:
            for g1, c in left_factors[g2]:
                a, b = pos[(g1, y)], pos[(c, x)]
                if a == b:
                    continue
                last = max(rank[s], rank[a], rank[b])
                if last < 0:  # every slot has one value
                    if val[s] == y and val[a] != val[b]:
                        return
                elif rank[s] == last:
                    as_g2[s].setdefault(y, []).append((a, b))
                elif rank[a] == last:
                    as_g1[a].append((s, y, b))
                else:
                    as_prod[b].append((s, y, a))

    def fits(k, v):
        for a, b in as_g2[k].get(v, ()):
            if val[a] != val[b]:
                return False
        for checks in (as_g1[k], as_prod[k]):
            for s, y, b in checks:
                if val[s] == y and val[b] != v:
                    return False
        return True

    # depth first over the free slots, in slot order
    choice = [-1] * len(free)
    level = 0
    while level >= 0:
        if level == len(free):
            yield tuple(val)
            level -= 1
            continue
        k = free[level]
        opts = cand[k]
        i = choice[level] + 1
        while i < len(opts):
            val[k] = opts[i]
            if fits(k, opts[i]):
                break
            i += 1
        if i < len(opts):
            choice[level] = i
            level += 1
        else:
            choice[level] = -1
            level -= 1


def enum_actions_direct(groupoid: Groupoid, carrier: Universe) -> list:
    """Every action, by direct search over base maps and evaluation tables.

    Independent of the morphism enumerators: candidates are classical
    (base map, partial evaluation) pairs checked against the unit and
    compatibility laws, the latter over the composable pairs of the
    groupoid's table only, then re-expressed relationally.  For each
    base map the evaluation table is searched depth first with forward
    checking (`_lawful_tables`): a compatibility constraint is tested
    once its last slot is set, so no table that breaks a law survives
    and no lawful table is cut, and the results come in the
    lexicographic slot order of the full product of slot values.
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
        for values in _lawful_tables(slots, cand, left_factors):
            phi = dict(zip(slots, values))
            results.append(
                classical_to_relational(groupoid, carrier, rho, phi)
            )
    return results


def proof_probes(groupoid: Groupoid) -> list:
    """Probe groupoids shaped like the cancellation arguments: set
    groupoids on orbit markers and subgroups of marker isotropy groups.

    They are built on first use and kept on the groupoid, as its lazy
    index views are; each call returns a fresh list of them."""
    try:
        probes = groupoid._probes
    except AttributeError:
        probes = groupoid._probes = tuple(_build_probes(groupoid))
    return list(probes)


def _build_probes(groupoid: Groupoid) -> list:
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

    if not order:
        return {}
    # depth first in a plain loop, so no closure holds itself; a level is a
    # partial map, its least unmapped x and the images of x left to try
    levels = [({}, {}, order[0], iter(sorted(right.elements)))]
    while levels:
        fwd0, bwd0, x, ys = levels[-1]
        for y in ys:
            if y in bwd0:
                continue
            fwd, bwd = dict(fwd0), dict(bwd0)
            if push(fwd, bwd, x, y):
                break
        else:
            levels.pop()
            continue
        missing = [x for x in order if x not in fwd]
        if not missing:
            return fwd
        levels.append((fwd, bwd, missing[0], iter(sorted(right.elements))))
    return None
