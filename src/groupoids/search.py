"""Exhaustive enumeration of morphisms and actions, plus witness hunting.

The two morphism enumerators are deliberately independent oracles.  The
naive one walks a candidate lattice factored by the unit and involution
laws, depth first over its choices (the unit profile, then one choice
per involution class), and filters it by the law left, hm = m'(hxh).
Each choice's share of the graph is built once per call as mask rows
(input index -> bit mask of output indices), on indices alone; the
choices' inputs are disjoint, so a node's rows are its choice's merged
over its parent's.
The pair (x, y) is fixed by the choice that sets the last of x, y and
xy.  After each choice but the last, the pairs it fixes are compared as
morphism._hm_refutation compares them, and one that fails refutes every
candidate below the node, however the later choices are made:
chronological backtracking.  So every candidate is counted against the
budget, and each one is either refuted by a pair its prefix fixes or
reaches its leaf, where the law is decided in full by
morphism._hm_refutation, the function the checked constructor decides
it with.  Both share one memo per call of the target's products of
output masks.  The lattice keeps hs = s'h and he = e' by construction,
so each candidate is decided once: a survivor keeps all three laws and
is held unchecked as the rows it was decided on (Morphism._of_rows).
The structured one builds morphisms as mask rows from base maps and
single-fiber tables, forced on index rows, and holds them unchecked
too.  It makes only base maps that keep fact (a) of enum_morphisms
and tries only tables that keep fact (b), which every morphism keeps,
and each table that keeps both is a morphism's, as argued there.  It
works on unit and element indices end to end: base maps send target
unit indices to source unit indices, and fibers and tables hold element
indices.  What it reads of one groupoid alone is kept on that groupoid.
A source's orbit shapes (each orbit's unit indices and least unit, its
members' fiber positions and the source's half of its _FiberSearch) are
kept on first use (groupoid.py's _kept), as are its base-map combos
per point count where they are few (_moment_maps), its isotropy views,
the probes and a cancellation hunt's arrows, kept as their mask rows:
rows name no groupoid, so nothing kept puts the groupoid in a reference
cycle, and a hunt compares the composites of h with two arrows' rows
on one index space, making morphisms only of the two that witness.  A
target's arrows by right unit are its `_fibers`, the groupoid's own
cached view.
Tests require their outputs to agree.  Both return their morphisms in
the order of sorted(h.graph), with no graph named: the sort key is
relation._rank_key, the sorted (target rank, source rank) pairs of the
rows, where an index's rank is its name's place in sorted order
(Universe._ranks, cached on the universe; a product universe builds its
names once to rank them).  Ranks order as the names do; indices need not, on
a product universe whose index order is not its name order.

The two action enumerators are independent in the same way: one
generates actions from coset spaces, the other is classical and reads
only the groupoid's table.  The generator (enum_actions) builds each
action from what fixes it: a moment map that keeps fact (a), the only
kind it makes, and per component an action of the isotropy group G at
the orbit's least unit on the fiber over it, a union of coset spaces
G/K, with one bijection of fibers along each path from that unit.
Every such choice moves the points as an action, and every action gives
back its own choice, so each action is built exactly once, unchecked
(Action._of_rows).  The actions are the morphisms into
pair_groupoid(carrier), and come in their order, with neither built;
tests hold the generator to that route (action._pair_action of
enum_morphisms) and to a count by the exponential formula for G-sets
(Stanley, Enumerative Combinatorics 2, section 5.1).  The classical one
walks the full product of base maps, as the oracle for the maps the
generator makes, and searches each base map's evaluation table depth
first with forward checking (Haralick and Elliott, Artificial
Intelligence 14, 1980).  A compatibility constraint
phi(g1, phi(g2, x)) = phi(g1 g2, x) is tested once its last slot is
set, and the unit slot (rho(x), x) has the one value x.  So no table
that breaks a law survives, and no lawful table is cut, since a cut
needs a constraint that already fails on set slots; each lawful table
is held unchecked as move rows (Action._of_rows).  Slots are set in
sorted order, each trying its values in order, so the results come in
the order of the full product of slot values that an exhaustive filter
would give.
"""

import itertools
import math
from functools import reduce
from operator import or_

from .action import Action
from .builders import (
    group_groupoid,
    group_table_of,
    set_groupoid,
    subgroup_table,
    subgroups_of,
)
from .errors import AxiomViolation, BudgetExceeded, PreconditionFailed
from .groupoid import Groupoid, _classes, _kept
from .morphism import CancellationWitness, Morphism
from .morphism import _hm_refutation, _mask_product
from .relation import Universe, _bits, _composed_rows, _rank_key, product_universe


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


def enum_morphisms_naive(source: Groupoid, target: Groupoid, budget=None) -> list:
    """Every morphism from source to target, by filtered exhaustion.

    Candidates range over all graphs satisfying the unit law (unit
    inputs emit exactly the target units collectively) and the
    involution law (the output set of s(g) is the s-image of the output
    set of g).  All of them count against `max_candidates`, checked
    before the walk.  Each is refuted on mask rows by a pair (x, y) that
    a prefix of its choices fixes, or decided at its leaf by hm =
    m'(hxh) with the function the checked constructor uses; so a refused
    candidate builds no relation, morphism or exception.  A survivor
    keeps the two laws the lattice is built on as well, so it is a
    morphism and is held as its mask rows, unchecked.
    """
    budget = budget or EnumBudget()
    pairs = len(target.elements) * len(source.elements)
    if pairs > budget.max_pairs and not budget.override:
        raise BudgetExceeded(
            f"candidate graphs over {pairs} pairs, cap is {budget.max_pairs}"
        )
    srows, s_inv, t_inv = source._rows, source._inv, target._inv
    # one non-unit input of each class {x, s(x)}
    reps = [x for x, y in enumerate(s_inv) if x <= y and not source._unit_mask >> x & 1]
    # the mask of the s'-images of each output mask m, from that of m
    # without its low bit; built once per call, and only if a choice reads it
    image = [0]
    for m in range(1, 1 << len(t_inv) if reps else 1):
        low = m & -m
        image.append(image[m ^ low] | 1 << t_inv[low.bit_length() - 1])
    # each choice's share of the graph as mask rows (input -> bit mask of
    # outputs, no zero mask): an involution x sent to an s'-closed mask,
    # else x sent to any mask and s(x) to its s'-image
    closed = [m for m, im in enumerate(image) if m == im]
    rep_chunks = [
        [{x: m} if m else {} for m in closed]
        if x == s_inv[x]
        else [{x: m, s_inv[x]: im} if m else {} for m, im in enumerate(image)]
        for x in reps
    ]

    # level 0 chooses a unit profile: each source unit emits a subset of
    # the target units, and together they emit them all; level k >= 1
    # chooses the outputs of reps[k-1]
    every, unit_idx = target._unit_mask, list(_bits(source._unit_mask))
    unit_masks = [sum(c) for c in _subsets(1 << d for d in _bits(every))]
    if not budget.override:
        # |profiles| x prod |chunks| candidates: at most 2^(u t) profiles
        # for u source and t target units, counted exactly (by
        # inclusion-exclusion) only when that bound is over the cap
        cap, u, t = budget.max_candidates, len(unit_idx), len(target.units)
        per_profile = math.prod(map(len, rep_chunks))
        if per_profile << u * t > cap and per_profile * sum(
            (-1) ** j * math.comb(t, j) << (t - j) * u for j in range(t + 1)
        ) > cap:
            raise BudgetExceeded(f"examined {cap + 1} candidates, cap is {cap}")
    profiles = (
        {i: m for i, m in zip(unit_idx, combo) if m}
        for combo in itertools.product(unit_masks, repeat=len(unit_idx))
        if reduce(or_, combo, 0) == every
    )
    # the plan: the pair (x, y) is compared at the level that sets the
    # last of x, y and xy; the last level's pairs are left to the leaves
    last = len(reps)
    plan = [[] for _ in range(last)]
    if reps:
        depth = [0] * len(srows)
        for k, x in enumerate(reps, 1):
            depth[x] = depth[s_inv[x]] = k
        early = [x for x, d in enumerate(depth) if d < last]
        for x in early:
            srow, dx = srows[x], depth[x]
            for y in early:
                z = srow.get(y)
                d = max(dx, depth[y], 0 if z is None else depth[z])
                if d < last:
                    plan[d].append((x, y, z))

    found = []
    memo = {}  # products of output masks in the target, shared by candidates
    trows, shift = target._rows, len(target._rows)
    options = [profiles] + rep_chunks
    # depth first; a node's rows are its choice's over its parent's, and
    # a node whose pairs fail on them has no candidate below it visited
    walk = [(iter(options[0]), {})]
    while walk:
        chunks, above = walk[-1]
        chunk = next(chunks, None)
        if chunk is None:
            walk.pop()
            continue
        k = len(walk) - 1
        rows = {**chunk, **above}
        if k == last:  # a candidate, decided in full
            if _hm_refutation(rows, source, target, memo) is None:
                found.append(Morphism._of_rows(source, target, rows))
            continue
        for x, y, z in plan[k]:
            mx, my = rows.get(x), rows.get(y)
            if mx and my:
                key = mx << shift | my
                rhs = memo.get(key)
                if rhs is None:
                    rhs = memo[key] = _mask_product(mx, my, trows)
                if rows.get(z, 0) != rhs:
                    break
        else:
            walk.append((iter(options[k + 1]), rows))
    return _name_sorted(found, source, target)


def _name_sorted(found: list, source: Groupoid, target: Groupoid) -> list:
    """The morphisms `found` in the order sorted(h.graph) gives, by
    relation._rank_key of their rows."""
    if len(found) > 1:  # a cancellation hunt's probes often give one
        u, v = source.elements, target.elements
        found.sort(key=lambda h: _rank_key(h._rows, u, v))
    return found


class _FiberSearch:
    """Consistent output tables on the right fiber over a unit e0 of the
    source, for one target and base map at a time (`tables`).

    Forcing propagates products against the isotropy group at e0; every
    surviving table extends to a morphism (enum_morphisms).  Inverses
    need no rule of their own: for x in the isotropy group, the slot
    (x^-1 x, f) is the unit slot (e0, f), preset to f, so once (x, f)
    and (x^-1, e_L T(x, f)) are both set the product rule holds the
    second to the inverse of the first.  What depends only on the source
    is read here once, on element indices, and kept with the source's
    orbit shapes: the fiber (the indices of the arrows into e0, in name
    order), their left units and the fiber positions of products g x
    with x in the isotropy group.  The target's rows, left units and
    `_fibers` are read per call.
    """

    def __init__(self, source, e0, fiber):
        self.fiber = fiber
        if len(fiber) == 1:  # e0 alone: its one table is e0 -> f on F0
            return
        fpos = {g: i for i, g in enumerate(fiber)}
        self.at_e0 = fiber.index(e0)
        self.lefts = list(map(source._left.__getitem__, fiber))
        self.iso = [i for i, eL in enumerate(self.lefts) if eL == e0]
        # times[g][x] is the fiber position of g x, x in the isotropy group
        s_rows = source._rows
        self.times = [{x: fpos[s_rows[g][fiber[x]]] for x in self.iso} for g in fiber]

    def tables(self, target, rho, F0):
        """The tables into target for base map rho, on the slots (g, f)
        for f in F0.

        rho maps target unit indices to source unit indices, and F0 lists
        the target unit indices over e0, in name order.  A table is a
        list of target element indices, read off the target's `_fibers`.
        Slot (g, f) is numbered g * len(F0) + f by the positions of g in
        the fiber and f in `F0`, so slot order is sorted key order.  A
        newly set slot is pushed on a worklist and, when popped, fires
        every forcing rule it is a premise of whose other premise is
        set; the forced closure is the same in any firing order, and so
        is a conflict.  The walk undoes its trial values off a trail
        instead of copying the table.

        A slot takes no value whose left unit its row already holds,
        tried or forced: fact (b) of enum_morphisms.  That is the one
        check `put` makes on a free slot, since a forced value is always
        one of its slot's options: it runs from f to a unit over e_L(g),
        and the slots of e0, whose one option is f itself, are set
        before anything is forced.  Those unit values force only
        themselves, so the first force cannot fail.
        """
        if len(self.fiber) == 1:
            return [F0]
        fibers, t_rows, t_left = target._fibers, target._rows, target._left
        lefts, e0, iso, times = self.lefts, self.fiber[self.at_e0], self.iso, self.times
        nf = len(F0)
        # the F0 position of each unit in F0; every value of an isotropy
        # slot has its left unit there
        f_at = {f: i for i, f in enumerate(F0)}
        # the values of (g, f): f itself for g = e0, else the d from f to
        # a unit over e_L(g) in name order, found once per (e_L(g), f)
        by_ends = {}
        cands = []
        for g, eL in enumerate(self.lefts):
            for f in F0:
                if g == self.at_e0:
                    opts = (f,)
                else:
                    opts = by_ends.get((eL, f))
                    if opts is None:
                        opts = by_ends[(eL, f)] = tuple(
                            d for d in fibers[f] if rho[t_left[d]] == eL
                        )
                cands.append(opts)
        if not all(cands):  # a slot no value can fill, forced or tried
            return []
        n = len(cands)
        asg = [-1] * n
        trail, work = [], []

        def put(s, d):
            cur = asg[s]
            if cur >= 0:
                return cur == d
            if nf > 1:  # (b): no left unit twice in the row of s
                row, left = s - s % nf, t_left[d]
                for v in asg[row : row + nf]:
                    if v >= 0 and t_left[v] == left:
                        return False
            asg[s] = d
            trail.append(s)
            work.append(s)
            return True

        def force():
            while work:
                s = work.pop()
                g, f = divmod(s, nf)
                d = asg[s]
                if lefts[g] == e0:  # g is in the isotropy group
                    # (g, f) as (x, f): (g' x, f) from every set (g', f1)
                    f1 = f_at[t_left[d]]
                    for g2, row in enumerate(times):
                        dg = asg[g2 * nf + f1]
                        if dg >= 0 and not put(row[g] * nf + f, t_rows[dg][d]):
                            return False
                # (g, f) as (g, f1): (g x, f2) from every set (x, f2) over f
                row, unit = times[g], F0[f]
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

        for f, unit in enumerate(F0):
            put(self.at_e0 * nf + f, unit)
        force()
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
            if put(idx, cands[idx][i]) and force():
                levels.append([unset(idx + 1), 0, len(trail)])
        return results


def enum_morphisms(source: Groupoid, target: Groupoid) -> list:
    """Every morphism from source to target, assembled structurally.

    Candidates are built from a base map of the target units to the
    source units that keeps (a) below, the only kind made (_moment_maps),
    and one output table per component with target units over it, on the
    right fiber over its least unit.  A member g, with g2 the path to
    e_R(g) and g1 = g g2, gets the mask of the h(g1) h(g2)^-1 over the
    table's units, and the rows are held unchecked (Morphism._of_rows).

    A morphism h is an action of its domain on the target units over
    the base map, its moment map: g moves the fiber over e_R(g) one to
    one onto the fiber over e_L(g), each unit f to the left unit of the
    output of g from f.  So no morphism breaks either of
      (a) the base map's fibers have equal size over the units of one
          orbit, since a path joins any two of them;
      (b) the outputs of one g from the units of a fiber have distinct
          left units, since g moves the fiber one to one;
    and a base map that breaks (a) is never made: per orbit a fiber
    size is chosen, never past the target units left, and each target
    unit placed on a source unit with room left; these combos are kept
    on the source per point count where they are few.  (b) cuts each
    table search (_FiberSearch.tables).

    Conversely, every table that keeps both is a morphism's, so no
    reconstruction is checked.  The forcing rule gives T(g x, f) =
    T(g, e_L T(x, f)) T(x, f) for x in the isotropy group at e0, and
    the unit slots give T(e0, f) = f; so the isotropy part of a complete
    table is an action of that group on F0, x taking f to e_L T(x, f)
    along T(x, f).  By (b) each path's row T(p, -) is one to one on F0,
    and by (a) it is onto the fiber over its end.  So the table extends
    along the paths to an action of the whole component on the units
    over its orbit, whose morphism the rows are.
    """
    shapes = _kept(source, "_orbit_shapes", _orbit_shapes)
    t_rows, t_inv = target._rows, target._inv
    found = []
    for rho, over in _moment_maps(source, list(target._fibers)):
        comp = []  # per orbit with target units over it, its tables
        for _, e0, members, search in shapes:
            if over[e0]:
                opts = search.tables(target, rho, over[e0])
                if not opts:
                    break
                comp.append((members, len(over[e0]), opts))
        else:
            for combo in itertools.product(*[c[2] for c in comp]):
                rows = {}
                for (members, nf, _), table in zip(comp, combo):
                    for x, p1, p2 in members:
                        mx = 0
                        for f in range(nf):
                            d1, d2 = table[p1 * nf + f], table[p2 * nf + f]
                            mx |= 1 << t_rows[d1][t_inv[d2]]
                        rows[x] = mx
                found.append(Morphism._of_rows(source, target, rows))
    return _name_sorted(found, source, target)


def _moment_maps(source, points):
    """The maps rho of the list `points` to the source's unit indices
    that keep fact (a) of enum_morphisms, each with the lists of the
    points over each unit, in order.  Only such maps are made: their
    combos, each map's unit per point position (_combos), are zipped here
    with `points`, and kept on the source per point count where there
    are at most 2^10 maps of the points to its units; more are made anew
    on each call, so what is kept stays small."""
    kept, n = _kept(source, "_moment_combos", lambda g: {}), len(points)
    if (combos := kept.get(n)) is None:
        shapes = _kept(source, "_orbit_shapes", _orbit_shapes)
        combos = _combos([block for block, *_ in shapes], n)
        if len(source._fibers) ** n <= 2**10:
            kept[n] = combos = tuple(combos)
    for combo in combos:
        over = {e: [] for e in source._fibers}
        for p, e in zip(points, combo):
            over[e].append(p)
        yield dict(zip(points, combo)), over


def _combos(blocks, n):
    """Every tuple of n units of the orbits `blocks` whose fibers have
    equal size over the units of one orbit, depth first in plain loops,
    so that no number of points or orbits deepens the stack.  The fiber
    size k of each orbit is chosen in turn, at most the points left over
    |O|, so no choice overshoots sum |O| k = n; for each choice that
    meets it, every placement of the positions in turn on a unit that
    still has room is made.  Only units given room are scanned, at most
    n of them, so a source's other units cost a placement nothing."""
    todo = [((), n)]  # (the fiber sizes of the first orbits, the points left)
    while todo:
        ks, left = todo.pop()
        if len(ks) < len(blocks):
            size = len(blocks[len(ks)])  # k is pushed from the top, so 0 comes first
            todo.extend((ks + (k,), left - k * size) for k in range(left // size, -1, -1))
        elif not left:
            units = [e for b, k in zip(blocks, ks) if k for e in b]
            room = [k for b, k in zip(blocks, ks) if k for _ in b]
            placed, i = [], 0  # the unit positions placed, and the next to try
            while True:
                if len(placed) == n:
                    yield tuple(map(units.__getitem__, placed))
                while i < len(room) and not room[i]:
                    i += 1
                if i < len(room):
                    room[i] -= 1
                    placed.append(i)
                    i = 0
                elif placed:  # the last position again, on its next unit
                    room[placed[-1]] += 1
                    i = placed.pop() + 1
                else:
                    break


def _orbit_shapes(source: Groupoid) -> tuple:
    """Per orbit of the source, in orbits() order: its unit indices, its
    least unit e0, each member's index with the fiber positions of g1
    and g2, and the source's half of the fiber search over e0."""
    fibers, left, rows = source._fibers, source._left, source._rows
    shapes = []
    for block in source.orbits():
        block = list(map(source._index.__getitem__, block))
        e0 = block[0]
        fiber = fibers[e0]
        pos = {g: p for p, g in enumerate(fiber)}
        path = {left[g]: g for g in reversed(fiber)}  # least per unit
        members = [
            (g, pos[rows[g][path[e]]], pos[path[e]]) for e in block for g in fibers[e]
        ]
        shapes.append((block, e0, members, _FiberSearch(source, e0, fiber)))
    return tuple(shapes)


def enum_actions(groupoid: Groupoid, carrier: Universe) -> list:
    """Every action of the groupoid on the carrier, generated per
    component from coset spaces, in the order of their morphisms into
    pair_groupoid(carrier).

    An action is a moment map rho from the points to the units and, on
    each component, an action on the points over its orbit; rho keeps
    fact (a) of enum_morphisms, since a path moves the fiber over its
    right unit one to one onto the fiber over its left unit, and a map
    that breaks it is never made (_moment_maps, whose combos are kept on
    the groupoid per point count where they are few).  Let G be the
    isotropy group at the orbit's least unit e0, F0 the k points over
    e0, and c_b the least arrow from e0 to b, with c_e0 = e0.  An action
    on the component is a pair: an action sigma of G on F0, and for each
    unit b but e0 a bijection beta_b of F0 onto the fiber over b, the
    move of c_b (beta_e0 is the identity).  The arrow g from b2 to b1 is
    c_b1 x s(c_b2), x = s(c_b1) g c_b2 in G, and moves the points over
    b2 by beta_b1 sigma(x) beta_b2^-1.  For every pair this is an action:
    the units of G fix F0, and in a product g' g the betas between cancel
    and the x multiply, as sigma does.  Every action is generated by
    exactly one pair, the moves of G on F0 and of the paths c_b, which
    it gives back.  sigma is built in turn from its orbits
    (_point_actions): the orbit of the least point o not yet placed is
    a coset space G/K, K the stabilizer of o, sent onto o and |G/K| - 1
    further points in order, with G moving them as it moves the left
    cosets.  That is an action on those points, and an orbit gives back
    its K and its bijection, so each sigma is generated once.  Each
    action is held unchecked as move rows (Action._of_rows), and the
    list is sorted by relation._rank_key of the rows read as pair
    morphisms, the order enum_morphisms gives them in.
    """
    shapes = _kept(groupoid, "_orbit_shapes", _orbit_shapes)
    n, found, sigmas = len(carrier), [], {}  # sigmas: per (orbit, k), this call only
    for _, over in _moment_maps(groupoid, range(n)):
        parts = []  # per orbit with points over it, the rows of each choice
        for i, (block, e0, *_) in enumerate(shapes):
            k = len(over[e0])
            if not k:
                continue
            _, _, cosets, members = _kept(groupoid, "_isotropy_views", _isotropy_views)[i]
            if (i, k) not in sigmas:
                blank = [[0] * k] * len(cosets[0])  # each row copied before it is set
                sigmas[i, k] = list(_point_actions(cosets, range(k), blank))
            # q[b] lists the images of F0 under beta_b, beta_e0 = F0 itself
            fibers = [over[e] for e in block]
            perms = map(itertools.permutations, fibers[1:])
            parts.append([
                [(g, dict(zip(q[b2], map(q[b1].__getitem__, sigma[x]))))
                 for g, b1, b2, x in members]
                for sigma, *q in itertools.product(sigmas[i, k], fibers[:1], *perms)
            ])
        for combo in itertools.product(*parts):
            rows = dict(itertools.chain.from_iterable(combo))
            moves = [rows.get(g, {}) for g in range(len(groupoid._rows))]
            found.append(Action._of_rows(groupoid, carrier, moves))
    if len(found) > 1:  # as relation._rank_key orders the pair morphisms
        rank, s_rank = product_universe(carrier, carrier)._ranks, groupoid.elements._ranks
        ns = len(s_rank)  # the pair (y, x) is at y * n + x
        found.sort(key=lambda a: sorted(
            rank[y * n + x] * ns + s_rank[g]
            for g, row in enumerate(a._moves) for x, y in row.items()
        ))
    return found


def _isotropy_views(groupoid: Groupoid) -> tuple:
    """Per orbit, in orbits() order: the isotropy group G at its least
    unit e0 as a group table, named for the probes; its subgroups
    (subgroups_of); the left-coset map of each (_left_cosets); and each
    member g of the component as (g, b1, b2, x), the block positions of
    e_L(g) and e_R(g) and the table index of s(c_b1) g c_b2, where c_b is
    the least arrow from e0 to b and c_e0 = e0."""
    index, fibers, rows = groupoid._index, groupoid._fibers, groupoid._rows
    inv, left, right = groupoid._inv, groupoid._left, groupoid._right
    views = []
    for block in groupoid.orbits():
        name = f"{groupoid.name}.iso@{block[0]}"
        table = group_table_of(groupoid, groupoid.isotropy(block[0]).members, name)
        subgroups = subgroups_of(table)
        block = list(map(index.__getitem__, block))
        e0, pos = block[0], {b: p for p, b in enumerate(block)}
        # the least arrow from e0 to each unit, and e0 itself to e0
        path = {**{left[a]: a for a in reversed(fibers[e0])}, e0: e0}
        at = {index[a]: i for i, a in enumerate(table.elements)}
        members = []
        for g in itertools.chain.from_iterable(map(fibers.__getitem__, block)):
            x = rows[inv[path[left[g]]]][rows[g][path[right[g]]]]
            members.append((g, pos[left[g]], pos[right[g]], at[x]))
        cosets = [_left_cosets(table, sub) for sub in subgroups]
        views.append((table, subgroups, cosets, members))
    return tuple(views)


def _left_cosets(table, members) -> list:
    """acts[x][j], the index of the left coset x r_j K, where r_j K is
    the j-th left coset of the subgroup K = members, numbered by
    groupoid._classes from the unit, then in index order: so K itself is
    coset 0, as _point_actions needs of the stabilizer of the point it
    sends coset 0 to, and the others come by least representative; x is
    a table index."""
    rows, inside = table.rows, [table._index[h] for h in members]
    order = (table._index[table.unit], *range(len(rows)))
    at, cosets, _ = _classes(order, lambda r: list(map(rows[r].__getitem__, inside)))
    return [[at[row[coset[0]]] for coset in cosets] for row in rows]


def _point_actions(cosets, free, sigma):
    """Every action of the group that extends sigma, where sigma[x][p]
    is the point x moves p to, to the points `free`, from the left-coset
    maps of its subgroups: the orbit of the least free point o is a
    coset space G/K, K the stabilizer of o, sent onto o and |G/K| - 1
    further free points in order by phi, so that x moves phi[j] to
    phi[acts[x][j]].  Depth first, in a plain loop, as _combos is, so no
    number of orbits deepens the stack."""

    def orbits(free):  # each choice (acts, the further points) for free[0]
        for acts in cosets:
            for others in itertools.permutations(free[1:], len(acts[0]) - 1):
                yield acts, others

    if not free:
        yield sigma
        return
    stack = [(free, sigma, orbits(free))]
    while stack:
        free, sigma, choices = stack[-1]
        for acts, others in choices:
            phi, placed = (free[0], *others), [row[:] for row in sigma]
            for row, moved in zip(placed, acts):
                for p, j in zip(phi, moved):
                    row[p] = phi[j]
            rest = [p for p in free if p not in phi]
            if rest:
                stack.append((rest, placed, orbits(rest)))
                break
            yield placed
        else:
            stack.pop()


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

    Independent of the morphism enumerators and of enum_actions: it
    keeps the full product of base maps as the oracle for the maps
    _moment_maps makes, and its candidates are classical
    (base map, partial evaluation) pairs that keep the unit law by
    construction, since the unit slot (rho(x), x) takes only x, and the
    compatibility law over the composable pairs of the groupoid's table.
    For each base map the evaluation table is searched depth first with
    forward checking (`_lawful_tables`): a compatibility constraint is
    tested once its last slot is set, so no table that breaks a law
    survives and no lawful table is cut, and the results come in the
    lexicographic slot order of the full product of slot values.  Each
    table is decided once: it is held as move rows on the groupoid's
    and the carrier's indices, unchecked.
    """
    units = sorted(groupoid.units)
    points = sorted(carrier.elements)
    g_at, x_at = groupoid._index, carrier.index
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
        # each slot's move row and carrier index; a table's values are names
        place = [(g_at[g], x_at[x]) for g, x in slots]
        for values in _lawful_tables(slots, cand, left_factors):
            moves = [{} for _ in groupoid._rows]
            for (g, x), y in zip(place, values):
                moves[g][x] = x_at[y]
            results.append(Action._of_rows(groupoid, carrier, moves))
    return results


def proof_probes(groupoid: Groupoid) -> list:
    """Probe groupoids shaped like the cancellation arguments: set
    groupoids on orbit markers and subgroups of marker isotropy groups.

    They are built on first use and kept on the groupoid, as its lazy
    index views are; each call returns a fresh list of them."""
    return list(_kept(groupoid, "_probes", lambda g: tuple(_build_probes(g))))


def _build_probes(groupoid: Groupoid) -> list:
    markers = sorted(min(block) for block in groupoid.orbits())
    probes = []
    for combo in list(_subsets(markers))[1:]:  # by size, then in order
        space = Universe(f"{groupoid.name}.set({','.join(combo)})", combo)
        probes.append(set_groupoid(space))
    for table, subgroups, *_ in _kept(groupoid, "_isotropy_views", _isotropy_views):
        for members in subgroups:
            sub = subgroup_table(table, members, f"{table.name}.sub({','.join(members)})")
            probes.append(group_groupoid(sub))
    return probes


def check_cancellation(h: Morphism, side: str, probes=None, budget=None):
    """Hunt for two enumerated morphisms a probe cannot tell apart
    through h.

    side "left" searches arrows into the source and composes h after
    them; side "right" searches arrows out of the target.  Returns the
    first witness in probe-then-canonical order, or None.  A None on
    the right side is not a proof: no finite probe family is known to
    be complete there.  With the default probes, the groupoid's own
    (proof_probes), the arrows of each probe and side are enumerated on
    the first hunt that reaches them and kept on that groupoid as their
    rows, since they depend on nothing else; explicit probes keep
    nothing.
    """
    budget = budget or EnumBudget()
    if side not in ("left", "right"):
        raise PreconditionFailed(f"unknown cancellation side {side!r}")
    kept = {}  # explicit probes keep their arrows for this call only
    if probes is None:
        owner = h.source if side == "left" else h.target
        probes, kept = proof_probes(owner), _kept(owner, "_hunted", lambda g: {})
    # an arrow ends at h's source (left) or starts at h's target (right),
    # so its rows and h's compose on one index space, and two composites
    # are equal morphisms exactly when their rows are equal
    if side == "left":
        through = lambda rows: _composed_rows(h._rows, rows, None)
    else:
        through = lambda rows: _composed_rows(rows, h._rows, None)
    examined = 0
    for k, probe in enumerate(probes):
        ends = (probe, h.source) if side == "left" else (h.target, probe)
        if (side, k) not in kept:
            kept[side, k] = tuple(w._rows for w in enum_morphisms(*ends))
        for r1, r2 in itertools.combinations(kept[side, k], 2):
            examined += 1
            if examined > budget.max_candidates and not budget.override:
                raise BudgetExceeded(
                    f"examined {examined} witness pairs, "
                    f"cap is {budget.max_candidates}"
                )
            if through(r1) == through(r2):
                w1 = Morphism._of_rows(*ends, r1)
                w2 = Morphism._of_rows(*ends, r2)
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
