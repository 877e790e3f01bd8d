"""The four benchmark workloads and the operations each round runs.

A workload turns a seed into raw inputs once (`setup`) and then yields
rounds of operations (`round_ops`).  An operation is a triple
(op_id, fn, summarize): fn takes no arguments and drives the package
only through its public functions or its command line; it is the part
that is timed.  summarize turns fn's result into a small JSON-able
summary, outside the timing.  The summaries are compared against
`oracle.json`, recorded at the seed commit.

Every round of a workload holds the same multiset of operations; the
seed only picks the mutated rows (build) and the order of operations.
Operations named "catalog" run first in their round, because the
others read the structures it validates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time

from groupoids import action, bisection, builders, groupoid, morphism, search
from groupoids.relation import Universe, pair_name

def digest(value) -> str:
    """Short stable hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def jsonable(value):
    """Tuples, sets and frozensets as plain (sorted where unordered) lists."""
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def graphs_summary(found) -> dict:
    """Count and digest of a list of morphisms, independent of list order."""
    graphs = sorted(jsonable(h.graph) for h in found)
    return {"n": len(graphs), "graphs": digest(graphs)}


def triples_summary(found) -> dict:
    """Count and digest of a list of actions, independent of list order."""
    sets = sorted(jsonable(a.triples) for a in found)
    return {"n": len(sets), "triples": digest(sets)}


def groupoid_summary(g) -> dict:
    return {
        "elements": len(g.elements),
        "units": len(g.units),
        "orbits": len(g.orbits()),
    }


def round_rng(seed: int, r: int) -> random.Random:
    return random.Random(f"{seed}:{r}")


def order(ops, seed: int, r: int) -> list:
    """Catalog operations first, the rest in seeded order."""
    head = [op for op in ops if op[0] == "catalog"]
    rest = [op for op in ops if op[0] != "catalog"]
    round_rng(seed, r).shuffle(rest)
    return head + rest


# -- raw group and groupoid data --------------------------------------
#
# Plain-Python generators that mirror the builders' naming contract.  They
# give the build workload tables it can mutate row by row without calling
# the package during set-up.


def raw_cyclic(n):
    elems = [str(i) for i in range(n)]
    mult = {(a, b): str((int(a) + int(b)) % n) for a in elems for b in elems}
    return elems, "0", mult


def raw_symmetric(n):
    perms = ["".join(p) for p in itertools.permutations("123456789"[:n])]
    mult = {
        (a, b): "".join(a[int(b[i]) - 1] for i in range(n))
        for a in perms
        for b in perms
    }
    return perms, "123456789"[:n], mult


def raw_inverse(group):
    elems, unit, mult = group
    return {g: next(h for h in elems if mult[(g, h)] == unit) for g in elems}


def raw_pair(points):
    elems = [pair_name(x, y) for x in points for y in points]
    units = [pair_name(x, x) for x in points]
    inverse = {pair_name(x, y): pair_name(y, x) for x in points for y in points}
    table = [
        (pair_name(x, z), pair_name(x, y), pair_name(y, z))
        for x in points
        for y in points
        for z in points
    ]
    return elems, units, inverse, table


def raw_group(group):
    elems, unit, mult = group
    table = [(mult[(a, b)], a, b) for a in elems for b in elems]
    return list(elems), [unit], raw_inverse(group), table


def raw_product_form(points, group):
    elems_g, unit, mult = group
    inv = raw_inverse(group)
    elems = [f"{x}|{g}|{y}" for x in points for g in elems_g for y in points]
    units = [f"{x}|{unit}|{x}" for x in points]
    inverse = {
        f"{x}|{g}|{y}": f"{y}|{inv[g]}|{x}"
        for x in points
        for g in elems_g
        for y in points
    }
    table = [
        (f"{x}|{mult[(g, h)]}|{z}", f"{x}|{g}|{y}", f"{y}|{h}|{z}")
        for x in points
        for y in points
        for z in points
        for g in elems_g
        for h in elems_g
    ]
    return elems, units, inverse, table


def raw_bundle(groups):
    elems, units, inverse, table = [], [], {}, []
    for i, group in enumerate(groups):
        gel, gunit, gmult = group
        inv = raw_inverse(group)
        elems += [f"{i}:{g}" for g in gel]
        units.append(f"{i}:{gunit}")
        inverse.update({f"{i}:{g}": f"{i}:{inv[g]}" for g in gel})
        table += [
            (f"{i}:{gmult[(a, b)]}", f"{i}:{a}", f"{i}:{b}")
            for a in gel
            for b in gel
        ]
    return elems, units, inverse, table


def raw_equivalence(points, blocks):
    elems, table, inverse = [], [], {}
    for b in blocks:
        elems += [pair_name(x, y) for x in b for y in b]
        inverse.update({pair_name(x, y): pair_name(y, x) for x in b for y in b})
        table += [
            (pair_name(x, z), pair_name(x, y), pair_name(y, z))
            for x in b
            for y in b
            for z in b
        ]
    return elems, [pair_name(x, x) for x in points], inverse, table


def raw_transformation(group, points, act):
    gel, gunit, gmult = group
    inv = raw_inverse(group)
    elems = [f"{g}:{x}" for g in gel for x in points]
    units = [f"{gunit}:{x}" for x in points]
    inverse = {f"{g}:{x}": f"{inv[g]}:{act[(g, x)]}" for g in gel for x in points}
    table = [
        (f"{gmult[(g, h)]}:{x}", f"{g}:{act[(h, x)]}", f"{h}:{x}")
        for g in gel
        for h in gel
        for x in points
    ]
    return elems, units, inverse, table


def rotation(n):
    """Z_n rotating n points, as a dict (g, x) -> y."""
    return {
        (str(g), str(x)): str((g + x) % n) for g in range(n) for x in range(n)
    }


def natural_s3():
    """S3 permuting the points 1, 2, 3."""
    perms = ["".join(p) for p in itertools.permutations("123")]
    return {(g, x): g[int(x) - 1] for g in perms for x in "123"}


def points(n):
    return tuple(str(i) for i in range(n))


# -- build ---------------------------------------------------------------
#
# Each ladder entry: label, a function (tag) -> validated groupoid through
# the builders, and the raw table of the same groupoid.  The tag is the
# round number; it goes, with the label, into every universe and group
# name, so that no two builder calls in a run share arguments.

BLOCKS8 = (("0", "1", "2"), ("3", "4"), ("5", "6", "7"))


def _pair_entry(n):
    label = f"P{n}"

    def build(tag):
        return builders.pair_groupoid(
            Universe(f"X{n}.{tag}", points(n)), f"{label}.{tag}"
        )

    return label, build, lambda: raw_pair(points(n))


def _cyclic_entry(n):
    label = f"Z{n}"

    def build(tag):
        return builders.group_groupoid(builders.cyclic_table(n, f"{label}.{tag}"))

    return label, build, lambda: raw_group(raw_cyclic(n))


def _s4_entry():
    def build(tag):
        return builders.group_groupoid(builders.symmetric_table(4, f"S4.{tag}"))

    return "S4", build, lambda: raw_group(raw_symmetric(4))


def _group_table(token, tag):
    if token == "S3":
        return builders.symmetric_table(3, f"S3.{tag}")
    return builders.cyclic_table(int(token[1:]), f"{token}.{tag}")


def _raw_group_of(token):
    return raw_symmetric(3) if token == "S3" else raw_cyclic(int(token[1:]))


def _product_form_entry(k, token):
    label = f"PF{k}{token}"

    def build(tag):
        return builders.product_form(
            Universe(f"B{k}.{tag}", points(k)),
            _group_table(token, f"{label}.{tag}"),
            f"{label}.{tag}",
        )

    return label, build, lambda: raw_product_form(points(k), _raw_group_of(token))


def _bundle_entry(tokens):
    label = "BD" + "".join(tokens)

    def build(tag):
        return builders.group_bundle(
            [_group_table(t, f"{label}.{tag}") for t in tokens], f"{label}.{tag}"
        )

    return label, build, lambda: raw_bundle([_raw_group_of(t) for t in tokens])


def _equivalence_entry():
    def build(tag):
        return builders.equivalence_groupoid(
            Universe(f"N8.{tag}", points(8)), BLOCKS8, f"EQ8.{tag}"
        )

    return "EQ8", build, lambda: raw_equivalence(points(8), BLOCKS8)


def _transformation_entry(token, n, act):
    label = f"TG{token}"

    def build(tag):
        return builders.transformation_groupoid(
            _group_table(token, f"{label}.{tag}"),
            Universe(f"T{n}.{tag}", tuple(sorted({x for _, x in act}))),
            act,
            f"{label}.{tag}",
        )

    space = sorted({x for _, x in act})
    return label, build, lambda: raw_transformation(_raw_group_of(token), space, act)


def build_ladder():
    return (
        [_pair_entry(n) for n in range(4, 9)]
        + [_cyclic_entry(n) for n in (6, 12, 18, 24)]
        + [_s4_entry()]
        + [_product_form_entry(k, t) for k in (2, 3) for t in ("Z4", "S3")]
        + [_bundle_entry(("Z4", "S3", "Z2")), _bundle_entry(("Z6", "Z5", "Z1"))]
        + [_equivalence_entry()]
        + [_transformation_entry("Z4", 4, rotation(4)),
           _transformation_entry("S3", 3, natural_s3())]
    )


MUTATION_KINDS = ("delete", "insert", "change", "inverse")


def make_mutations(raw, rng, per_kind=2) -> list:
    """Single-row mutations of a raw groupoid, `per_kind` of each kind."""
    elems, _, inverse, table = raw
    rows = sorted(table)
    present = set(rows)
    out = []
    for kind in MUTATION_KINDS:
        for _ in range(per_kind):
            if kind == "delete":
                out.append({"kind": kind, "row": list(rng.choice(rows))})
            elif kind == "insert":
                while True:
                    row = (rng.choice(elems), rng.choice(elems), rng.choice(elems))
                    if row not in present:
                        break
                out.append({"kind": kind, "row": list(row)})
            elif kind == "change":
                row = rng.choice(rows)
                new = rng.choice([x for x in elems if x != row[0]])
                out.append({"kind": kind, "row": list(row), "to": new})
            else:
                g = rng.choice(sorted(elems))
                new = rng.choice([x for x in elems if x != inverse[g]])
                out.append({"kind": kind, "element": g, "to": new})
    return out


def apply_mutation(raw, mutation):
    elems, units, inverse, table = raw
    inverse = dict(inverse)
    table = list(table)
    kind = mutation["kind"]
    if kind == "inverse":
        inverse[mutation["element"]] = mutation["to"]
        return elems, units, inverse, table
    row = tuple(mutation["row"])
    if kind == "insert":
        table.append(row)
    else:
        table.remove(row)
        if kind == "change":
            table.append((mutation["to"],) + row[1:])
    return elems, units, inverse, table


class Build:
    """A ladder of distinct structures, each accepted once and rejected once
    (one seeded single-row mutation) per round."""

    name = "build"
    round_seconds = 4.8  # budgeted seconds per round, at the reference speed

    def setup(self, seed, oracle):
        ladder = build_ladder()
        self.entries = []
        for label, build, raw_of in ladder:
            raw = raw_of()
            mutated = [
                apply_mutation(raw, m) for m in oracle["mutations"][label]
            ]
            self.entries.append((label, build, mutated))

    def round_ops(self, seed, r):
        rng = round_rng(seed, r)
        ops = []
        for i, (label, build, mutated) in enumerate(self.entries):
            ops.append((f"accept:{label}", *self._accept(build, r)))
            # the kinds rotate with the round so every run sees the same
            # mix; the seed picks which mutation of that kind
            kind = (i + r) % len(MUTATION_KINDS)
            per_kind = len(mutated) // len(MUTATION_KINDS)
            k = kind * per_kind + rng.randrange(per_kind)
            ops.append((f"reject:{label}:{k}", *self._reject(label, mutated[k], r)))
        return order(ops, seed, r)

    @staticmethod
    def _accept(build, r):
        return lambda: build(r), groupoid_summary

    @staticmethod
    def _reject(label, raw, r):
        elems, units, inverse, table = raw
        name = f"{label}~.{r}"
        return (
            lambda: groupoid.validate_groupoid(name, elems, units, inverse, table),
            groupoid_summary,
        )

    def all_ops(self):
        """Every operation any round can run, for recording the oracle."""
        ops = []
        for label, build, mutated in self.entries:
            ops.append((f"accept:{label}", *self._accept(build, 0)))
            for k, raw in enumerate(mutated):
                ops.append((f"reject:{label}:{k}", *self._reject(label, raw, 0)))
        return ops


# -- the test catalog ----------------------------------------------------

SWAP = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
CATALOG_KEYS = ("pt", "Z2", "Z4", "V4", "S2", "P2", "P3", "BD", "TR", "PF", "EQ")
CATALOG_SIZES = dict(zip(CATALOG_KEYS, (1, 2, 4, 4, 2, 4, 9, 3, 4, 8, 5)))
FAMILY_KEYS = ("pt", "Z2", "S2", "P2")
# the naive enumerator's default cap on candidate graph size
NAIVE_MAX_PAIRS = 20


def build_catalog() -> dict:
    b = builders
    return {
        "pt": b.group_groupoid(b.trivial_table(), "pt"),
        "Z2": b.group_groupoid(b.cyclic_table(2)),
        "Z4": b.group_groupoid(b.cyclic_table(4)),
        "V4": b.group_groupoid(b.klein_table()),
        "S2": b.set_groupoid(Universe("S", ("p", "q")), "S2"),
        "P2": b.pair_groupoid(Universe("X2", ("x", "y")), "P2"),
        "P3": b.pair_groupoid(Universe("X3", ("1", "2", "3")), "P3"),
        "BD": b.group_bundle([b.cyclic_table(2), b.trivial_table()], "BD"),
        "TR": b.transformation_groupoid(
            b.cyclic_table(2), Universe("PQ", ("p", "q")), SWAP, "TR"
        ),
        "PF": b.product_form(Universe("B", ("x", "y")), b.cyclic_table(2), "PF"),
        "EQ": b.equivalence_groupoid(
            Universe("N", ("1", "2", "3")), (("1", "2"), ("3",)), "EQ"
        ),
    }


def catalog_summary(cat) -> dict:
    return {k: groupoid_summary(g) for k, g in sorted(cat.items())}


def family_morphisms(cat) -> dict:
    return {
        (a, b): search.enum_morphisms(cat[a], cat[b])
        for a in FAMILY_KEYS
        for b in FAMILY_KEYS
    }


def family_cases(oracle) -> list:
    """(source key, target key, index) of every family morphism."""
    return [
        (a, b, i)
        for a, b in itertools.product(FAMILY_KEYS, repeat=2)
        for i in range(oracle["family_sizes"][f"{a}>{b}"])
    ]


def witness_summary(w) -> dict:
    if w is None:
        return {"n": 0}
    return {
        "n": 1,
        "side": w.side,
        "probe": len(w.probe.elements),
        "pair": digest(sorted([jsonable(w.w1.graph), jsonable(w.w2.graph)])),
    }


CARRIERS = (("W1", ("u",)), ("W2", ("u", "v")), ("W3", ("u", "v", "w")))


class Enumerate:
    """Exhaustive search over the 11-member catalog."""

    name = "enumerate"
    round_seconds = 8.6

    def setup(self, seed, oracle):
        self.naive_pairs = [
            (a, b)
            for a in CATALOG_KEYS
            for b in CATALOG_KEYS
            if CATALOG_SIZES[a] * CATALOG_SIZES[b] <= NAIVE_MAX_PAIRS
        ]
        self.carriers = [Universe(n, pts) for n, pts in CARRIERS]
        self.family = family_cases(oracle)

    def round_ops(self, seed, r):
        return order(self.all_ops(), seed, r)

    def all_ops(self):
        st = {}

        def catalog():
            st["cat"] = cat = build_catalog()
            cat["Z3"] = builders.group_groupoid(builders.cyclic_table(3))
            st["family"] = family_morphisms(cat)
            return cat

        def structured(a, b):
            return lambda: search.enum_morphisms(st["cat"][a], st["cat"][b])

        def naive(a, b, budget=None):
            return lambda: search.enum_morphisms_naive(st["cat"][a], st["cat"][b], budget)

        def actions(key, carrier, direct):
            fn = search.enum_actions_direct if direct else search.enum_actions
            return lambda: fn(st["cat"][key], carrier)

        def cancel(a, b, i, side):
            return lambda: search.check_cancellation(st["family"][(a, b)][i], side)

        ops = [("catalog", catalog, catalog_summary)]
        ops += [
            (f"enum:{a}>{b}", structured(a, b), graphs_summary)
            for a in CATALOG_KEYS
            for b in CATALOG_KEYS
        ]
        ops += [
            (f"naive:{a}>{b}", naive(a, b), graphs_summary)
            for a, b in self.naive_pairs
        ]
        # over the default budget; every one of its candidates is rejected
        ops.append((
            "naive-override:P3>Z3",
            naive("P3", "Z3", search.EnumBudget(override=True)),
            graphs_summary,
        ))
        for key in CATALOG_KEYS:
            for carrier in self.carriers:
                tag = f"{key}/{carrier.name}"
                ops.append((f"actions:{tag}", actions(key, carrier, False), triples_summary))
                ops.append((f"actions-direct:{tag}", actions(key, carrier, True), triples_summary))
        for a, b, i in self.family:
            for side in ("left", "right"):
                ops.append((f"cancel:{side}:{a}>{b}#{i}", cancel(a, b, i, side), witness_summary))
        return ops


# -- derive ----------------------------------------------------------------


def translation_morphism():
    """Z4 translating four points, as a morphism into their pair groupoid."""
    z4 = builders.group_groupoid(builders.cyclic_table(4))
    space = Universe("X", ("0", "1", "2", "3"))
    graph = [
        (pair_name(str((int(g) + int(x)) % 4), x), g)
        for g in z4.elements
        for x in space
    ]
    return morphism.Morphism(z4, builders.pair_groupoid(space), graph)


def wide_subgroupoids(g) -> list:
    """Proper wide subgroupoids, as sorted member tuples."""
    units = frozenset(g.units)
    extras = sorted(set(g.elements) - units)
    out = []
    for r in range(len(extras)):
        for combo in itertools.combinations(extras, r):
            members = units | set(combo)
            if g.is_subgroupoid(members):
                out.append(tuple(sorted(members)))
    return out


def morphism_summary(h) -> dict:
    return {
        "source": len(h.source.elements),
        "target": len(h.target.elements),
        "graph": digest(jsonable(h.graph)),
    }


def isotropy_bundle(g) -> set:
    return {x for x in g.elements if g.e_left(x) == g.e_right(x)}


def iso_summary(iso) -> dict:
    return {"n": int(iso is not None)}


class Derive:
    """Derived constructions over structures that recur within a round."""

    name = "derive"
    round_seconds = 10.0

    def setup(self, seed, oracle):
        self.sweep = [(k, tuple(m)) for k, m in oracle["sweep"]]
        self.family = family_cases(oracle)

    def round_ops(self, seed, r):
        return order(self.all_ops(), seed, r)

    def all_ops(self):
        st = {}
        b = builders

        def catalog():
            st["cat"] = cat = build_catalog()
            st["family"] = family_morphisms(cat)
            st["trans"] = translation_morphism()
            return cat

        def sep(key, members):
            return lambda: morphism.separating_pair(st["cat"][key], set(members))

        def sep_summary(found):
            probe, k1, k2 = found
            return {
                "probe": len(probe.elements),
                "pair": digest([jsonable(k1.graph), jsonable(k2.graph)]),
            }

        def fam(fn, x, y, i):
            return lambda: fn(st["family"][(x, y)][i])

        def factor_summary(found):
            epi, mono = found
            return {"epi": morphism_summary(epi), "mono": morphism_summary(mono)}

        def coset(key, bundle):
            def run():
                g = st["cat"][key]
                return action.coset_space(g, isotropy_bundle(g) if bundle else g.elements)

            return run

        def coset_summary(cs):
            return {"n": len(cs.classes), "classes": digest(jsonable(cs.classes))}

        def quotient_bundle(key):
            def run():
                g = st["cat"][key]
                return action.quotient_groupoid(g, isotropy_bundle(g))[0]

            return run

        def quotient_z4():
            q, _ = action.quotient_groupoid(st["cat"]["Z4"], {"0", "2"})
            return q, search.find_groupoid_isomorphism(q, st["cat"]["Z2"])

        def quotient_not_normal():
            s3 = b.group_groupoid(b.symmetric_table(3))
            return action.quotient_groupoid(s3, {"123", "213"})[0]

        def bisections(n):
            space = Universe(f"Y{n}", points(n))
            return lambda: bisection.bisection_group(b.pair_groupoid(space))

        def bisection_iso():
            table = bisection.bisection_group(st["cat"]["P3"])
            return table, search.find_groupoid_isomorphism(
                b.group_groupoid(table), b.group_groupoid(b.symmetric_table(3))
            )

        def no_iso():
            return search.find_groupoid_isomorphism(st["cat"]["Z4"], st["cat"]["V4"])

        def moves_iso():
            cat = st["cat"]
            pq = Universe("PQ", ("p", "q"))
            moves = action.classical_to_relational(
                cat["Z2"], pq, {x: "0" for x in pq}, SWAP
            )
            return search.find_groupoid_isomorphism(
                action.action_groupoid(moves), cat["TR"]
            )

        def classify():
            base = Universe("E", ("x", "y"))
            fiber_points = Universe("Z", ("u0", "u1"))
            table = b.cyclic_table(2)
            act = {
                (g, z): f"u{(int(g) + int(z[1])) % 2}"
                for g in table.elements
                for z in fiber_points
            }
            big = action.product_form_action(base, table, fiber_points, act)
            return action.classify_transitive_action(base, table, big)

        def homogeneous(case):
            def run():
                cat = st["cat"]
                if case == "Z4":
                    act, section = action.left_mult_action(cat["Z4"]), {"0": "0"}
                elif case == "P2":
                    p2 = cat["P2"]
                    act, section = action.unit_action(p2), {e: e for e in p2.units}
                else:
                    p2 = cat["P2"]
                    point_of = {"x,x": "x1", "y,y": "x2"}
                    triples = [
                        (point_of[p2.e_left(g)], g, point_of[p2.e_right(g)])
                        for g in p2.elements
                    ]
                    act = action.Action(p2, Universe("X12", ("x1", "x2")), triples)
                    section = dict(point_of)
                return action.homogeneous_identification(act, section)

            return run

        def nonepi_translation():
            return morphism.find_non_epi_witness(st["trans"])

        def nonepi_lreg():
            return morphism.find_non_epi_witness(morphism.left_regular(st["cat"]["Z2"]))

        ops = [("catalog", catalog, catalog_summary)]
        ops += [
            (f"sep:{k}:{'+'.join(m)}", sep(k, m), sep_summary) for k, m in self.sweep
        ]
        ops += [
            ("nonepi:translation", nonepi_translation, witness_summary),
            ("nonepi:lreg-Z2", nonepi_lreg, witness_summary),
        ]
        for x, y, i in self.family:
            tag = f"{x}>{y}#{i}"
            ops += [
                (f"kernel:{tag}", fam(morphism.kernel, x, y, i),
                 lambda k: {"members": jsonable(k.members)}),
                (f"mono-witness:{tag}", fam(morphism.mono_witness, x, y, i), witness_summary),
                (f"factor:{tag}", fam(morphism.epi_mono_factorization, x, y, i), factor_summary),
                (f"nonepi:{tag}", fam(morphism.find_non_epi_witness, x, y, i), witness_summary),
            ]
        for key in CATALOG_KEYS:
            ops += [
                (f"coset-all:{key}", coset(key, False), coset_summary),
                (f"coset-bundle:{key}", coset(key, True), coset_summary),
                (f"quotient-bundle:{key}", quotient_bundle(key), groupoid_summary),
            ]
        ops += [
            ("quotient:Z4/0+2", quotient_z4,
             lambda found: {**groupoid_summary(found[0]), **iso_summary(found[1])}),
            ("quotient:S3/not-normal", quotient_not_normal, groupoid_summary),
            ("bisection-group:P4", bisections(4), lambda t: {"order": len(t)}),
            ("bisection-group:P5", bisections(5), lambda t: {"order": len(t)}),
            ("bisection-group:P3=S3", bisection_iso,
             lambda found: {"order": len(found[0]), **iso_summary(found[1])}),
            ("iso:Z4/V4", no_iso, iso_summary),
            ("iso:moves/TR", moves_iso, iso_summary),
            ("classify:PF-Z2", classify,
             lambda found: {"fiber": len(found[0]), "psi": jsonable(sorted(found[2].items()))}),
        ]
        ops += [
            (f"homogeneous:{case}", homogeneous(case),
             lambda found: {"members": jsonable(found[0].members),
                            "psi": jsonable(sorted(found[1].items()))})
            for case in ("Z4", "P2", "swap")
        ]
        return ops


# -- cli -------------------------------------------------------------------


def groupoid_doc(name, raw) -> dict:
    elems, units, inverse, table = raw
    return {
        "kind": "groupoid",
        "name": name,
        "elements": sorted(elems),
        "units": sorted(units),
        "inverse": {g: inverse[g] for g in sorted(elems)},
        "compose": sorted([a, b, c] for c, a, b in table),
    }


def cli_documents() -> dict:
    """File name -> text of every document the cli commands read."""
    docs = {}

    def add(name, doc):
        docs[name] = json.dumps(doc, indent=2, sort_keys=True) + "\n"

    raws = {
        f"P{n}": raw_pair(tuple(str(i) for i in range(1, n + 1))) for n in (3, 4, 5, 6)
    }
    raws["S3"] = raw_group(raw_symmetric(3))
    raws["BD"] = raw_bundle([raw_cyclic(2), raw_symmetric(3), raw_cyclic(1)])
    for name, raw in raws.items():
        add(f"{name}.json", groupoid_doc(name, raw))

    p4 = groupoid_doc("P4x", raws["P4"])
    a, b_, ab = p4["compose"][5]
    p4["compose"][5] = [a, b_, "2,3" if ab != "2,3" else "3,2"]
    add("P4-row-changed.json", p4)
    s3 = groupoid_doc("S3x", raws["S3"])
    s3["inverse"]["231"] = "231"
    add("S3-inverse-changed.json", s3)
    bd = groupoid_doc("BDx", raws["BD"])
    del bd["compose"][7]
    add("BD-row-deleted.json", bd)

    docs["broken.json"] = '{"kind": "groupoid", "name": "B",\n  "elements": [\n'
    add("unknown-kind.json", {"kind": "monoid", "name": "M"})
    missing = groupoid_doc("M", raws["P3"])
    del missing["compose"]
    add("missing-compose.json", missing)
    listed = groupoid_doc("L", raws["P3"])
    listed["compose"][0] = [["1,1"]] + listed["compose"][0][1:]
    add("list-element.json", listed)
    return docs


def cli_cases() -> list:
    """(case id, argv, known defect) of every command a cli round runs."""
    cases = [
        ("build:P3", "build pair 1 2 3 --name P3", False),
        ("build:P4", "build pair 1 2 3 4 --name P4", False),
        ("build:P5", "build pair 1 2 3 4 5 --name P5", False),
        ("build:P6", "build pair 1 2 3 4 5 6 --name P6", False),
        ("build:S3", "build group symmetric:3 --name S3", False),
        ("build:BD", "build bundle cyclic:2 symmetric:3 trivial --name BD", False),
    ]
    for doc in ("P3", "P4", "P5", "P6", "S3", "BD"):
        cases.append((f"validate:{doc}", f"validate {doc}.json", False))
        cases.append((f"info:{doc}", f"info {doc}.json", False))
    for src, tgt in (("P3", "S3"), ("S3", "P3"), ("BD", "S3"), ("P3", "BD"), ("S3", "BD")):
        cases.append((f"enum:{src}>{tgt}", f"enum morphisms {src}.json {tgt}.json", False))
    for doc in ("P3", "P4", "S3", "BD"):
        cases.append((f"bisections:{doc}", f"bisections group {doc}.json", False))
    cases += [
        # well-formed documents that fail validation: exit 1
        ("invalid:validate-P4-row", "validate P4-row-changed.json", False),
        ("invalid:validate-S3-inverse", "validate S3-inverse-changed.json", False),
        ("invalid:info-BD-deleted", "info BD-row-deleted.json", False),
        ("invalid:enum-P3>P4-row", "enum morphisms P3.json P4-row-changed.json", False),
        # usage, IO and parse problems: exit 2
        ("malformed:broken-json", "validate broken.json", False),
        ("malformed:unknown-kind", "validate unknown-kind.json", False),
        ("malformed:missing-compose", "validate missing-compose.json", False),
        ("malformed:missing-file", "validate no-such-file.json", False),
        ("malformed:group-family", "build group quaternion", False),
        ("malformed:argv-missing-target", "enum morphisms P3.json", False),
        ("malformed:argv-no-op", "bisections", False),
        # known defects: the contract asks for exit 2 and an error line
        ("defect:duplicate-point", "build pair a a", True),
        ("defect:ambiguous-pair-names", "build pair a a,a", True),
        ("defect:group-order-not-int", "build group cyclic:x", True),
        ("defect:list-as-element", "validate list-element.json", True),
    ]
    return [(cid, argv.split(), defect) for cid, argv, defect in cases]


def stderr_ok(code, err: str) -> bool:
    """The exit contract: no traceback; nothing on stderr after success;
    otherwise at most one line, `error: ...` (argparse's usage lines may
    precede its own `prog: error: ...` line)."""
    if code not in (0, 1, 2) or "Traceback" in err:
        return False
    lines = [line for line in err.splitlines() if line.strip()]
    if code == 0 or not lines:
        return not lines
    errors = [x for x in lines if x.startswith("error: ") or ": error: " in x]
    return len(errors) == 1 and errors[0] == lines[-1]


def cli_summary(proc) -> dict:
    return {
        "exit": proc.returncode,
        "stdout": hashlib.sha256(proc.stdout).hexdigest()[:16],
        "stderr_ok": stderr_ok(proc.returncode, proc.stderr.decode("utf-8", "replace")),
    }


class Cli:
    """One child process per command, one at a time."""

    name = "cli"
    round_seconds = 7.2

    def setup(self, seed, oracle, workdir):
        here = os.path.dirname(os.path.abspath(__file__))
        self.child = os.path.join(here, "cli_child.py")
        self.workdir = workdir
        for name, text in cli_documents().items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.cases = cli_cases()
        self.env = dict(os.environ)
        src = os.path.join(os.path.dirname(here), "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.tracer = None  # the runner sets it for traced rounds
        self.bytes_out = 0

    def known_defects(self) -> set:
        return {cid for cid, _, defect in self.cases if defect}

    def round_ops(self, seed, r):
        return order(self.all_ops(), seed, r)

    def all_ops(self):
        return [(cid, self._command(argv), cli_summary) for cid, argv, _ in self.cases]

    def _command(self, argv):
        def run():
            tracer = self.tracer
            if tracer is None:
                cmd, env = [sys.executable, "-m", "groupoids.cli"] + argv, self.env
            else:
                out = os.path.join(self.workdir, "child-trace.json")
                cmd = [sys.executable, self.child] + argv
                env = dict(self.env, PERFBENCH_TRACE_OUT=out)
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=env, capture_output=True, timeout=120
            )
            if tracer is not None:
                tracer.merge(out, start, time.perf_counter())
            self.bytes_out += len(proc.stdout)
            return proc

        return run


def make(name):
    return {"build": Build, "enumerate": Enumerate, "derive": Derive, "cli": Cli}[name]()
