"""The public API's outputs on a fixed input grid, one canonical text per
label, kept as SHA-256 digests in api_grid.json.

    python3 tests/api_grid.py

prints the grid's digests as JSON, one per label, in grid order.
tests/record_api_grid.py runs this in child processes under several
hash seeds and writes api_grid.json; test_api_grid.py replays the grid
in process and names the first labels whose digest differs.

Each output is written in one canonical text form: names in the order
the call gives them, rows in index order, and for a refusal its type
and message (with law and offender for an AxiomViolation).

This grid covers the bisection layer.  For each groupoid of the catalog,
P1-P5, Pair(W) on the points a, a+ and b (its units in name order are
not in index order), Pair(W) x Z2, the empty groupoid and 20 seeded
generated groupoids with at most 64 bisections, it records:

- the all_bisections labels, in order;
- bisection_group: its elements, unit, inverses and rows;
- each of _twists, in order, as a named graph;
- ad(b) for each bisection b;
- induced_hom of the identity;
- is_bisection on every bisection, and on each change of one member of
  the first bisection to another element;
- the guard's refusal at the bisection count;
- Bisection and is_bisection on a set of names that are not elements.
"""

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "api_grid.json")

GENERATED = 20
MAX_BISECTIONS = 64
UNKNOWN = frozenset(f"{c}{c}" for c in "zyxwvu")


def _refusal(err) -> str:
    text = f"{type(err).__name__}: {err}"
    law = getattr(err, "law", None)
    if law is not None:
        text += f"\nlaw {law!r} offender {err.offender!r}"
    return text


def _outcome(call) -> str:
    from groupoids.errors import AlgebraError

    try:
        return repr(call())
    except AlgebraError as err:
        return _refusal(err)


def _named_rows(source, target, rows) -> str:
    """Mask rows as lines "g -> h1+h2", in index order."""
    from groupoids.relation import _bits

    return "\n".join(
        f"{source._names[i]} -> " + "+".join(target._names[j] for j in _bits(rows[i]))
        for i in sorted(rows)
    )


def _generated(seed):
    """A seeded groupoid of 1-3 components X x G x X, as oracles'
    generated_groupoids draws them, renamed onto a plain universe or a
    product universe whose index order is not its name order."""
    from oracles import SMALL_GROUPS, renamed

    from groupoids.builders import product_form
    from groupoids.groupoid import disjoint_union
    from groupoids.relation import Universe, product_universe

    rng = random.Random(seed)
    parts, size = [], 0
    for _ in range(rng.randint(1, 3)):
        fits = [
            (n, t) for n in (1, 2, 3) for t in SMALL_GROUPS
            if size + n * n * len(t) <= 18
        ]
        if not fits:
            break
        n, table = rng.choice(fits)
        parts.append(product_form(Universe(f"X{n}", "xyz"[:n]), table))
        size += n * n * len(table)
    whole = parts[0]
    for part in parts[1:]:
        whole = disjoint_union(whole, part)
    labels = Universe("L", [f"{i // 2}{'+' * (i % 2)}" for i in range(size)])
    universe = labels
    if rng.random() < 0.5:
        universe = product_universe(labels, Universe("R", ("0",)))
    names = list(universe.names)
    rng.shuffle(names)
    rename = dict(zip(whole.elements, names))
    return renamed(whole, rename, universe, f"gen{seed}")


def groupoids() -> list:
    """(key, groupoid) pairs of the grid, each built anew."""
    from conftest import build_catalog
    from oracles import bisection_count_reference

    from groupoids.builders import (
        cyclic_table,
        group_groupoid,
        pair_groupoid,
        set_groupoid,
    )
    from groupoids.groupoid import cartesian_product
    from groupoids.relation import Universe

    out = list(build_catalog().items())
    for n in range(1, 6):
        out.append((f"pair{n}", pair_groupoid(Universe(f"X{n}", "12345"[:n]))))
    pair_w = pair_groupoid(Universe("W", ("a", "a+", "b")), "PW")
    out.append(("PW", pair_w))
    out.append(("PWxZ2", cartesian_product(pair_w, group_groupoid(cyclic_table(2)))))
    out.append(("empty", set_groupoid(Universe("none", ()))))
    seed, made = 0, 0
    while made < GENERATED:
        g = _generated(seed)
        if bisection_count_reference(g) <= MAX_BISECTIONS:
            out.append((f"gen{seed}", g))
            made += 1
        seed += 1
    return out


def _group_text(table) -> str:
    lines = [table.name, " ".join(table.elements), f"unit {table.unit}"]
    lines.append(" ".join(f"{g}^-1={table.inv[g]}" for g in table.elements))
    lines += [" ".join(map(str, row)) for row in table.rows]
    return "\n".join(lines)


def outputs():
    """(label, text) of every call of the grid, in order."""
    from groupoids import bisection
    from groupoids.bisection import (
        Bisection,
        ad,
        all_bisections,
        bisection_group,
        induced_hom,
        is_bisection,
    )
    from groupoids.morphism import identity_morphism

    for key, g in groupoids():
        bs = all_bisections(g)
        yield f"{key}/all_bisections", "\n".join(b.label for b in bs)
        table = _outcome(lambda: _group_text(bisection_group(g)))
        yield f"{key}/bisection_group", table
        for k, twist in enumerate(bisection._twists(g)):
            yield f"{key}/twist/{k}", _named_rows(g, g, twist)
        for b in bs:
            h = ad(b)
            yield f"{key}/ad/{b.label}", _named_rows(h.source, h.target, h._rows)
        hom = induced_hom(identity_morphism(g))
        images = (f"{b.label} -> {v.label}" for b, v in hom.items())
        yield f"{key}/induced_hom", "\n".join(images)
        for b in bs:
            verdict = _outcome(lambda: is_bisection(g, b.members))
            yield f"{key}/is_bisection/{b.label}", verdict
        first = sorted(bs[0].members)
        for m in first:
            for x in g.elements:
                if x not in bs[0].members:
                    changed = (bs[0].members - {m}) | {x}
                    yield (
                        f"{key}/is_bisection/{m}->{x}",
                        _outcome(lambda: is_bisection(g, changed)),
                    )
        count = len(bs)
        yield f"{key}/guard", _outcome(lambda: bisection_group(g, guard=count))
        for call in (Bisection, is_bisection):
            refusal = _outcome(lambda: call(g, UNKNOWN))
            yield f"{key}/unknown/{call.__name__}", refusal


def digests() -> dict:
    """{label: SHA-256 of its text}, in grid order; labels are unique."""
    out = {}
    for label, text in outputs():
        assert label not in out, label
        out[label] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    json.dump(digests(), sys.stdout, indent=0)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
