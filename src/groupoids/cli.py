"""Command line front end.

Documents are JSON objects with a "kind" of groupoid, morphism, or
action.  Multiplication rows on the wire are [a, b, ab]; morphism graph
pairs are [output, input]; action triples are [output, element, input].
Serialization is canonical: sorted keys, sorted arrays, two-space
indent, trailing newline.  Exit codes: 0 for success or a true answer,
1 for well-formed input that fails validation or a false answer, 2 for
usage, IO, or parse problems.
"""

import argparse
import json
import os
import sys

from . import action as action_ops
from . import bisection as bisection_ops
from . import morphism as morphism_ops
from . import search as search_ops
from .builders import (
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_form,
    set_groupoid,
    symmetric_table,
    transformation_groupoid,
    trivial_table,
)
from .errors import AlgebraError, DocumentError, UniverseError
from .groupoid import Groupoid, SubgroupoidRef, cartesian_product, disjoint_union
from .relation import Universe

KINDS = ("groupoid", "morphism", "action")


# -- documents --------------------------------------------------------


def serialize(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _line_of(text, token):
    needle = json.dumps(token)
    for i, line in enumerate(text.splitlines(), 1):
        if needle in line:
            return i
    return None


def _check_name(x, known, what, where, text, name):
    """x itself when it is a string in known; a DocumentError otherwise."""
    if not isinstance(x, str):
        raise DocumentError(
            f"{name}: {what} {json.dumps(x)} in {where} is not a string",
            line=_line_of(text, x),
        )
    if x not in known:
        raise DocumentError(
            f"{name}: unknown {what} {x!r} in {where}", line=_line_of(text, x)
        )
    return x


def _need(payload, key, types, where):
    if key not in payload:
        raise DocumentError(f"{where}: missing key {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        raise DocumentError(f"{where}: key {key!r} has the wrong type")
    return value


def load_payload(path):
    """Read a document; returns (payload, raw text, base directory)."""
    if path == "-":
        text = sys.stdin.read()
        base = os.getcwd()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise DocumentError(f"cannot read {path!r}: {err.strerror}")
        base = os.path.dirname(os.path.abspath(path))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"parse error: {err.msg}", line=err.lineno)
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    return payload, text, base


def groupoid_from_payload(payload, text) -> Groupoid:
    name = payload.get("name", "G")
    if not isinstance(name, str):
        raise DocumentError("groupoid name must be a string")
    elements = _need(payload, "elements", list, name)
    if not all(isinstance(x, str) for x in elements):
        raise DocumentError(f"{name}: elements must be strings")
    if len(set(elements)) != len(elements):
        raise DocumentError(f"{name}: duplicate elements")
    known = set(elements)

    def member(x, where):
        return _check_name(x, known, "element", where, text, name)

    units = _need(payload, "units", list, name)
    for e in units:
        member(e, "units")
    inverse = _need(payload, "inverse", dict, name)
    for g, sg in inverse.items():
        member(g, "inverse")
        if not isinstance(sg, str):
            raise DocumentError(f"{name}: inverse of {g!r} must be a string")
        member(sg, "inverse")
    compose_rows = _need(payload, "compose", list, name)
    table = []
    for row in compose_rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise DocumentError(f"{name}: compose rows must be [a, b, ab]")
        a, b, ab = row
        for x in (a, b, ab):
            member(x, "compose table")
        table.append((ab, a, b))
    return Groupoid(name, Universe(name, tuple(elements)), units, inverse, table)


def resolve_groupoid(ref, text, base):
    """A groupoid named inline or by path inside another document."""
    if isinstance(ref, str):
        return _load(ref, "groupoid", base)
    if isinstance(ref, dict):
        return groupoid_from_payload(ref, text)
    raise DocumentError("groupoid reference must be a path or an object")


def morphism_from_payload(payload, text, base):
    name = payload.get("name", "h")
    source = resolve_groupoid(_need(payload, "source", (str, dict), name), text, base)
    target = resolve_groupoid(_need(payload, "target", (str, dict), name), text, base)
    rows = _need(payload, "graph", list, name)
    graph = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2):
            raise DocumentError(f"{name}: graph rows must be [output, input]")
        d, g = row
        _check_name(d, target.elements, "element", "graph", text, name)
        _check_name(g, source.elements, "element", "graph", text, name)
        graph.append((d, g))
    return morphism_ops.Morphism(source, target, graph), name


def action_from_payload(payload, text, base):
    name = payload.get("name", "phi")
    groupoid = resolve_groupoid(
        _need(payload, "groupoid", (str, dict), name), text, base
    )
    points = _need(payload, "carrier", list, name)
    if not all(isinstance(x, str) for x in points):
        raise DocumentError(f"{name}: carrier points must be strings")
    if len(set(points)) != len(points):
        raise DocumentError(f"{name}: duplicate carrier points")
    carrier = Universe(f"{name}.carrier", tuple(points))
    rows = _need(payload, "graph", list, name)
    triples = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise DocumentError(f"{name}: graph rows must be [output, element, input]")
        y, g, x = row
        for point in (y, x):
            _check_name(point, carrier, "point", "graph", text, name)
        _check_name(g, groupoid.elements, "element", "graph", text, name)
        triples.append((y, g, x))
    return action_ops.Action(groupoid, carrier, triples), name


def payload_of_groupoid(g: Groupoid) -> dict:
    return {
        "kind": "groupoid",
        "name": str(g.name),
        "elements": sorted(g.elements),
        "units": sorted(g.units),
        "inverse": {a: g.inverse[a] for a in sorted(g.elements)},
        "compose": sorted([a, b, c] for (c, a, b) in g.table),
    }


def payload_of_morphism(h, name="h") -> dict:
    return {
        "kind": "morphism",
        "name": name,
        "source": payload_of_groupoid(h.source),
        "target": payload_of_groupoid(h.target),
        "graph": sorted([d, g] for (d, g) in h.graph),
    }


def payload_of_action(a, name="phi") -> dict:
    return {
        "kind": "action",
        "name": name,
        "groupoid": payload_of_groupoid(a.groupoid),
        "carrier": sorted(a.carrier),
        "graph": sorted([y, g, x] for (y, g, x) in a.triples),
    }


def emit(args, payload) -> int:
    text = serialize(payload)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- small helpers ------------------------------------------------------


def _plural(n, word):
    return f"{n} {word}" if n == 1 else f"{n} {word}s"


def _table_from_token(token):
    """A group table from a spec like cyclic:4, symmetric:3, klein, trivial."""
    head, _, tail = token.partition(":")
    if head in ("cyclic", "symmetric"):
        try:
            order = int(tail)
        except ValueError:
            raise DocumentError(
                f"group order in {token!r} is not an integer"
            ) from None
        return cyclic_table(order) if head == "cyclic" else symmetric_table(order)
    if head == "klein":
        return klein_table()
    if head == "trivial":
        return trivial_table()
    raise DocumentError(f"unknown group family {token!r}")


def _load(path, kind, base=None):
    """The structure in the document at path, which must be of this kind;
    a morphism or action comes with its document name.  A relative path
    is read from base when one is given."""
    where = path if base is None or path == "-" else os.path.join(base, path)
    payload, text, subbase = load_payload(where)
    if payload["kind"] != kind:
        article = "an" if kind == "action" else "a"
        raise DocumentError(f"{path}: expected {article} {kind} document")
    if kind == "groupoid":
        return groupoid_from_payload(payload, text)
    reader = morphism_from_payload if kind == "morphism" else action_from_payload
    return reader(payload, text, subbase)


def _argv_universe(name, points) -> Universe:
    """A universe of points given on the command line; a duplicate point
    is a usage error."""
    try:
        return Universe(name, tuple(points))
    except UniverseError as err:
        raise DocumentError(str(err)) from None


# -- command handlers ---------------------------------------------------


def cmd_build(args) -> int:
    try:
        g = _build(args)
    except UniverseError as err:
        raise DocumentError(str(err)) from None
    return emit(args, payload_of_groupoid(g))


def _build(args) -> Groupoid:
    family = args.family
    if family == "pair":
        name = args.name or f"P{len(args.points)}"
        g = pair_groupoid(Universe(name, tuple(args.points)), name)
    elif family == "set":
        name = args.name or f"S{len(args.points)}"
        g = set_groupoid(Universe(name, tuple(args.points)), name)
    elif family == "group":
        table = _table_from_token(args.group)
        g = group_groupoid(table, args.name)
    elif family == "bundle":
        tables = [_table_from_token(tok) for tok in args.groups]
        g = group_bundle(tables, args.name)
    elif family == "equiv":
        blocks = [tuple(block.split(",")) for block in args.block]
        points = tuple(dict.fromkeys(x for block in blocks for x in block))
        name = args.name or f"E{len(points)}"
        g = equivalence_groupoid(Universe(name, points), blocks, name)
    elif family == "product-form":
        space = Universe(args.name or "base", tuple(args.points))
        g = product_form(space, _table_from_token(args.group), args.name)
    else:
        space = Universe("space", tuple(args.points))
        act = {(g_, x): y for g_, x, y in args.move}
        g = transformation_groupoid(
            _table_from_token(args.group), space, act, args.name
        )
    return g


def cmd_validate(args) -> int:
    payload, text, base = load_payload(args.path)
    kind = payload["kind"]
    try:
        if kind == "groupoid":
            g = groupoid_from_payload(payload, text)
            print(
                f"valid: {_plural(len(g.elements), 'element')}, "
                f"{_plural(len(g.units), 'unit')}, "
                f"{_plural(len(g.orbits()), 'orbit')}"
            )
        elif kind == "morphism":
            h, _ = morphism_from_payload(payload, text, base)
            print(f"valid: morphism, {_plural(len(h.graph), 'pair')}")
        else:
            a, _ = action_from_payload(payload, text, base)
            print(f"valid: action, {_plural(len(a.triples), 'triple')}")
    except DocumentError:
        raise
    except AlgebraError as err:
        print(f"invalid: {err}")
        return 1
    return 0


def cmd_info(args) -> int:
    payload, text, base = load_payload(args.path)
    kind = payload["kind"]
    if kind == "groupoid":
        g = groupoid_from_payload(payload, text)
        blocks = g.orbits()
        print(f"name: {g.name}")
        print(f"elements: {len(g.elements)}")
        print(f"units: {len(g.units)}")
        print(f"orbits: {len(blocks)}")
        print("orbit sizes:", " ".join(str(len(b)) for b in blocks))
        print(
            "isotropy orders:",
            " ".join(str(len(g.isotropy(min(b)).members)) for b in blocks),
        )
        print("transitive:", "yes" if len(blocks) == 1 else "no")
    elif kind == "morphism":
        h, name = morphism_from_payload(payload, text, base)
        print(f"name: {name}")
        print(f"source: {h.source.name}")
        print(f"target: {h.target.name}")
        print(f"pairs: {len(h.graph)}")
        print(f"domain: {len(h.domain_elements)} of {len(h.source.elements)}")
        print(f"image: {len(h.image_elements)} of {len(h.target.elements)}")
        print("mono:", "yes" if morphism_ops.is_mono(h) else "no")
        print("surjective:", "yes" if morphism_ops.is_surjective(h) else "no")
        print("kernel:", " ".join(sorted(h.kernel_members)))
    else:
        a, name = action_from_payload(payload, text, base)
        print(f"name: {name}")
        print(f"groupoid: {a.groupoid.name}")
        print(f"carrier: {len(a.carrier)}")
        print(f"triples: {len(a.triples)}")
        print(f"domain pairs: {len(a.domain)}")
    return 0


def cmd_restrict(args) -> int:
    g = _load(args.path, "groupoid")
    return emit(args, payload_of_groupoid(g.restrict(args.units)))


def cmd_union(args) -> int:
    g1 = _load(args.left, "groupoid")
    g2 = _load(args.right, "groupoid")
    return emit(args, payload_of_groupoid(disjoint_union(g1, g2)))


def cmd_product(args) -> int:
    g1 = _load(args.left, "groupoid")
    g2 = _load(args.right, "groupoid")
    return emit(args, payload_of_groupoid(cartesian_product(g1, g2)))


def cmd_decompose(args) -> int:
    g = _load(args.path, "groupoid")
    blocks = g.orbits()
    print(f"components: {len(blocks)}")
    for block in blocks:
        sub = g if len(blocks) == 1 else g.restrict(block)
        base, table, phi = sub.decompose_transitive()
        print(f"component {min(block)}:")
        print("  units:", " ".join(sorted(base)))
        print(f"  isotropy order: {len(table)}")
        for key in sorted(phi):
            print(f"  {key} -> {phi[key]}")
    return 0


def cmd_morphism(args) -> int:
    op = args.op
    if op == "compose":
        outer, oname = _load(args.outer, "morphism")
        inner, iname = _load(args.inner, "morphism")
        composite = morphism_ops.compose_morphisms(outer, inner)
        return emit(args, payload_of_morphism(composite, f"{oname}.{iname}"))
    h, name = _load(args.path, "morphism")
    if op == "validate":
        print(f"valid: morphism, {_plural(len(h.graph), 'pair')}")
        return 0
    if op == "kernel":
        for g in sorted(h.kernel_members):
            print(g)
        return 0
    if op == "mono":
        if morphism_ops.is_mono(h):
            print("mono: kernel is the unit set")
            return 0
        print("not mono: kernel", " ".join(sorted(h.kernel_members)))
        return 1
    if op == "surjective":
        if morphism_ops.is_surjective(h):
            print("surjective")
            return 0
        missing = sorted(set(h.target.elements) - set(h.image_elements))
        print("not surjective: missing", " ".join(missing))
        return 1
    if op == "epi-witness":
        witness = morphism_ops.find_non_epi_witness(h)
        if witness is None:
            print("no witness found")
            return 1
        print(f"witness probe: {witness.probe.name}")
        print("w1:", json.dumps(sorted([d, g] for d, g in witness.w1.graph)))
        print("w2:", json.dumps(sorted([d, g] for d, g in witness.w2.graph)))
        return 0
    if op == "factor":
        epi, mono = morphism_ops.epi_mono_factorization(h)
        payload = {
            "epi": payload_of_morphism(epi, f"{name}.epi"),
            "mono": payload_of_morphism(mono, f"{name}.mono"),
        }
        return emit(args, payload)
    e0, hom = morphism_ops.classify_into_group(h)
    print(f"base unit: {e0}")
    for g in sorted(hom):
        print(f"{g} -> {hom[g]}")
    return 0


def _list_bisections(g) -> int:
    found = bisection_ops.all_bisections(g)
    print(_plural(len(found), "bisection"))
    for b in found:
        print(json.dumps(sorted(b.members)))
    return 0


def cmd_bisections(args) -> int:
    g = _load(args.path, "groupoid")
    if args.op == "list":
        return _list_bisections(g)
    if args.op == "group":
        table = bisection_ops.bisection_group(g)
        print(f"order {len(table)}")
        for a in table.elements:
            for b in table.elements:
                print(f"{a} * {b} = {table.mult(a, b)}")
        return 0
    b = bisection_ops.Bisection(g, args.members)
    return emit(args, payload_of_morphism(bisection_ops.ad(b), "ad"))


def cmd_action(args) -> int:
    op = args.op
    if op in ("validate", "to-morphism", "groupoid", "classify", "homogeneous"):
        a, name = _load(args.path, "action")
        if op == "validate":
            print(f"valid: action, {_plural(len(a.triples), 'triple')}")
            return 0
        if op == "to-morphism":
            h = action_ops.action_to_pair_morphism(a)
            return emit(args, payload_of_morphism(h, f"{name}.pairs"))
        if op == "groupoid":
            return emit(args, payload_of_groupoid(action_ops.action_groupoid(a)))
        if op == "classify":
            space = _argv_universe("base", args.points)
            table = _table_from_token(args.group)
            fiber, fiber_act, psi = action_ops.classify_transitive_action(
                space, table, a, args.basepoint
            )
            print("fiber:", " ".join(sorted(fiber)))
            for g, z in sorted(fiber_act):
                print(f"{g} . {z} = {fiber_act[(g, z)]}")
            for key in sorted(psi):
                print(f"psi {key} -> {psi[key]}")
            return 0
        section = {e: x for e, x in args.fix}
        ref, psi = action_ops.homogeneous_identification(a, section)
        print("subgroupoid:", " ".join(sorted(ref.members)))
        for x in sorted(psi):
            print(f"psi {x} -> {psi[x]}")
        return 0
    if op == "from-morphism":
        h, name = _load(args.path, "morphism")
        carrier = _argv_universe(f"{name}.carrier", args.carrier)
        a = action_ops.morphism_to_action(h, carrier)
        return emit(args, payload_of_action(a, name))
    g = _load(args.path, "groupoid")
    if op == "coset":
        space = action_ops.coset_space(g, frozenset(args.members))
        return emit(args, payload_of_action(space.action, "coset"))
    if op == "quotient":
        quotient, _ = action_ops.quotient_groupoid(g, frozenset(args.members))
        return emit(args, payload_of_groupoid(quotient))
    sub_action, _ = _load(args.action, "action")
    carrier, induced = action_ops.induced_action(
        g, frozenset(args.members), sub_action
    )
    return emit(args, payload_of_action(induced, "induced"))


def cmd_enum(args) -> int:
    if args.what == "morphisms":
        src = _load(args.source, "groupoid")
        tgt = _load(args.target, "groupoid")
        if args.naive:
            budget = search_ops.EnumBudget(
                max_pairs=args.max_pairs,
                max_candidates=args.max_candidates,
                override=args.override,
            )
            found = search_ops.enum_morphisms_naive(src, tgt, budget)
        else:
            found = search_ops.enum_morphisms(src, tgt)
        print(_plural(len(found), "morphism"))
        for h in found:
            print(json.dumps(sorted([d, g] for d, g in h.graph)))
        return 0
    if args.what == "actions":
        g = _load(args.source, "groupoid")
        carrier = _argv_universe("carrier", args.carrier)
        if args.direct:
            found = search_ops.enum_actions_direct(g, carrier)
        else:
            found = search_ops.enum_actions(g, carrier)
        print(_plural(len(found), "action"))
        for a in found:
            print(json.dumps(sorted([y, g_, x] for y, g_, x in a.triples)))
        return 0
    return _list_bisections(_load(args.source, "groupoid"))


# -- parser -------------------------------------------------------------


def _add_output(parser):
    parser.add_argument("--output", help="write the resulting document here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="Finite groupoids as relations: build, validate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a groupoid document")
    bsub = build.add_subparsers(dest="family", required=True)
    for fam in ("pair", "set"):
        fp = bsub.add_parser(fam)
        fp.add_argument("points", nargs="+")
        fp.add_argument("--name")
        _add_output(fp)
        fp.set_defaults(func=cmd_build)
    fg = bsub.add_parser("group")
    fg.add_argument("group", help="cyclic:N, symmetric:N, klein, or trivial")
    fg.add_argument("--name")
    _add_output(fg)
    fg.set_defaults(func=cmd_build)
    fb = bsub.add_parser("bundle")
    fb.add_argument("groups", nargs="+", help="one group family token per fiber")
    fb.add_argument("--name")
    _add_output(fb)
    fb.set_defaults(func=cmd_build)
    fe = bsub.add_parser("equiv")
    fe.add_argument("--block", action="append", required=True,
                    help="comma-separated block, repeatable")
    fe.add_argument("--name")
    _add_output(fe)
    fe.set_defaults(func=cmd_build)
    ff = bsub.add_parser("product-form")
    ff.add_argument("points", nargs="+")
    ff.add_argument("--group", required=True)
    ff.add_argument("--name")
    _add_output(ff)
    ff.set_defaults(func=cmd_build)
    ft = bsub.add_parser("transformation")
    ft.add_argument("points", nargs="+")
    ft.add_argument("--group", required=True)
    ft.add_argument("--move", action="append", nargs=3, required=True,
                    metavar=("G", "X", "Y"), help="g moves x to y, repeatable")
    ft.add_argument("--name")
    _add_output(ft)
    ft.set_defaults(func=cmd_build)

    v = sub.add_parser("validate", help="check a document against the axioms")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    i = sub.add_parser("info", help="print a structural summary")
    i.add_argument("path")
    i.set_defaults(func=cmd_info)

    r = sub.add_parser("restrict", help="full subgroupoid over chosen units")
    r.add_argument("path")
    r.add_argument("units", nargs="+")
    _add_output(r)
    r.set_defaults(func=cmd_restrict)

    u = sub.add_parser("union", help="disjoint union of two groupoids")
    u.add_argument("left")
    u.add_argument("right")
    _add_output(u)
    u.set_defaults(func=cmd_union)

    x = sub.add_parser("product", help="cartesian product of two groupoids")
    x.add_argument("left")
    x.add_argument("right")
    _add_output(x)
    x.set_defaults(func=cmd_product)

    d = sub.add_parser("decompose", help="units x isotropy x units form per component")
    d.add_argument("path")
    d.set_defaults(func=cmd_decompose)

    m = sub.add_parser("morphism", help="operations on morphism documents")
    msub = m.add_subparsers(dest="op", required=True)
    mc = msub.add_parser("compose")
    mc.add_argument("outer")
    mc.add_argument("inner")
    _add_output(mc)
    mc.set_defaults(func=cmd_morphism)
    for op in ("validate", "kernel", "mono", "surjective", "epi-witness",
               "classify-into-group"):
        mp = msub.add_parser(op)
        mp.add_argument("path")
        mp.set_defaults(func=cmd_morphism)
    mf = msub.add_parser("factor")
    mf.add_argument("path")
    _add_output(mf)
    mf.set_defaults(func=cmd_morphism)

    bi = sub.add_parser("bisections", help="bisections of a groupoid")
    bisub = bi.add_subparsers(dest="op", required=True)
    for op in ("list", "group"):
        bp = bisub.add_parser(op)
        bp.add_argument("path")
        bp.set_defaults(func=cmd_bisections)
    ba = bisub.add_parser("ad")
    ba.add_argument("path")
    ba.add_argument("members", nargs="+")
    _add_output(ba)
    ba.set_defaults(func=cmd_bisections)

    a = sub.add_parser("action", help="operations on action documents")
    asub = a.add_subparsers(dest="op", required=True)
    for op in ("validate",):
        ap = asub.add_parser(op)
        ap.add_argument("path")
        ap.set_defaults(func=cmd_action)
    at = asub.add_parser("to-morphism")
    at.add_argument("path")
    _add_output(at)
    at.set_defaults(func=cmd_action)
    af = asub.add_parser("from-morphism")
    af.add_argument("path")
    af.add_argument("--carrier", nargs="+", required=True)
    _add_output(af)
    af.set_defaults(func=cmd_action)
    ag = asub.add_parser("groupoid")
    ag.add_argument("path")
    _add_output(ag)
    ag.set_defaults(func=cmd_action)
    ac = asub.add_parser("coset")
    ac.add_argument("path")
    ac.add_argument("members", nargs="+")
    _add_output(ac)
    ac.set_defaults(func=cmd_action)
    aq = asub.add_parser("quotient")
    aq.add_argument("path")
    aq.add_argument("members", nargs="+")
    _add_output(aq)
    aq.set_defaults(func=cmd_action)
    ai = asub.add_parser("induce")
    ai.add_argument("path")
    ai.add_argument("action")
    ai.add_argument("--members", nargs="+", required=True)
    _add_output(ai)
    ai.set_defaults(func=cmd_action)
    al = asub.add_parser("classify")
    al.add_argument("path")
    al.add_argument("--points", nargs="+", required=True)
    al.add_argument("--group", required=True)
    al.add_argument("--basepoint")
    al.set_defaults(func=cmd_action)
    ah = asub.add_parser("homogeneous")
    ah.add_argument("path")
    ah.add_argument("--fix", action="append", nargs=2, required=True,
                    metavar=("UNIT", "POINT"))
    ah.set_defaults(func=cmd_action)

    e = sub.add_parser("enum", help="exhaustive enumeration")
    esub = e.add_subparsers(dest="what", required=True)
    em = esub.add_parser("morphisms")
    em.add_argument("source")
    em.add_argument("target")
    em.add_argument("--naive", action="store_true")
    em.add_argument("--max-pairs", type=int, default=20)
    em.add_argument("--max-candidates", type=int, default=2 ** 20)
    em.add_argument("--override", action="store_true")
    em.set_defaults(func=cmd_enum)
    ea = esub.add_parser("actions")
    ea.add_argument("source")
    ea.add_argument("--carrier", nargs="+", required=True)
    ea.add_argument("--direct", action="store_true")
    ea.set_defaults(func=cmd_enum)
    eb = esub.add_parser("bisections")
    eb.add_argument("source")
    eb.set_defaults(func=cmd_enum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AlgebraError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
