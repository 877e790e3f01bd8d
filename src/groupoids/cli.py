"""Command line front end.

Documents are JSON objects with a "kind" of groupoid, morphism, or
action.  Multiplication rows on the wire are [a, b, ab]; morphism graph
pairs are [output, input]; action triples are [output, element, input].
Serialization is canonical: sorted keys, sorted arrays, two-space
indent, trailing newline.  Exit codes: 0 for success or a true answer,
1 for well-formed input that fails validation or a false answer, 2 for
usage, IO, or parse problems.

A process compiles and makes only what its command reaches.  At
module level this file imports the standard library and errors.py
alone.  Input is checked before the algebra is imported:
- a document's shape by `load_payload`, `_names`, `_need`, `_rows` and
  `_check_name`; relation.py and groupoid.py are imported where the
  structure is built, and morphism.py or action.py after its rows;
- argv's group tokens by `_group_order`, its point lists by `_universe`
  (which imports relation.py), and a `build`'s size by its count of
  composable pairs; builders.py is imported after these;
- each handler imports the morphism, action, bisection or search module
  it uses after its documents have loaded.
So a malformed document or argv loads only the package, this module and
errors.py, and relation.py where a `Universe` refuses.

`build_parser` makes the top-level parser and registers each command's
name and help line.  A command's parser, and a group's subcommands, are
made when argparse looks them up: `validate` makes two parsers, and
`enum morphisms` three.
"""

import argparse
import functools
import json
import math
import os
import sys

from .errors import AlgebraError, DocumentError, PreconditionFailed, UniverseError

KINDS = ("groupoid", "morphism", "action")
TOO_DEEP = "document nested too deeply"
# the most products a cyclic:n or symmetric:n table, or composable pairs
# a built groupoid, may have: Z1024 and S6 build, and S7's 25,401,600
# products would exhaust memory before any law is checked
MAX_TABLE_PRODUCTS = 2**20


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
    """A DocumentError unless x is a string in known."""
    if not isinstance(x, str):
        raise DocumentError(
            f"{name}: {what} {json.dumps(x)} in {where} is not a string",
            line=_line_of(text, x),
        )
    if x not in known:
        raise DocumentError(
            f"{name}: unknown {what} {x!r} in {where}", line=_line_of(text, x)
        )


def _need(payload, key, types, where):
    if key not in payload:
        raise DocumentError(f"{where}: missing key {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        raise DocumentError(f"{where}: key {key!r} has the wrong type")
    return value


def _names(payload, key, what, name):
    """The list under key: distinct strings, named what in errors."""
    names = _need(payload, key, list, name)
    if not all(isinstance(x, str) for x in names):
        raise DocumentError(f"{name}: {what} must be strings")
    if len(set(names)) != len(names):
        raise DocumentError(f"{name}: duplicate {what}")
    return names


def _rows(payload, key, where, columns, text, name):
    """The rows under key as tuples.  columns holds one (label, known
    names, what) per column; each row is a list with one name of each."""
    form = ", ".join(label for label, _, _ in columns)
    rows = []
    for row in _need(payload, key, list, name):
        if not (isinstance(row, list) and len(row) == len(columns)):
            raise DocumentError(f"{name}: {key} rows must be [{form}]")
        for x, (_, known, what) in zip(row, columns):
            _check_name(x, known, what, where, text, name)
        rows.append(tuple(row))
    return rows


def load_payload(path):
    """Read a document; returns (payload, raw text, base directory)."""
    try:
        if path == "-":
            text, base = sys.stdin.read(), os.getcwd()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            base = os.path.dirname(os.path.abspath(path))
    except OSError as err:
        raise DocumentError(f"cannot read {path!r}: {err.strerror}")
    except UnicodeDecodeError:
        raise DocumentError(f"cannot read {path!r}: not UTF-8 text") from None
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise DocumentError("document must be a JSON object")
        kind = payload.get("kind")
        if kind not in KINDS:
            raise DocumentError(f"unknown document kind {kind!r}")
    except json.JSONDecodeError as err:
        raise DocumentError(f"parse error: {err.msg}", line=err.lineno)
    except RecursionError:
        raise DocumentError(TOO_DEEP) from None
    return payload, text, base


def _document_name(payload, kind, default):
    name = payload.get("name", default)
    if not isinstance(name, str):
        raise DocumentError(f"{kind} name must be a string")
    return name


def groupoid_from_payload(payload, text):
    name = _document_name(payload, "groupoid", "G")
    elements = _names(payload, "elements", "elements", name)
    known = set(elements)
    units = _need(payload, "units", list, name)
    for e in units:
        _check_name(e, known, "element", "units", text, name)
    inverse = _need(payload, "inverse", dict, name)
    for g, sg in inverse.items():
        _check_name(g, known, "element", "inverse", text, name)
        if not isinstance(sg, str):
            raise DocumentError(f"{name}: inverse of {g!r} must be a string")
        _check_name(sg, known, "element", "inverse", text, name)
    columns = [(label, known, "element") for label in ("a", "b", "ab")]
    rows = _rows(payload, "compose", "compose table", columns, text, name)
    table = [(ab, a, b) for a, b, ab in rows]
    from .groupoid import Groupoid
    from .relation import Universe

    return Groupoid(name, Universe(name, tuple(elements)), units, inverse, table)


def resolve_groupoid(ref, text, base):
    """A groupoid named inline or by path inside another document."""
    if isinstance(ref, str):
        return _load(ref, "groupoid", base)[0]
    return groupoid_from_payload(ref, text)


def morphism_from_payload(payload, text, base):
    name = _document_name(payload, "morphism", "h")
    source = resolve_groupoid(_need(payload, "source", (str, dict), name), text, base)
    target = resolve_groupoid(_need(payload, "target", (str, dict), name), text, base)
    columns = [
        ("output", target.elements, "element"), ("input", source.elements, "element"),
    ]
    graph = _rows(payload, "graph", "graph", columns, text, name)
    from .morphism import Morphism

    return Morphism(source, target, graph), name


def action_from_payload(payload, text, base):
    name = _document_name(payload, "action", "phi")
    groupoid = resolve_groupoid(
        _need(payload, "groupoid", (str, dict), name), text, base
    )
    points = _names(payload, "carrier", "carrier points", name)
    from .relation import Universe

    carrier = Universe(f"{name}.carrier", tuple(points))
    element = ("element", groupoid.elements, "element")
    columns = [("output", carrier, "point"), element, ("input", carrier, "point")]
    triples = _rows(payload, "graph", "graph", columns, text, name)
    from .action import Action

    return Action(groupoid, carrier, triples), name


def _read(payload, text, base):
    """(structure, document name) of a loaded document of any kind.  JSON
    that parses just under the stack limit can overflow it here, when a
    nested value is formatted into an error."""
    try:
        if payload["kind"] == "groupoid":
            g = groupoid_from_payload(payload, text)
            return g, g.name
        if payload["kind"] == "morphism":
            return morphism_from_payload(payload, text, base)
        return action_from_payload(payload, text, base)
    except RecursionError:
        raise DocumentError(TOO_DEEP) from None


def _load(path, kind, base=None):
    """(structure, document name) at path, of this kind; relative to base if given."""
    where = path if base is None or path == "-" else os.path.join(base, path)
    payload, text, subbase = load_payload(where)
    if payload["kind"] != kind:
        article = "an" if kind == "action" else "a"
        raise DocumentError(f"{path}: expected {article} {kind} document")
    return _read(payload, text, subbase)


def _wire(rows) -> list:
    """Relation rows in their document form: lists, sorted."""
    return sorted(list(row) for row in rows)


def payload_of_groupoid(g) -> dict:
    return {
        "kind": "groupoid",
        "name": str(g.name),
        "elements": sorted(g.elements),
        "units": sorted(g.units),
        "inverse": {a: g.inverse[a] for a in sorted(g.elements)},
        "compose": _wire((a, b, c) for (c, a, b) in g.table),
    }


def payload_of_morphism(h, name="h") -> dict:
    return {
        "kind": "morphism",
        "name": name,
        "source": payload_of_groupoid(h.source),
        "target": payload_of_groupoid(h.target),
        "graph": _wire(h.graph),
    }


def payload_of_action(a, name="phi") -> dict:
    return {
        "kind": "action",
        "name": name,
        "groupoid": payload_of_groupoid(a.groupoid),
        "carrier": sorted(a.carrier),
        "graph": _wire(a.triples),
    }


def emit(args, payload) -> int:
    text = serialize(payload)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise DocumentError(f"cannot write {args.output!r}: {err.strerror}")
    else:
        # one large write that a closed pipe cuts short can report no
        # error; written line by line, the error reaches main
        sys.stdout.writelines(text.splitlines(keepends=True))
    return 0


# -- small helpers ------------------------------------------------------


def _plural(n, word):
    return f"{n} {word}" if n == 1 else f"{n} {word}s"


def _print_rows(word, rows) -> int:
    """A count line, then one JSON line per row."""
    print(_plural(len(rows), word))
    for row in rows:
        print(json.dumps(row))
    return 0


def _valid_line(s) -> str:
    from .groupoid import Groupoid  # loaded already with s

    if isinstance(s, Groupoid):
        sizes = [(s.elements, "element"), (s.units, "unit"), (s.orbits(), "orbit")]
        return "valid: " + ", ".join(_plural(len(x), word) for x, word in sizes)
    from .morphism import Morphism  # loaded already: s is a morphism or an action

    if isinstance(s, Morphism):
        return f"valid: morphism, {_plural(len(s.graph), 'pair')}"
    return f"valid: action, {_plural(len(s.triples), 'triple')}"


def _group_order(token) -> int:
    """The order of the group a spec like cyclic:4, symmetric:3, klein or
    trivial names, from the spec alone.  A DocumentError for an unknown
    family, an order that is not an integer, or a table past the bound;
    an order the family's builder refuses counts 0."""
    head, _, tail = token.partition(":")
    if head == "klein":
        return 4
    if head == "trivial":
        return 1
    if head not in ("cyclic", "symmetric"):
        raise DocumentError(f"unknown group family {token!r}")
    try:
        order = int(tail)
    except ValueError:
        raise DocumentError(f"group order in {token!r} is not an integer") from None
    if head == "symmetric":  # symmetric_table refuses n outside 1..9
        order = math.factorial(order) if 1 <= order <= 9 else 0
    order = max(order, 0)  # cyclic_table refuses n < 1
    if order * order > MAX_TABLE_PRODUCTS:
        raise DocumentError(
            f"group {token!r} is too large: its table has more than "
            f"{MAX_TABLE_PRODUCTS} products"
        )
    return order


def _table_from_token(token):
    """A group table from a spec like cyclic:4, symmetric:3, klein, trivial."""
    _group_order(token)
    from . import builders

    head, _, tail = token.partition(":")
    if head in ("cyclic", "symmetric"):
        make = builders.cyclic_table if head == "cyclic" else builders.symmetric_table
        return _argv(make, int(tail), wrong=PreconditionFailed)
    return builders.klein_table() if head == "klein" else builders.trivial_table()


def _argv(make, *args, wrong=UniverseError):
    """make(*args) on command-line values, where a `wrong` error is a usage error."""
    try:
        return make(*args)
    except wrong as err:
        raise DocumentError(str(err)) from None


def _universe(name, points):
    """The Universe of command-line points; a duplicate is a usage error."""
    from .relation import Universe

    return _argv(Universe, name, tuple(points))


# -- command handlers ---------------------------------------------------


def cmd_build(args) -> int:
    return emit(args, payload_of_groupoid(_argv(_build, args)))


def _build(args):
    """The groupoid of a `build` command.  Its universe and group specs are
    checked, and its composable pairs counted, from argv before the
    builders are imported; `make` then builds it from the builders."""
    family, name = args.family, args.name
    if family == "group":  # _group_order bounds a group's table
        pairs = _group_order(args.group) ** 2
        make = lambda b: b.group_groupoid(_table_from_token(args.group), name)
    elif family == "bundle":
        pairs = sum(_group_order(tok) ** 2 for tok in args.groups)
        make = lambda b: b.group_bundle(list(map(_table_from_token, args.groups)), name)
    elif family == "pair":
        space = _universe(name or f"P{len(args.points)}", args.points)
        pairs, make = len(space) ** 3, lambda b: b.pair_groupoid(space, space.name)
    elif family == "set":
        space = _universe(name or f"S{len(args.points)}", args.points)
        pairs, make = len(space), lambda b: b.set_groupoid(space, space.name)
    elif family == "equiv":
        blocks = [tuple(block.split(",")) for block in args.block]
        points = tuple(dict.fromkeys(x for block in blocks for x in block))
        space = _universe(name or f"E{len(points)}", points)
        pairs = sum(len(block) ** 3 for block in blocks)
        make = lambda b: b.equivalence_groupoid(space, blocks, space.name)
    elif family == "product-form":
        space = _universe(name or "base", args.points)
        pairs = len(space) ** 3 * _group_order(args.group) ** 2
        make = lambda b: b.product_form(space, _table_from_token(args.group), name)
    else:
        space = _universe("space", args.points)
        act = {}
        for g, x, y in args.move:
            if act.setdefault((g, x), y) != y:
                raise DocumentError(
                    f"--move gives ({g!r}, {x!r}) two images, {act[g, x]!r} and {y!r}"
                )
        pairs = _group_order(args.group) ** 2 * len(space)
        make = lambda b: b.transformation_groupoid(
            _table_from_token(args.group), space, act, name
        )
    if pairs > MAX_TABLE_PRODUCTS:
        raise DocumentError(
            f"{family} groupoid is too large: it has {pairs} composable pairs, "
            f"more than {MAX_TABLE_PRODUCTS}"
        )
    from . import builders

    return make(builders)


def cmd_validate(args) -> int:
    payload, text, base = load_payload(args.path)
    try:
        structure, _ = _read(payload, text, base)
    except DocumentError:
        raise
    except AlgebraError as err:
        print(f"invalid: {err}")
        return 1
    print(_valid_line(structure))
    return 0


def cmd_info(args) -> int:
    s, name = _read(*load_payload(args.path))
    from .groupoid import Groupoid  # loaded already with s

    print(f"name: {name}")
    if isinstance(s, Groupoid):
        blocks = s.orbits()
        print(f"elements: {len(s.elements)}")
        print(f"units: {len(s.units)}")
        print(f"orbits: {len(blocks)}")
        print("orbit sizes:", " ".join(str(len(b)) for b in blocks))
        print(
            "isotropy orders:",
            " ".join(str(len(s.isotropy(min(b)).members)) for b in blocks),
        )
        print("transitive:", "yes" if len(blocks) == 1 else "no")
        return 0
    from . import morphism as morphism_ops  # loaded already with s

    if isinstance(s, morphism_ops.Morphism):
        print(f"source: {s.source.name}")
        print(f"target: {s.target.name}")
        print(f"pairs: {len(s.graph)}")
        print(f"domain: {len(s.domain_elements)} of {len(s.source.elements)}")
        print(f"image: {len(s.image_elements)} of {len(s.target.elements)}")
        print("mono:", "yes" if morphism_ops.is_mono(s) else "no")
        print("surjective:", "yes" if morphism_ops.is_surjective(s) else "no")
        print("kernel:", " ".join(sorted(s.kernel_members)))
    else:
        print(f"groupoid: {s.groupoid.name}")
        print(f"carrier: {len(s.carrier)}")
        print(f"triples: {len(s.triples)}")
        print(f"domain pairs: {len(s.domain)}")
    return 0


def cmd_restrict(args) -> int:
    g, _ = _load(args.path, "groupoid")
    return emit(args, payload_of_groupoid(g.restrict(args.units)))


def cmd_combine(args) -> int:
    """The disjoint union or the cartesian product of two groupoids."""
    left, _ = _load(args.left, "groupoid")
    right, _ = _load(args.right, "groupoid")
    from .groupoid import cartesian_product, disjoint_union

    combine = disjoint_union if args.command == "union" else cartesian_product
    return emit(args, payload_of_groupoid(combine(left, right)))


def cmd_decompose(args) -> int:
    g, _ = _load(args.path, "groupoid")
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
    else:
        h, name = _load(args.path, "morphism")
    from . import morphism as morphism_ops  # loaded already with the documents

    if op == "compose":
        composite = morphism_ops.compose_morphisms(outer, inner)
        return emit(args, payload_of_morphism(composite, f"{oname}.{iname}"))
    if op == "validate":
        print(_valid_line(h))
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
        print("w1:", json.dumps(_wire(witness.w1.graph)))
        print("w2:", json.dumps(_wire(witness.w2.graph)))
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
    from .bisection import all_bisections

    found = all_bisections(g)
    return _print_rows("bisection", [sorted(b.members) for b in found])


def cmd_bisections(args) -> int:
    g, _ = _load(args.path, "groupoid")
    from . import bisection as bisection_ops

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
    if op == "from-morphism":
        h, name = _load(args.path, "morphism")
    elif op in ("coset", "quotient", "induce"):
        g, _ = _load(args.path, "groupoid")
    else:
        a, name = _load(args.path, "action")
    from . import action as action_ops

    if op == "from-morphism":
        carrier = _universe(f"{name}.carrier", args.carrier)
        a = action_ops.morphism_to_action(h, carrier)
        return emit(args, payload_of_action(a, name))
    if op == "validate":
        print(_valid_line(a))
        return 0
    if op == "to-morphism":
        h = action_ops.action_to_pair_morphism(a)
        return emit(args, payload_of_morphism(h, f"{name}.pairs"))
    if op == "groupoid":
        return emit(args, payload_of_groupoid(action_ops.action_groupoid(a)))
    if op == "classify":
        space = _universe("base", args.points)
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
    if op == "homogeneous":
        section = {e: x for e, x in args.fix}
        ref, psi = action_ops.homogeneous_identification(a, section)
        print("subgroupoid:", " ".join(sorted(ref.members)))
        for x in sorted(psi):
            print(f"psi {x} -> {psi[x]}")
        return 0
    if op == "coset":
        space = action_ops.coset_space(g, frozenset(args.members))
        return emit(args, payload_of_action(space.action, "coset"))
    if op == "quotient":
        quotient, _ = action_ops.quotient_groupoid(g, frozenset(args.members))
        return emit(args, payload_of_groupoid(quotient))
    sub_action, _ = _load(args.action, "action")
    _, induced = action_ops.induced_action(g, frozenset(args.members), sub_action)
    return emit(args, payload_of_action(induced, "induced"))


def cmd_enum(args) -> int:
    src, _ = _load(args.source, "groupoid")
    if args.what == "bisections":
        return _list_bisections(src)
    if args.what == "morphisms":
        tgt, _ = _load(args.target, "groupoid")
        from . import search as search_ops

        if args.naive:
            budget = _argv(
                search_ops.EnumBudget, args.max_pairs, args.max_candidates,
                args.override, wrong=PreconditionFailed,
            )
            found = search_ops.enum_morphisms_naive(src, tgt, budget)
        else:
            found = search_ops.enum_morphisms(src, tgt)
        return _print_rows("morphism", [_wire(h.graph) for h in found])
    carrier = _universe("carrier", args.carrier)
    from . import search as search_ops

    if args.direct:
        found = search_ops.enum_actions_direct(src, carrier)
    else:
        found = search_ops.enum_actions(src, carrier)
    return _print_rows("action", [_wire(a.triples) for a in found])


# -- parser -------------------------------------------------------------


def _arg(*flags, **options):
    """One add_argument call: its flags and its keyword options."""
    return flags, options


PATH = _arg("path")
POINTS = _arg("points", nargs="+")
MEMBERS = _arg("members", nargs="+")
GROUP = _arg("--group", required=True)
NAME = _arg("--name")
OUTPUT = _arg("--output", help="write the resulting document here")

# group word -> (dest of its subcommand word, help)
GROUPS = {
    "build": ("family", "construct a groupoid document"),
    "morphism": ("op", "operations on morphism documents"),
    "bisections": ("op", "bisections of a groupoid"),
    "action": ("op", "operations on action documents"),
    "enum": ("what", "exhaustive enumeration"),
}

# (command words, handler, help of a top-level command, arguments in order)
COMMANDS = [
    (("build", "pair"), cmd_build, None, [POINTS, NAME, OUTPUT]),
    (("build", "set"), cmd_build, None, [POINTS, NAME, OUTPUT]),
    (("build", "group"), cmd_build, None, [
        _arg("group", help="cyclic:N, symmetric:N, klein, or trivial"), NAME, OUTPUT,
    ]),
    (("build", "bundle"), cmd_build, None, [
        _arg("groups", nargs="+", help="one group family token per fiber"),
        NAME, OUTPUT,
    ]),
    (("build", "equiv"), cmd_build, None, [
        _arg("--block", action="append", required=True,
             help="comma-separated block, repeatable"), NAME, OUTPUT,
    ]),
    (("build", "product-form"), cmd_build, None, [POINTS, GROUP, NAME, OUTPUT]),
    (("build", "transformation"), cmd_build, None, [
        POINTS, GROUP, _arg("--move", action="append", nargs=3, required=True,
                            metavar=("G", "X", "Y"), help="g moves x to y, repeatable"),
        NAME, OUTPUT,
    ]),
    (("validate",), cmd_validate, "check a document against the axioms", [PATH]),
    (("info",), cmd_info, "print a structural summary", [PATH]),
    (("restrict",), cmd_restrict, "full subgroupoid over chosen units",
     [PATH, _arg("units", nargs="+"), OUTPUT]),
    (("union",), cmd_combine, "disjoint union of two groupoids",
     [_arg("left"), _arg("right"), OUTPUT]),
    (("product",), cmd_combine, "cartesian product of two groupoids",
     [_arg("left"), _arg("right"), OUTPUT]),
    (("decompose",), cmd_decompose, "units x isotropy x units form per component",
     [PATH]),
    (("morphism", "compose"), cmd_morphism, None,
     [_arg("outer"), _arg("inner"), OUTPUT]),
    *((("morphism", op), cmd_morphism, None, [PATH]) for op in (
        "validate", "kernel", "mono", "surjective", "epi-witness",
        "classify-into-group",
    )),
    (("morphism", "factor"), cmd_morphism, None, [PATH, OUTPUT]),
    *((("bisections", op), cmd_bisections, None, [PATH]) for op in ("list", "group")),
    (("bisections", "ad"), cmd_bisections, None, [PATH, MEMBERS, OUTPUT]),
    (("action", "validate"), cmd_action, None, [PATH]),
    (("action", "to-morphism"), cmd_action, None, [PATH, OUTPUT]),
    (("action", "from-morphism"), cmd_action, None,
     [PATH, _arg("--carrier", nargs="+", required=True), OUTPUT]),
    (("action", "groupoid"), cmd_action, None, [PATH, OUTPUT]),
    (("action", "coset"), cmd_action, None, [PATH, MEMBERS, OUTPUT]),
    (("action", "quotient"), cmd_action, None, [PATH, MEMBERS, OUTPUT]),
    (("action", "induce"), cmd_action, None,
     [PATH, _arg("action"), _arg("--members", nargs="+", required=True), OUTPUT]),
    (("action", "classify"), cmd_action, None, [
        PATH, _arg("--points", nargs="+", required=True), GROUP, _arg("--basepoint"),
    ]),
    (("action", "homogeneous"), cmd_action, None, [
        PATH, _arg("--fix", action="append", nargs=2, required=True,
                   metavar=("UNIT", "POINT")),
    ]),
    (("enum", "morphisms"), cmd_enum, None, [
        _arg("source"), _arg("target"), _arg("--naive", action="store_true"),
        _arg("--max-pairs", type=int, default=20),
        _arg("--max-candidates", type=int, default=2 ** 20),
        _arg("--override", action="store_true"),
    ]),
    (("enum", "actions"), cmd_enum, None, [
        _arg("source"), _arg("--carrier", nargs="+", required=True),
        _arg("--direct", action="store_true"),
    ]),
    (("enum", "bisections"), cmd_enum, None, [_arg("source")]),
]


class _Subcommands(argparse._SubParsersAction):
    """A subcommand action whose parsers are made when argparse looks one
    up.  `add` registers a name, and its help line if it has one, at once:
    usage, help and an unknown-choice error read only those.  It uses
    argparse's private `_name_parser_map`, `_choices_actions` and
    `_prog_prefix`; the golden help and usage tests pin what they give."""

    class _Parsers(dict):
        """name -> parser.  A name's maker waits in `makers` until argparse
        looks the name up; the lookup makes its parser and keeps it."""

        def __init__(self):
            super().__init__()
            self.makers = {}

        def __getitem__(self, name):
            if name in self.makers:
                self[name] = self.makers.pop(name)()
            return super().__getitem__(name)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choices = self._name_parser_map = self._Parsers()

    def add(self, name, make, help=None):
        """Register name; make(prog=...) makes its parser on lookup."""
        if help is not None:
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        parsers, prog = self._name_parser_map, f"{self._prog_prefix} {name}"
        parsers[name] = None
        parsers.makers[name] = functools.partial(make, prog=prog)


def _leaf(func, arguments, prog):
    """A command's parser: its handler and its arguments, the (flags,
    options) pairs of its COMMANDS row."""
    leaf = argparse.ArgumentParser(prog=prog)
    for flags, options in arguments:
        leaf.add_argument(*flags, **options)
    leaf.set_defaults(func=func)
    return leaf


def _group(dest, rows, prog):
    """A command group's parser, whose subcommand word goes to dest; rows
    holds (word, handler, arguments) of each subcommand."""
    group = argparse.ArgumentParser(prog=prog)
    sub = group.add_subparsers(dest=dest, required=True, action=_Subcommands)
    for word, func, arguments in rows:
        sub.add(word, functools.partial(_leaf, func, arguments))
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="Finite groupoids as relations: build, validate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    rows = {}  # group word -> its rows, all gathered before a parser is made
    for words, func, help_, arguments in COMMANDS:
        if len(words) == 1:
            sub.add(words[0], functools.partial(_leaf, func, arguments), help_)
            continue
        head, word = words
        if head not in rows:
            dest, group_help = GROUPS[head]
            rows[head] = []
            sub.add(head, functools.partial(_group, dest, rows[head]), group_help)
        rows[head].append((word, func, arguments))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as err:
        # the reader has gone; send what is still buffered, and the
        # flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message = f"cannot write to standard output: {err.strerror}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except DocumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AlgebraError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
