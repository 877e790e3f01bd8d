"""Command line front end.

Documents are JSON objects with a "kind" of groupoid, morphism, or
action.  Multiplication rows on the wire are [a, b, ab]; morphism graph
pairs are [output, input]; action triples are [output, element, input].
Serialization is canonical: sorted keys, sorted arrays, two-space
indent, trailing newline.  Exit codes: 0 for success or a true answer,
1 for well-formed input that fails validation or a false answer, 2 for
usage, IO, or parse problems.

A process loads only what its command uses: at module level this file
imports the relation kernel and the groupoid, and each handler or
loader imports the rest of the package it needs (the builders, the
morphism, action, bisection or search module).  `build_parser`
registers every subcommand, but a leaf adds its arguments only when
argparse dispatches to it.
"""

import argparse
import json
import os
import sys

from .errors import AlgebraError, DocumentError, PreconditionFailed, UniverseError
from .groupoid import Groupoid, cartesian_product, disjoint_union
from .relation import Universe

KINDS = ("groupoid", "morphism", "action")
TOO_DEEP = "document nested too deeply"


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


def groupoid_from_payload(payload, text) -> Groupoid:
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
    return Groupoid(name, Universe(name, tuple(elements)), units, inverse, table)


def resolve_groupoid(ref, text, base):
    """A groupoid named inline or by path inside another document."""
    if isinstance(ref, str):
        return _load(ref, "groupoid", base)[0]
    return groupoid_from_payload(ref, text)


def morphism_from_payload(payload, text, base):
    from .morphism import Morphism

    name = _document_name(payload, "morphism", "h")
    source = resolve_groupoid(_need(payload, "source", (str, dict), name), text, base)
    target = resolve_groupoid(_need(payload, "target", (str, dict), name), text, base)
    columns = [
        ("output", target.elements, "element"), ("input", source.elements, "element"),
    ]
    graph = _rows(payload, "graph", "graph", columns, text, name)
    return Morphism(source, target, graph), name


def action_from_payload(payload, text, base):
    from .action import Action

    name = _document_name(payload, "action", "phi")
    groupoid = resolve_groupoid(
        _need(payload, "groupoid", (str, dict), name), text, base
    )
    points = _names(payload, "carrier", "carrier points", name)
    carrier = Universe(f"{name}.carrier", tuple(points))
    element = ("element", groupoid.elements, "element")
    columns = [("output", carrier, "point"), element, ("input", carrier, "point")]
    triples = _rows(payload, "graph", "graph", columns, text, name)
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


def payload_of_groupoid(g: Groupoid) -> dict:
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
    if isinstance(s, Groupoid):
        sizes = [(s.elements, "element"), (s.units, "unit"), (s.orbits(), "orbit")]
        return "valid: " + ", ".join(_plural(len(x), word) for x, word in sizes)
    from .morphism import Morphism  # loaded already: s is a morphism or an action

    if isinstance(s, Morphism):
        return f"valid: morphism, {_plural(len(s.graph), 'pair')}"
    return f"valid: action, {_plural(len(s.triples), 'triple')}"


def _table_from_token(token):
    """A group table from a spec like cyclic:4, symmetric:3, klein, trivial."""
    from . import builders

    head, _, tail = token.partition(":")
    if head in ("cyclic", "symmetric"):
        try:
            order = int(tail)
        except ValueError:
            raise DocumentError(
                f"group order in {token!r} is not an integer"
            ) from None
        make = builders.cyclic_table if head == "cyclic" else builders.symmetric_table
        return _argv(make, order, wrong=PreconditionFailed)
    if head == "klein":
        return builders.klein_table()
    if head == "trivial":
        return builders.trivial_table()
    raise DocumentError(f"unknown group family {token!r}")


def _argv(make, *args, wrong=UniverseError):
    """make(*args) on command-line values, where a `wrong` error is a usage error."""
    try:
        return make(*args)
    except wrong as err:
        raise DocumentError(str(err)) from None


# -- command handlers ---------------------------------------------------


def cmd_build(args) -> int:
    return emit(args, payload_of_groupoid(_argv(_build, args)))


def _build(args) -> Groupoid:
    from . import builders

    family = args.family
    if family == "pair":
        name = args.name or f"P{len(args.points)}"
        return builders.pair_groupoid(Universe(name, tuple(args.points)), name)
    if family == "set":
        name = args.name or f"S{len(args.points)}"
        return builders.set_groupoid(Universe(name, tuple(args.points)), name)
    if family == "group":
        return builders.group_groupoid(_table_from_token(args.group), args.name)
    if family == "bundle":
        tables = [_table_from_token(tok) for tok in args.groups]
        return builders.group_bundle(tables, args.name)
    if family == "equiv":
        blocks = [tuple(block.split(",")) for block in args.block]
        points = tuple(dict.fromkeys(x for block in blocks for x in block))
        name = args.name or f"E{len(points)}"
        return builders.equivalence_groupoid(Universe(name, points), blocks, name)
    if family == "product-form":
        space = Universe(args.name or "base", tuple(args.points))
        return builders.product_form(space, _table_from_token(args.group), args.name)
    space = Universe("space", tuple(args.points))
    act = {}
    for g, x, y in args.move:
        if act.setdefault((g, x), y) != y:
            raise DocumentError(
                f"--move gives ({g!r}, {x!r}) two images, {act[g, x]!r} and {y!r}"
            )
    table = _table_from_token(args.group)
    return builders.transformation_groupoid(table, space, act, args.name)


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
    from . import morphism as morphism_ops

    op = args.op
    if op == "compose":
        outer, oname = _load(args.outer, "morphism")
        inner, iname = _load(args.inner, "morphism")
        composite = morphism_ops.compose_morphisms(outer, inner)
        return emit(args, payload_of_morphism(composite, f"{oname}.{iname}"))
    h, name = _load(args.path, "morphism")
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
    from . import bisection as bisection_ops

    g, _ = _load(args.path, "groupoid")
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
    from . import action as action_ops

    op = args.op
    if op == "from-morphism":
        h, name = _load(args.path, "morphism")
        carrier = _argv(Universe, f"{name}.carrier", tuple(args.carrier))
        a = action_ops.morphism_to_action(h, carrier)
        return emit(args, payload_of_action(a, name))
    if op not in ("coset", "quotient", "induce"):
        a, name = _load(args.path, "action")
    if op == "validate":
        print(_valid_line(a))
        return 0
    if op == "to-morphism":
        h = action_ops.action_to_pair_morphism(a)
        return emit(args, payload_of_morphism(h, f"{name}.pairs"))
    if op == "groupoid":
        return emit(args, payload_of_groupoid(action_ops.action_groupoid(a)))
    if op == "classify":
        space = _argv(Universe, "base", tuple(args.points))
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
    g, _ = _load(args.path, "groupoid")
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
    from . import search as search_ops

    src, _ = _load(args.source, "groupoid")
    if args.what == "morphisms":
        tgt, _ = _load(args.target, "groupoid")
        if args.naive:
            budget = _argv(
                search_ops.EnumBudget, args.max_pairs, args.max_candidates,
                args.override, wrong=PreconditionFailed,
            )
            found = search_ops.enum_morphisms_naive(src, tgt, budget)
        else:
            found = search_ops.enum_morphisms(src, tgt)
        return _print_rows("morphism", [_wire(h.graph) for h in found])
    if args.what == "actions":
        carrier = _argv(Universe, "carrier", tuple(args.carrier))
        if args.direct:
            found = search_ops.enum_actions_direct(src, carrier)
        else:
            found = search_ops.enum_actions(src, carrier)
        return _print_rows("action", [_wire(a.triples) for a in found])
    return _list_bisections(src)


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


class _LeafParser(argparse.ArgumentParser):
    """A subcommand's parser.  It adds its arguments, (flags, options)
    pairs of a COMMANDS row, when argparse first hands it argv, so a run
    builds the arguments of its own command only."""

    def __init__(self, *args, arguments=(), **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = arguments

    def parse_known_args(self, args=None, namespace=None):
        for flags, options in self._pending:
            self.add_argument(*flags, **options)
        self._pending = ()
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="Finite groupoids as relations: build, validate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_LeafParser)
    groups = {}
    for words, func, help_, arguments in COMMANDS:
        if len(words) == 1:
            leaf = sub.add_parser(words[0], help=help_, arguments=arguments)
        else:
            head, word = words
            if head not in groups:
                dest, group_help = GROUPS[head]
                group = sub.add_parser(head, help=group_help)
                groups[head] = group.add_subparsers(dest=dest, required=True)
            leaf = groups[head].add_parser(word, arguments=arguments)
        leaf.set_defaults(func=func)
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
