"""Spans around the package's public entry points, for the traced run.

`Tracer.install` wraps `__init__` of the validated classes and the
module-level functions listed in `FUNCTIONS`, as bound in every loaded
`groupoids` module, so calls between modules are seen too.  Wrapping
`__init__` instead of rebinding class names keeps `isinstance` working.
`uninstall` puts the originals back.

A span is (name, parent, start, end, status), kept in flat arrays while
the run lasts.  Status is 0 for a normal return, 1 for an AlgebraError
(a rejection) and 2 for any other exception.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

# module -> functions to wrap; a name the module lacks is skipped
FUNCTIONS = {
    "relation": ("compose", "product", "transpose", "product_universe"),
    "groupoid": ("validate_groupoid", "disjoint_union", "cartesian_product"),
    "builders": (
        "cyclic_table", "trivial_table", "klein_table", "symmetric_table",
        "subgroup_table", "subgroups_of", "is_normal", "quotient_group_table",
        "group_table_of", "check_group_action", "pair_groupoid",
        "set_groupoid", "group_groupoid", "group_bundle",
        "equivalence_groupoid", "product_form", "transformation_groupoid",
    ),
    "morphism": (
        "compose_morphisms", "identity_morphism", "fiber_map_right",
        "fiber_map_left", "kernel", "mono_witness", "left_regular",
        "component_projection", "wide_inclusion", "to_orbit_pair",
        "to_orbit_relation", "restrict_to_domain", "product_injections",
        "union_projections", "product_pairing", "functor_to_morphism",
        "group_action_morphism", "classify_into_group", "quotient_by_kernel",
        "epi_mono_factorization", "separating_pair", "find_non_epi_witness",
    ),
    "bisection": (
        "subset_mult", "is_bisection", "_enum_member_sets", "all_bisections",
        "bisection_group", "ad", "image_bisection", "induced_hom",
    ),
    "action": (
        "left_mult_action", "unit_action", "conjugation_action",
        "classical_to_relational", "action_to_pair_morphism",
        "morphism_to_action", "right_commuting_to_morphism",
        "pullback_action", "is_equivariant", "action_groupoid",
        "action_groupoid_functor", "functor_to_zm", "coset_space",
        "quotient_groupoid", "homogeneous_identification", "induced_action",
        "product_form_action", "classify_transitive_action",
    ),
    "search": (
        "enum_morphisms_naive", "_fiber_assignments", "enum_morphisms",
        "enum_actions", "enum_actions_direct", "proof_probes",
        "check_cancellation", "find_groupoid_isomorphism",
    ),
    "cli": (
        "load_payload", "groupoid_from_payload", "resolve_groupoid",
        "morphism_from_payload", "action_from_payload", "_load_groupoid",
        "_load_morphism", "_load_action", "serialize", "payload_of_groupoid",
        "payload_of_morphism", "payload_of_action", "emit",
    ),
}

# module -> class whose __init__ is wrapped, as span "<module>.<Class>"
CLASSES = {
    "relation": ("FinRel",),
    "groupoid": ("Groupoid",),
    "builders": ("GroupTable",),
    "morphism": ("Morphism",),
    "bisection": ("Bisection",),
    "action": ("Action",),
}

MORPHISM_DERIVED = (
    "kernel", "mono_witness", "separating_pair", "epi_mono_factorization",
    "find_non_epi_witness",
)
CLI_LOAD = (
    "load_payload", "groupoid_from_payload", "resolve_groupoid",
    "morphism_from_payload", "action_from_payload", "_load_groupoid",
    "_load_morphism", "_load_action",
)
CLI_SERIALIZE = (
    "serialize", "payload_of_groupoid", "payload_of_morphism",
    "payload_of_action", "emit",
)
ENUMERATORS = ("search.enum_morphisms", "search.enum_morphisms_naive")


def _canon(value):
    """A hashable stand-in for a builder argument, equal when the
    arguments are equal."""
    if isinstance(value, dict):
        return ("dict", frozenset((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canon(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_canon(v) for v in value))
    hash(value)  # TypeError for anything else unhashable
    return value


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._saved: list = []
        self.reset()

    def reset(self):
        """Drop every span and count; wrappers stay installed."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = bytearray()
        self.stack: list = []
        self.counts = Counter()
        self._builder_keys: set = set()

    def detach(self) -> "Tracer":
        """Hand the spans and counts so far to a new, uninstalled tracer,
        and start afresh."""
        done = Tracer.__new__(Tracer)
        done.__dict__.update(self.__dict__)
        done._saved = []
        self.reset()
        return done

    def _intern(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name, parent, start, end, status=0) -> int:
        idx = len(self.status)
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.status.append(status)
        return idx

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None, before=None):
        from groupoids.errors import AlgebraError

        nid = self._intern(name)
        tr = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tr.stack
            idx = len(tr.status)
            tr.name_id.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.status.append(0)
            tr.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            tr.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except AlgebraError:
                tr.status[idx] = 1
                raise
            except BaseException:
                tr.status[idx] = 2
                raise
            finally:
                tr.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count_pairs(self, rel):
        self.counts["relation.pairs_built"] += len(rel.graph)

    def _count_names(self, universe):
        self.counts["relation.names_built"] += len(universe)

    def _count_bisections(self, found):
        self.counts["bisection.enumerated"] += len(found)

    def _builder_call(self, fname):
        def before(args, kwargs):
            self.counts["builders.calls"] += 1
            try:
                key = (fname, _canon(args), _canon(kwargs))
            except TypeError:
                return  # an argument with no value equality: never a repeat
            if key in self._builder_keys:
                self.counts["builders.repeats"] += 1
            else:
                self._builder_keys.add(key)

        return before

    def install(self):
        import groupoids

        mods = {
            name: sys.modules.get(f"groupoids.{name}")
            for name in set(FUNCTIONS) | set(CLASSES)
        }
        namespaces = [groupoids] + [
            m for n, m in sorted(sys.modules.items())
            if n.startswith("groupoids.") and m is not None
        ]
        after = {
            "relation.compose": self._count_pairs,
            "relation.product": self._count_pairs,
            "relation.transpose": self._count_pairs,
            "relation.product_universe": self._count_names,
            "bisection._enum_member_sets": self._count_bisections,
        }
        for mname, fnames in FUNCTIONS.items():
            mod = mods[mname]
            if mod is None:
                continue
            for fname in fnames:
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                span = f"{mname}.{fname}"
                before = self._builder_call(fname) if mname == "builders" else None
                wrapped = self._wrap(span, fn, after.get(span), before)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)
                            self._saved.append((ns, attr, fn))
        for mname, cnames in CLASSES.items():
            mod = mods[mname]
            if mod is None:
                continue
            for cname in cnames:
                cls = getattr(mod, cname, None)
                if cls is None:
                    continue
                init = cls.__dict__.get("__init__")
                if init is None:
                    continue
                cls.__init__ = self._wrap(f"{mname}.{cname}", init)
                self._saved.append((cls, "__init__", init))

    def uninstall(self):
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved = []

    # -- results ------------------------------------------------------------

    def per_name(self) -> dict:
        """name -> [calls, self seconds, rejections]."""
        n = len(self.status)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - covered[i]
            row[2] += self.status[i] == 1
        return out

    def candidates(self):
        """(tried, accepted): Morphism constructions made directly by an
        enumerator."""
        enum_ids = {self._ids[n] for n in ENUMERATORS if n in self._ids}
        morph = self._ids.get("morphism.Morphism")
        tried = accepted = 0
        for i in range(len(self.status)):
            p = self.parent[i]
            if self.name_id[i] == morph and p >= 0 and self.name_id[p] in enum_ids:
                tried += 1
                accepted += self.status[i] == 0
        return tried, accepted

    def layer_metrics(self) -> dict:
        names = self.per_name()

        def calls(*spans):
            return sum(names.get(s, (0, 0.0, 0))[0] for s in spans)

        def self_s(*spans):
            return sum(names.get(s, (0, 0.0, 0))[1] for s in spans)

        def rejects(span):
            return names.get(span, (0, 0.0, 0))[2]

        def module(prefix, exclude=()):
            return [s for s in names if s.startswith(prefix) and s not in exclude]

        tried, accepted = self.candidates()
        c = self.counts
        return {
            "relation.compose.calls": calls("relation.compose"),
            "relation.compose.self_s": self_s("relation.compose"),
            "relation.product.calls": calls("relation.product"),
            "relation.product.self_s": self_s("relation.product"),
            "relation.pairs_built": c["relation.pairs_built"],
            "relation.names_built": c["relation.names_built"],
            "groupoid.validate.calls": calls("groupoid.Groupoid"),
            "groupoid.validate.self_s": self_s("groupoid.Groupoid"),
            "groupoid.reject.calls": rejects("groupoid.Groupoid"),
            "builders.calls": c["builders.calls"],
            "builders.self_s": self_s(*module("builders.", ("builders.GroupTable",))),
            "builders.repeat_ratio": (
                c["builders.repeats"] / c["builders.calls"] if c["builders.calls"] else 0.0
            ),
            "builders.grouptable.calls": calls("builders.GroupTable"),
            "builders.grouptable.self_s": self_s("builders.GroupTable"),
            "morphism.validate.calls": calls("morphism.Morphism"),
            "morphism.validate.self_s": self_s("morphism.Morphism"),
            "morphism.reject.calls": rejects("morphism.Morphism"),
            "morphism.derived.self_s": self_s(
                *(f"morphism.{f}" for f in MORPHISM_DERIVED)
            ),
            "action.validate.calls": calls("action.Action"),
            "action.validate.self_s": self_s("action.Action"),
            "action.derived.self_s": self_s(*module("action.", ("action.Action",))),
            "bisection.enumerated": c["bisection.enumerated"],
            "bisection.subset_mult.calls": calls("bisection.subset_mult"),
            "bisection.self_s": self_s(*module("bisection.")),
            "search.candidates": tried,
            "search.accepted": accepted,
            "search.accept_ratio": accepted / tried if tried else 0.0,
            "search.self_s": self_s(*module("search.")),
            "cli.import_s": self_s("cli.import"),
            "cli.load_s": self_s(*(f"cli.{f}" for f in CLI_LOAD)),
            "cli.serialize_s": self_s(*(f"cli.{f}" for f in CLI_SERIALIZE)),
        }

    # -- child processes ---------------------------------------------------

    def dump(self, path):
        """Write spans and counts for a parent tracer to merge."""
        data = {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "status": list(self.status),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def merge(self, path, start, end):
        """Add a child's spans under one "cli.command" span covering
        [start, end] in this process's clock (both use the system-wide
        monotonic clock), then delete the child's file."""
        root = self.add_span("cli.command", -1, start, end)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
        base = len(self.status)
        for nid, parent, s, e, status in zip(
            data["name_id"], data["parent"], data["start"], data["end"], data["status"]
        ):
            self.add_span(
                data["names"][nid], root if parent < 0 else parent + base, s, e, status
            )
        self.counts.update(data["counts"])

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart\tend\tstatus\n")
            for i in range(len(self.status)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.status[i]}\n"
                )
