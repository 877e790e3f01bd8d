"""Every morphism and action the package builds unchecked.

Morphism._of_rows and Action._of_rows, the unchecked entries, skip the
axioms, so each construction that uses them is run here over a fixed
grid of groupoids.  Every structure they make is recorded with the
function that made it, rebuilt by the checking constructor and held to
the classical oracles.  The checked entry, Morphism(...), does not
pass through Morphism._of_rows, so only unchecked builds are recorded.
The enumerators are among them.  enum_morphisms holds its
reconstructions unchecked, as morphisms by proof, and every pair of the
grid with |G||G'| <= 24 calls it directly; enum_morphisms_naive holds
the survivors it decided, on the same pairs within its default budget;
enum_actions holds the actions it generated from coset spaces, and
enum_actions_direct the tables it decided, on the same carriers.
find_non_epi_witness holds the twist of its witness, made on the
target's rows with no Bisection or ad, and is called on every
surjective result of enum_morphisms on those pairs.  So this grid
stands in for the checked constructor they no longer call, and a
static check of the source keeps TRUSTED_SITES to exactly the
functions that call an unchecked entry.
The grid also stands in for two checks skipped by proof: the unit
action of action_groupoid_functor, read without morphism_to_action's
pair-groupoid check, is recorded at _pair_action; and the marking
subgroupoid of homogeneous_identification, taken without coset_space's
wide check, is held to is_wide and to the homogeneous oracle.
"""

import ast
import itertools
import sys
from contextlib import suppress
from pathlib import Path

import pytest
from oracles import action_violation, homogeneous_violation, morphism_violation

import groupoids
from groupoids.action import (
    Action,
    GammaSet,
    action_groupoid_functor,
    action_to_pair_morphism,
    classify_transitive_action,
    conjugation_action,
    coset_space,
    homogeneous_identification,
    induced_action,
    left_mult_action,
    morphism_to_action,
    product_form_action,
    pullback_action,
    quotient_groupoid,
    right_commuting_to_morphism,
    unit_action,
)
from groupoids.bisection import ad, all_bisections
from groupoids.builders import (
    cyclic_table,
    group_bundle,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_form,
    set_groupoid,
    symmetric_table,
)
from groupoids.errors import AxiomViolation, BudgetExceeded
from groupoids.morphism import (
    Morphism,
    component_projection,
    compose_morphisms,
    epi_mono_factorization,
    find_non_epi_witness,
    group_action_morphism,
    identity_morphism,
    is_mono,
    is_surjective,
    left_regular,
    mono_witness,
    product_injections,
    product_pairing,
    quotient_by_kernel,
    restrict_to_domain,
    separating_pair,
    to_orbit_pair,
    to_orbit_relation,
    union_projections,
    wide_inclusion,
)
from groupoids.relation import Universe
from groupoids.search import (
    check_cancellation,
    enum_actions,
    enum_actions_direct,
    enum_morphisms,
    enum_morphisms_naive,
)

# the functions that call Morphism._of_rows or Action._of_rows
TRUSTED_SITES = {
    "identity_morphism", "compose_morphisms", "left_regular", "to_orbit_pair",
    "to_orbit_relation", "component_projection", "wide_inclusion",
    "restrict_to_domain", "product_injections", "union_projections",
    "product_pairing", "group_action_morphism", "quotient_by_kernel",
    "mono_witness", "separating_pair", "ad", "_quotient",
    "action_to_pair_morphism", "_pair_action", "left_mult_action",
    "unit_action", "conjugation_action", "coset_space", "induced_action",
    "pullback_action", "product_form_action", "right_commuting_to_morphism",
    "enum_morphisms", "enum_morphisms_naive", "enum_actions",
    "enum_actions_direct", "check_cancellation", "find_non_epi_witness",
}


# enum_actions's carriers; pairs on "a+" and "a" index out of name order
CARRIERS = (Universe("C1", "a"), Universe("C2", ("a", "a+")), Universe("C3", "abc"))


def grid_groupoids(catalog):
    """The catalog, pair groupoids on 1-4 points, Z1-Z6, V4, S3, three
    bundles and four product forms."""
    out = dict(catalog)
    for n in range(1, 5):
        out[f"P{n}"] = pair_groupoid(Universe(f"X{n}", "1234"[:n]))
    tables = [cyclic_table(n) for n in range(1, 7)]
    tables += [klein_table(), symmetric_table(3)]
    for t in tables:
        out[f"G {t.name}"] = group_groupoid(t)
    z1, z2, z3 = cyclic_table(1), cyclic_table(2), cyclic_table(3)
    for fibres in ([z2, z1], [z3, z2, z1], [symmetric_table(3), z2]):
        out["bundle " + "+".join(t.name for t in fibres)] = group_bundle(fibres)
    for n, t in ((2, z2), (2, z3), (3, z2), (2, symmetric_table(3))):
        out[f"PF {n} {t.name}"] = product_form(Universe(f"B{n}", "xyz"[:n]), t)
    return out


def wide_parts(g):
    """The units, the isotropy bundle and the whole groupoid, once each."""
    parts = [frozenset(g.units), g.isotropy_bundle().members, frozenset(g.elements)]
    return list(dict.fromkeys(parts))


def run_grid(catalog):
    """Call every construction that builds unchecked, over the grid."""
    groupoids = grid_groupoids(catalog)
    empty = set_groupoid(Universe("none", ()))
    for g in groupoids.values():
        full = [identity_morphism(g), left_regular(g), to_orbit_pair(g)]
        full.append(to_orbit_relation(g))
        for h in full:
            quotient_by_kernel(h)
            if not is_mono(h):
                mono_witness(h)
                check_cancellation(h, "left")
            # its unit action is read unchecked, by _pair_action; the
            # bound, for time, leaves out the 5 left_regular into P9 to P24
            if len(h.target.elements) <= 64:
                phi, _ = action_groupoid_functor(h)
                assert action_violation(phi) is None
        product_pairing(full[0], full[2])
        compose_morphisms(full[1], full[0])
        compose_morphisms(full[2], full[0])
        if len(g.orbits()) == 1:
            mono_witness(Morphism(g, empty, ()))
        for component in g.transitive_components():
            proj = component_projection(g, component)
            restrict_to_domain(proj)
            if proj.domain_elements != frozenset(g.elements):
                mono_witness(proj)
                epi_mono_factorization(proj)
        for part in wide_parts(g):
            wide_inclusion(g, part)
            coset_space(g, part)
            if len(g.elements) <= 8 and part != frozenset(g.elements):
                separating_pair(g, part)
        quotient_groupoid(g, g.isotropy_bundle().members)
        for make in (left_mult_action, unit_action, conjugation_action):
            a = make(g)
            morphism_to_action(action_to_pair_morphism(a), a.carrier)
        for carrier in CARRIERS[: 3 if len(g.elements) <= 8 else 2]:
            enum_actions(g, carrier)
            enum_actions_direct(g, carrier)
        if len(g.elements) <= 8:
            for b in all_bisections(g):
                ad(b)
        sub = g.isotropy_bundle().as_groupoid()
        induced_action(g, sub.elements, left_mult_action(sub))
        units = set_groupoid(g.units_universe())
        induced_action(g, g.units, unit_action(units))
        if len(g.orbits()) == 1:  # its marking subgroupoid is wide unchecked
            section = {e: e for e in g.units}
            for action in (left_mult_action(g), unit_action(g)):
                ref, psi = homogeneous_identification(action, section)
                assert ref.is_wide
                assert homogeneous_violation(action, section, ref, psi) is None
    # a small bound, for time
    for g1, g2 in itertools.product(groupoids.values(), repeat=2):
        if len(g1.elements) * len(g2.elements) <= 24:
            for h in enum_morphisms(g1, g2):
                if is_surjective(h):  # the twist hunt; separating_pair runs above
                    find_non_epi_witness(h)
            with suppress(BudgetExceeded):  # within its default budget
                enum_morphisms_naive(g1, g2)
    for key in catalog:
        g = catalog[key]
        for h in (identity_morphism(g), to_orbit_pair(g), to_orbit_relation(g)):
            delta = h.target
            lm = GammaSet(delta.elements, left_mult_action(delta))
            pulled = pullback_action(h, lm).action
            assert right_commuting_to_morphism(pulled, delta) == h
            copy = Universe("copy", tuple(delta.elements))
            relabelled = Action(pulled.groupoid, copy, pulled.triples)
            assert right_commuting_to_morphism(relabelled, delta) == h
    small = ("pt", "Z2", "S2", "P2", "BD")
    for left, right in itertools.combinations_with_replacement(small, 2):
        product_injections(catalog[left], catalog[right])
        union_projections(catalog[left], catalog[right])
    z2, z3, s3 = cyclic_table(2), cyclic_table(3), symmetric_table(3)
    pq, three = Universe("PQ", "pq"), Universe("T", "123")
    swap = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}
    turn = {(g, x): str((int(g) + int(x)) % 3) for g in z3.elements for x in "012"}
    permute = {(g, x): g[int(x) - 1] for g in s3.elements for x in three}
    for table, space, act in (
        (z2, pq, swap),
        (z2, pq, {(g, x): x for g in z2.elements for x in pq}),
        (z3, Universe("R3", "012"), turn),
        (s3, three, permute),
    ):
        group_action_morphism(table, space, act)
        for n in (1, 2):
            base = Universe(f"E{n}", "xy"[:n])
            model = product_form_action(base, table, space, act)
            classify_transitive_action(base, table, model)


class _UncheckedCallers(ast.NodeVisitor):
    """The functions whose own bodies call Morphism._of_rows or
    Action._of_rows, and the checked entries each module calls."""

    CHECKED = {"Morphism", "Action", "FinRel", "classical_to_relational"}

    def __init__(self):
        self.scope, self.sites, self.checked = [], set(), set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Name) and f.id in self.CHECKED:
            self.checked.add(f.id)
        elif (
            isinstance(f, ast.Attribute)
            and f.attr == "_of_rows"
            and isinstance(f.value, ast.Name)
            and f.value.id in ("Morphism", "Action")
        ):
            self.sites.add(self.scope[-1])
        self.generic_visit(node)


def test_trusted_sites_are_every_caller_of_the_unchecked_entries():
    """Read from the source, so that a new site is named here even where
    run_grid never calls it; search.py calls no checked entry."""
    sites = set()
    for path in sorted(Path(groupoids.__file__).parent.glob("*.py")):
        visitor = _UncheckedCallers()
        visitor.visit(ast.parse(path.read_text()))
        sites |= visitor.sites
        if path.name == "search.py":
            assert visitor.checked == set()
    assert sites == TRUSTED_SITES


def record_trusted(monkeypatch):
    """Make Morphism._of_rows and Action._of_rows record each structure
    with the name of the function that built it."""
    built = {}
    for cls in (Morphism, Action):
        make = cls._of_rows

        def trusted(*args, make=make):
            made = make(*args)
            built.setdefault((sys._getframe(1).f_code.co_name, made), None)
            return made

        monkeypatch.setattr(cls, "_of_rows", staticmethod(trusted))
    return built


def test_trusted_builds_pass_the_checked_constructor_and_the_oracle(
    catalog, monkeypatch
):
    """Each morphism and action the package builds unchecked, rebuilt by
    the checking constructor, is the same structure with the same derived
    data, and keeps every classical law."""
    built = record_trusted(monkeypatch)
    run_grid(catalog)
    assert {site for site, _ in built} == TRUSTED_SITES
    for site, s in built:
        try:
            if isinstance(s, Morphism):
                checked = Morphism(s.source, s.target, s.graph)
                read_off = ("base_map", "domain_elements", "image_elements")
                read_off += ("kernel_members",)
                verdict = morphism_violation(s)
            else:
                checked = Action(s.groupoid, s.carrier, s.triples)
                read_off = ("base_map", "domain", "_table")
                verdict = action_violation(s)
        except AxiomViolation as err:
            pytest.fail(f"{site}: {s!r}: {err}")
        assert checked == s, site
        for name in read_off:
            assert getattr(checked, name) == getattr(s, name), (site, name)
        assert verdict is None, (site, s, verdict)
    # 135 come only from action_groupoid_functor's calls: 43 unit
    # actions, their 43 composites and 49 to_orbit_pair morphisms;
    # enum_actions generates the 229 actions enum_actions_direct finds;
    # the hunts' witnesses hold 3 distinct twists
    assert len(built) == 3244
    assert sum(site == "find_non_epi_witness" for site, _ in built) == 3
    assert sum(site == "enum_morphisms" for site, _ in built) == 922
    assert sum(site == "enum_morphisms_naive" for site, _ in built) == 539
    assert sum(site == "enum_actions" for site, _ in built) == 229
    assert sum(site == "enum_actions_direct" for site, _ in built) == 229
