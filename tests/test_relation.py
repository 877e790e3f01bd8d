"""Relation calculus: composition, transposition, products."""

import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st

from groupoids.errors import UniverseError, UniverseMismatch, UnknownElement
from groupoids.relation import (
    FinRel,
    Universe,
    compose,
    domain,
    first_difference,
    flip,
    identity,
    image,
    is_mapping,
    mapping_rel,
    pair_name,
    product,
    product_universe,
    transpose,
    triples_rel,
    two_sided_difference,
    unitor_left,
    unitor_right,
)

A = Universe("A", ("a", "b"))
B = Universe("B", ("c", "d"))
C = Universe("C", ("e", "f"))
D = Universe("D", ("g", "h"))


def rel(src, tgt, pairs):
    return FinRel(src, tgt, pairs)


def test_universe_rejects_duplicates():
    with pytest.raises(ValueError):
        Universe("U", ("a", "a"))


def test_universe_keeps_elements_sorted():
    u = Universe("U", ("b", "a", "c"))
    assert u.elements == ("a", "b", "c")


def test_graph_pairs_are_output_input():
    r = rel(A, B, [("c", "a")])
    assert r.outputs("a") == ("c",)
    assert r.outputs("b") == ()


def test_graph_rejects_unknown_elements():
    with pytest.raises(UnknownElement):
        rel(A, B, [("c", "zz")])
    with pytest.raises(UnknownElement):
        rel(A, B, [("zz", "a")])


def test_compose_single_step():
    r = rel(A, B, [("c", "a")])
    s = rel(B, C, [("e", "c")])
    assert compose(s, r).graph == (("e", "a"),)


def test_compose_identity_neutral():
    r = rel(A, B, [("c", "a"), ("d", "b")])
    assert compose(identity(B), r) == r
    assert compose(r, identity(A)) == r


def test_compose_two_pair_example():
    x = Universe("X", ("a", "b"))
    r = rel(x, x, [("a", "a"), ("a", "b")])
    s = rel(x, x, [("b", "a")])
    assert compose(s, r).graph == (("b", "a"), ("b", "b"))


def test_compose_requires_matching_universes():
    r = rel(A, B, [("c", "a")])
    with pytest.raises(UniverseMismatch):
        compose(r, r)


def test_first_difference_requires_matching_universes():
    r = rel(A, B, [("c", "a")])
    for other in (rel(A, C, [("e", "a")]), rel(C, B, [("c", "e")])):
        with pytest.raises(UniverseMismatch) as err:
            first_difference(r, other)
        assert "universe mismatch in first_difference" in str(err.value)


def test_transpose_swaps_and_involutes():
    r = rel(A, B, [("c", "a"), ("c", "b")])
    assert transpose(r).graph == (("a", "c"), ("b", "c"))
    assert transpose(transpose(r)) == r
    assert transpose(identity(A)) == identity(A)


def test_product_of_singletons():
    r = rel(A, B, [("c", "a")])
    r1 = rel(C, D, [("g", "e")])
    p = product(r, r1)
    assert p.graph == ((pair_name("c", "g"), pair_name("a", "e")),)
    assert len(p.graph) == len(r.graph) * len(r1.graph)


def test_product_of_identities():
    assert product(identity(A), identity(B)) == identity(product_universe(A, B))


def test_domain_image_mapping():
    r = rel(A, B, [("c", "a")])
    assert domain(r) == ("a",)
    assert image(r) == ("c",)
    assert is_mapping(identity(A))
    x = Universe("X", ("a", "b"))
    assert not is_mapping(rel(x, x, [("a", "a"), ("b", "a")]))


def test_mapping_rel_requires_totality():
    with pytest.raises(UnknownElement):
        mapping_rel(A, B, {"a": "c"})
    m = mapping_rel(A, B, {"a": "c", "b": "c"})
    assert is_mapping(m)


def test_flip_involution():
    assert compose(flip(B, A), flip(A, B)) == identity(product_universe(A, B))


def test_unitors_are_bijections():
    assert is_mapping(unitor_left(A))
    assert is_mapping(unitor_right(A))
    assert image(unitor_left(A)) == A.elements


def test_empty_graphs_are_legal():
    r = rel(A, B, [])
    assert compose(rel(B, C, []), r).graph == ()
    assert domain(r) == ()


def test_product_universe_rejects_name_collisions():
    left = Universe("L", ("x", "x,y"))
    right = Universe("R", ("y,z", "z"))
    with pytest.raises(ValueError):
        product_universe(left, right)


def _all_relations(src, tgt):
    cells = [(y, x) for y in tgt for x in src]
    for k in range(len(cells) + 1):
        for combo in itertools.combinations(cells, k):
            yield FinRel(src, tgt, combo)


def test_associativity_exhaustive_on_two_point_universes():
    rs = list(_all_relations(A, B))
    ss = list(_all_relations(B, C))
    ts = list(_all_relations(C, D))
    for r, s, t in itertools.product(rs, ss, ts):
        assert compose(t, compose(s, r)) == compose(compose(t, s), r)


X3 = Universe("X3", ("a", "b", "c"))
Y3 = Universe("Y3", ("d", "e", "f"))
Z3 = Universe("Z3", ("g", "h", "i"))
W3 = Universe("W3", ("j", "k", "l"))


def rel_strategy(src, tgt):
    cells = [(y, x) for y in tgt for x in src]
    return st.sets(st.sampled_from(cells)).map(lambda g: FinRel(src, tgt, g))


@given(rel_strategy(X3, Y3), rel_strategy(Y3, Z3), rel_strategy(Z3, W3))
def test_associativity_sampled_on_three_point_universes(r, s, t):
    assert compose(t, compose(s, r)) == compose(compose(t, s), r)


@given(rel_strategy(X3, Y3), rel_strategy(Y3, Z3))
def test_transpose_antihomomorphism(r, s):
    assert transpose(compose(s, r)) == compose(transpose(r), transpose(s))


@given(
    rel_strategy(X3, Y3),
    rel_strategy(Y3, Z3),
    rel_strategy(X3, Y3),
    rel_strategy(Y3, Z3),
)
def test_product_interchange(r, s, r1, s1):
    lhs = product(compose(s, r), compose(s1, r1))
    rhs = compose(product(s, s1), product(r, r1))
    assert lhs == rhs


# -- the index kernel against string formulas --------------------------
#
# The kernel computes on integer indices and names pairs only on demand.
# These tests restate each operation as a formula on name pairs and
# require the kernel's `graph` to match it, on universes whose names
# contain commas and characters that sort on either side of the comma.

NAME_ATOMS = st.text(alphabet="ab!-", min_size=1, max_size=2)


def ref_compose(s, r):
    return {(z, x) for y, x in r for z, y1 in s if y1 == y}


def ref_product(r, r1):
    return {(pair_name(y, y1), pair_name(x, x1)) for y, x in r for y1, x1 in r1}


def ref_transpose(r):
    return {(x, y) for y, x in r}


def sorted_graph(pairs):
    return tuple(sorted(pairs))


@st.composite
def comma_universes(draw, label, commas=None):
    """A universe whose names all carry the same number of commas."""
    k = draw(st.integers(0, 2)) if commas is None else commas
    names = st.lists(NAME_ATOMS, min_size=k + 1, max_size=k + 1).map(",".join)
    return Universe(label, draw(st.sets(names, min_size=1, max_size=3)))


@st.composite
def mixed_universes(draw, label):
    """A universe whose names carry any number of commas."""
    names = st.lists(NAME_ATOMS, min_size=1, max_size=3).map(",".join)
    return Universe(label, draw(st.sets(names, min_size=1, max_size=4)))


def relations(draw, src, tgt):
    cells = [(y, x) for y in tgt for x in src]
    return FinRel(src, tgt, draw(st.sets(st.sampled_from(cells))))


@st.composite
def relation_chains(draw):
    """Universes U0..U3 and relations r : U0 -> U1, s : U1 -> U2,
    t : U2 -> U3."""
    us = [draw(comma_universes(f"U{i}")) for i in range(4)]
    r, s, t = (relations(draw, us[i], us[i + 1]) for i in range(3))
    return us, r, s, t


@seed(1311)
@settings(max_examples=60, deadline=None)
@given(relation_chains())
def test_kernel_graphs_match_name_formulas(chain):
    (u0, u1, u2, u3), r, s, t = chain
    assert compose(s, r).graph == sorted_graph(ref_compose(s.graph, r.graph))
    assert transpose(r).graph == sorted_graph(ref_transpose(r.graph))
    assert product(r, s).graph == sorted_graph(ref_product(r.graph, s.graph))
    nested = product(product(r, s), t)
    assert nested.graph == sorted_graph(
        ref_product(ref_product(r.graph, s.graph), t.graph)
    )
    assert product(r, product(s, t)).graph == nested.graph
    rs = product(r, s)
    swapped = compose(flip(u1, u2), rs)
    assert swapped.graph == sorted_graph(
        ref_compose(flip(u1, u2).graph, rs.graph)
    )
    assert flip(u0, u1).graph == sorted_graph(
        (pair_name(y, x), pair_name(x, y)) for x in u0 for y in u1
    )
    assert unitor_left(u0).graph == sorted_graph((x, pair_name("1", x)) for x in u0)
    assert unitor_right(u0).graph == sorted_graph((x, pair_name(x, "1")) for x in u0)
    assert identity(u0).graph == sorted_graph((x, x) for x in u0)


@seed(1311)
@settings(max_examples=60, deadline=None)
@given(relation_chains())
def test_product_is_associative(chain):
    _, r, s, t = chain
    left = product(product(r, s), t)
    right = product(r, product(s, t))
    assert left == right
    assert hash(left) == hash(right)
    assert left.source == right.source and left.target == right.target


@seed(1311)
@settings(max_examples=60, deadline=None)
@given(comma_universes("L"), mixed_universes("R"))
def test_uniform_comma_counts_are_accepted(uniform, mixed):
    for a, b in ((uniform, mixed), (mixed, uniform)):
        p = product_universe(a, b)
        assert "names" not in vars(p)  # the verdict built no joined names
        assert len(p) == len(a) * len(b)
        assert sorted(p.elements) == sorted(pair_name(x, y) for x in a for y in b)
        assert len(set(p.elements)) == len(p)


@seed(1311)
@settings(max_examples=100, deadline=None)
@given(mixed_universes("L"), mixed_universes("R"))
def test_collision_verdict_matches_joined_names(a, b):
    joined = [pair_name(x, y) for x in a for y in b]
    if len(set(joined)) == len(joined):
        assert sorted(product_universe(a, b).elements) == sorted(joined)
    else:
        with pytest.raises(UniverseError):
            product_universe(a, b)


def test_mixed_comma_collisions_raise_universe_error():
    left = Universe("L", ("x", "x,y"))
    right = Universe("R", ("y,z", "z"))
    with pytest.raises(UniverseError) as err:
        product_universe(left, right)
    assert isinstance(err.value, ValueError)
    with pytest.raises(UniverseError):
        Universe("U", ("a", "b", "a"))


def test_plain_and_product_universes_equal_by_name():
    # "a!,x" sorts before "a,x", so the product's index order differs
    # from the sorted order the plain universe indexes by
    left = Universe("L", ("a", "a!", "b,c"))
    right = Universe("R", ("x!", "x", "y,z"))
    prod = product_universe(left, right)
    plain = Universe(prod.name, prod.elements)
    assert list(prod.names) != list(plain.names)
    assert prod == plain and plain == prod and hash(prod) == hash(plain)
    assert identity(prod) == identity(plain)
    assert hash(identity(prod)) == hash(identity(plain))

    cells = [(y, x) for y in prod.elements for x in prod.elements][::5]
    on_prod = FinRel(prod, prod, cells)
    on_plain = FinRel(plain, plain, cells)
    assert on_prod == on_plain and on_prod.graph == on_plain.graph
    assert compose(on_prod, identity(plain)) == on_prod
    assert compose(identity(prod), on_plain) == on_plain
    assert compose(on_plain, on_prod).graph == sorted_graph(
        ref_compose(on_plain.graph, on_prod.graph)
    )
    moved = FinRel(plain, plain, cells[1:])
    assert first_difference(on_prod, moved) == min(set(cells) - set(cells[1:]))


def test_triples_rel_matches_joined_name_pairs():
    a = Universe("A", ("a", "a!", "b,c"))
    b = Universe("B", ("x", "y,z"))
    triples = [("x", "a", "y,z"), ("y,z", "b,c", "x"), ("x", "a!", "x")]
    by_name = FinRel(
        product_universe(a, b), b, ((z, pair_name(x, y)) for z, x, y in triples)
    )
    assert triples_rel(a, b, b, triples) == by_name
    assert triples_rel(a, b, b, triples).graph == by_name.graph
    with pytest.raises(UnknownElement) as err:
        triples_rel(a, b, b, triples + [("x", "q", "x")])
    assert err.value.element == pair_name("q", "x")


# -- a relation against a composite s(r x r1), across index spaces ---


# "a!" sorts before "a,": a plain universe over a product's names
# indexes them in another order than the product does
FUSED_NAMES = st.sets(st.sampled_from(("a", "a!", "b")), min_size=1)


def masked_relation(draw, src, tgt):
    """A relation drawn as one bit mask over its cells."""
    cells = [(y, x) for y in tgt for x in src]
    mask = draw(st.integers(0, 2 ** len(cells) - 1))
    return FinRel(src, tgt, [c for i, c in enumerate(cells) if mask >> i & 1])


@st.composite
def fused_cases(draw):
    """(lhs, s, r, r1, kind) with r : X -> Y, r1 : X1 -> Y1,
    s : Y x Y1 -> Z and lhs : X x X1 -> Z.  kind says what lhs is:
    s(r x r1) itself, that relation with exactly one row changed, or
    any relation.  X1 may itself be a product, and lhs or s may be
    re-read on a plain universe equal by name to its product source,
    which indexes it differently (half of the cases)."""
    x, x1, y, y1, z = (
        Universe(n, draw(FUSED_NAMES)) for n in ("X", "X1", "Y", "Y1", "Z")
    )
    if draw(st.booleans()):
        x1 = product_universe(x1, Universe("V", draw(FUSED_NAMES)))
    r, r1 = masked_relation(draw, x, y), masked_relation(draw, x1, y1)
    s = masked_relation(draw, product_universe(y, y1), z)
    rhs = compose(s, product(r, r1))
    kind = draw(st.sampled_from(("equal", "one row", "any")))
    if kind == "any":
        lhs = masked_relation(draw, rhs.source, z)
    else:
        graph = set(rhs.graph)
        if kind == "one row":
            row_in = draw(st.sampled_from(rhs.source.elements))
            row = {w for w, v in graph if v == row_in}
            outs = draw(st.sets(st.sampled_from(z.elements)))
            if outs == row:
                outs ^= {z.elements[0]}
            graph = {(w, v) for w, v in graph if v != row_in}
            graph |= {(w, row_in) for w in outs}
        lhs = FinRel(rhs.source, z, graph)
    plain = draw(st.sampled_from((None, None, "lhs", "s")))
    if plain == "lhs":
        lhs = FinRel(Universe(lhs.source.name, lhs.source.elements), z, lhs.graph)
    elif plain == "s":
        s = FinRel(Universe(s.source.name, s.source.elements), z, s.graph)
    return lhs, s, r, r1, kind


@seed(1311)
@settings(max_examples=150, deadline=None)
@given(fused_cases())
def test_compose_product_differs_matches_the_composite(case):
    lhs, s, r, r1, kind = case
    rhs = compose(s, product(r, r1))
    differs = lhs != rhs
    assert differs == (first_difference(lhs, rhs) is not None)
    if kind != "any":
        assert differs == (kind == "one row")


# -- the two-sided scan against the composites it decides -----------


@st.composite
def scan_cases(draw):
    """(phi, m) with m : G x G -> G any relation and phi : G x X -> X
    single- or multi-valued, where X is G itself (and phi may be m) or
    a separate carrier.  Names with "a!" index a product out of name
    order."""
    g = Universe("G", draw(FUSED_NAMES))
    m = masked_relation(draw, product_universe(g, g), g)
    on_itself = draw(st.booleans())
    x = g if on_itself else Universe("X", draw(FUSED_NAMES))
    gx = product_universe(g, x)
    kinds = ("single", "multi", "m") if on_itself else ("single", "multi")
    kind = draw(st.sampled_from(kinds))
    if kind == "m":
        phi = m
    elif kind == "single":  # each input to at most one output
        n = len(gx)
        outs = draw(st.lists(st.sampled_from((None, *x)), min_size=n, max_size=n))
        phi = FinRel(gx, x, [(y, v) for v, y in zip(gx.elements, outs) if y])
    else:
        phi = masked_relation(draw, gx, x)
    return phi, m


@seed(1311)
@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_two_sided_scan_is_the_first_difference_of_its_composites(case):
    phi, m = case
    g, x = m.target, phi.target
    lhs = compose(phi, product(m, identity(x)))
    rhs = compose(phi, product(identity(g), phi))
    assert two_sided_difference(phi, m) == first_difference(lhs, rhs)
