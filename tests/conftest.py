"""Shared fixtures: the groupoid catalog the whole suite works over."""

import pytest

from groupoids.builders import (
    GroupTable,
    cyclic_table,
    equivalence_groupoid,
    group_bundle,
    group_groupoid,
    klein_table,
    pair_groupoid,
    product_form,
    set_groupoid,
    transformation_groupoid,
    trivial_table,
)
from groupoids.groupoid import Groupoid, cartesian_product
from groupoids.relation import Universe

SWAP = {("0", "p"): "p", ("0", "q"): "q", ("1", "p"): "q", ("1", "q"): "p"}

CATALOG_KEYS = (
    "pt", "Z2", "Z4", "V4", "S2", "P2", "P3", "BD", "TR", "PF", "EQ",
)


def build_catalog() -> dict:
    return {
        "pt": group_groupoid(trivial_table(), "pt"),
        "Z2": group_groupoid(cyclic_table(2)),
        "Z4": group_groupoid(cyclic_table(4)),
        "V4": group_groupoid(klein_table()),
        "S2": set_groupoid(Universe("S", ("p", "q")), "S2"),
        "P2": pair_groupoid(Universe("X2", ("x", "y")), "P2"),
        "P3": pair_groupoid(Universe("X3", ("1", "2", "3")), "P3"),
        "BD": group_bundle([cyclic_table(2), trivial_table()], "BD"),
        "TR": transformation_groupoid(
            cyclic_table(2), Universe("PQ", ("p", "q")), SWAP, "TR"
        ),
        "PF": product_form(Universe("B", ("x", "y")), cyclic_table(2), "PF"),
        "EQ": equivalence_groupoid(
            Universe("N", ("1", "2", "3")), (("1", "2"), ("3",)), "EQ"
        ),
    }


@pytest.fixture(scope="session")
def catalog() -> dict:
    return build_catalog()


@pytest.fixture
def fresh_catalog() -> dict:
    """The catalog built for one test, with nothing kept on it yet."""
    return build_catalog()


@pytest.fixture(scope="session")
def apart_indexed():
    """Z4 x Z2 on a product universe, whose index order is not its name
    order ("a+" sorts before "a", once joined as "a+,0" and "a,0"), and
    the same groupoid checked on a plain universe of its names: equal,
    but indexed apart."""
    names = {0: "a", 1: "a+", 2: "b", 3: "c"}
    z4 = {
        (names[x], names[y]): names[(x + y) % 4] for x in range(4) for y in range(4)
    }
    z4 = group_groupoid(GroupTable("Z4", names.values(), z4))
    delta = cartesian_product(z4, group_groupoid(cyclic_table(2)))
    plain = Universe(delta.elements.name, tuple(delta.elements))
    copy = Groupoid(delta.name, plain, delta.units, delta.inverse, delta.table)
    assert copy == delta and plain.names != tuple(delta.elements.names)
    return delta, copy
