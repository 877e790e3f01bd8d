"""The committed mutants: each a one-place change to a fast path or a
kernel, with the tests that must fail under it.

A row names the file (from the repository root), an exact snippet that
occurs once in it, its replacement, the test node ids expected to kill
the mutant, and a status: "killed", or "equivalent" with the argument
that no input can tell the mutant from the code.  `run.py` applies one
row at a time to a copy of the tree.  tests/test_mutants.py checks,
without running any mutant, that every snippet still occurs exactly
once, so a refactor of a guarded line must update its row here.
"""

LATTICE = "tests/test_derived.py::test_subgroup_lattices_agree_with_the_coset_reference"
COSETS = "tests/test_derived.py::test_coset_readers_agree_with_the_name_level_reference"
QUERIES = (
    "tests/test_groupoid.py::test_structure_queries_agree_with_the_name_level_references"
)
GOLDEN = "tests/test_cli.py::test_cli_matches_golden"
TABLES = (
    "tests/test_builders.py::"
    "test_stock_tables_equal_the_checked_tables_of_their_name_level_products"
)
STRAY = "tests/test_groupoid.py::test_structure_check_names_the_first_stray_entry"
ACTION_STRAY = (
    "tests/test_action.py::test_action_refuses_the_first_stray_name_of_its_triples"
)
GENERATORS = "tests/test_groupoid.py::test_greedy_generators_generate_every_element"
VERDICTS = (
    "tests/test_groupoid.py::"
    "test_checked_constructor_agrees_with_the_relational_reference"
)

MOMENTS = "tests/test_search.py::test_moment_maps_are_the_filtered_product"
MADE = "tests/test_search.py::test_moment_maps_made_are_counted"
KEPT = (
    "tests/test_search.py::test_structured_enumerator_keeps_each_groupoids_shapes"
)

READ_TEST = "if len(inverse) != len(index) or not self._unit_set <= index.keys():"

MUTANTS = [
    # -- the checked constructor's one reading pass ----------------------
    {
        "id": "fused-read-no-inverse-count",
        "file": "src/groupoids/groupoid.py",
        "snippet": READ_TEST,
        "replacement": "if not self._unit_set <= index.keys():",
        "tests": [STRAY],
        "status": "killed",
    },
    {
        "id": "fused-read-no-unit-test",
        "file": "src/groupoids/groupoid.py",
        "snippet": READ_TEST,
        "replacement": "if len(inverse) != len(index):",
        "tests": [STRAY],
        "status": "killed",
    },
    {
        "id": "fused-read-value-error-uncaught",
        "file": "src/groupoids/groupoid.py",
        "snippet": "except (KeyError, TypeError, ValueError):",
        "replacement": "except (KeyError, TypeError):",
        "tests": [STRAY],
        "status": "killed",
    },
    # -- the class kernel and its readers --------------------------------
    {
        "id": "classes-no-placed-test",
        "file": "src/groupoids/groupoid.py",
        "snippet": "        if a not in at:\n",
        "replacement": "        if True:\n",
        "tests": [QUERIES, COSETS],
        "status": "killed",
    },
    {
        "id": "orbits-from-right-units",
        "file": "src/groupoids/groupoid.py",
        "snippet": "{names[left[g]] for g in fibers[index[e]]}",
        "replacement": "{names[self._right[g]] for g in fibers[index[e]]}",
        "tests": [QUERIES],
        "status": "killed",
    },
    {
        "id": "cosets-labelled-by-greatest",
        "file": "src/groupoids/action.py",
        "snippet": 'f"[{a}]" for a in firsts',
        "replacement": 'f"[{block[-1]}]" for block in classes',
        "tests": [COSETS],
        "status": "killed",
    },
    {
        "id": "projection-in-name-order",
        "file": "src/groupoids/action.py",
        "snippet": "projection = dict(zip(at, map(labels.__getitem__, at.values())))",
        "replacement": (
            "projection = dict(sorted(zip(at, map(labels.__getitem__, at.values()))))"
        ),
        "tests": [COSETS],
        "status": "killed",
    },
    {
        "id": "quotient-classes-in-name-order",
        "file": "src/groupoids/action.py",
        "snippet": "list(map(of.__getitem__, groupoid._names))",
        "replacement": "list(map(of.__getitem__, groupoid.elements.elements))",
        "tests": [COSETS],
        "status": "killed",
    },
    {
        "id": "induced-labelled-by-greatest",
        "file": "src/groupoids/action.py",
        "snippet": (
            "at, _, firsts = _classes(pre_carrier, orbit)\n"
            '    labels = [f"[{pair_name(*first)}]" for first in firsts]'
        ),
        "replacement": (
            "at, classes, _ = _classes(pre_carrier, orbit)\n"
            '    labels = [f"[{pair_name(*max(block))}]" for block in classes]'
        ),
        "tests": [GOLDEN],
        "status": "killed",
    },
    {
        "id": "quotient-table-greatest-representatives",
        "file": "src/groupoids/builders.py",
        "snippet": (
            "at, _, reps = _classes(order, lambda g: list(map(rows[g].__getitem__, ms)))"
        ),
        "replacement": (
            "at, cosets, _ = _classes(order, lambda g: list(map(rows[g].__getitem__, ms)))\n"
            "    reps = list(map(max, cosets))"
        ),
        "tests": [LATTICE],
        "status": "killed",
    },
    {
        "id": "quotient-table-normal-at-the-unit-coset-only",
        "file": "src/groupoids/builders.py",
        "snippet": "not _normal(rows, reps, ms)",
        "replacement": "not _normal(rows, reps[:1], ms)",
        "tests": [LATTICE],
        "status": "killed",
    },
    {
        "id": "left-cosets-without-the-unit-first",
        "file": "src/groupoids/search.py",
        "snippet": "order = (table._index[table.unit], *range(len(rows)))",
        "replacement": "order = range(len(rows))",
        "tests": [LATTICE],
        "status": "killed",
    },
    {
        "id": "left-cosets-last-representative",
        "file": "src/groupoids/search.py",
        "snippet": "at[row[coset[0]]]",
        "replacement": "at[row[coset[-1]]]",
        "tests": [LATTICE],
        "status": "equivalent",
        "argument": (
            "every member r of a left coset C = r_j K represents it: x r lies "
            "in x r_j K for each r in C, so acts[x][j] names the same coset"
        ),
    },
    # -- group tables by left translation, and Light's generators --------
    {
        "id": "translated-rows-right-translation",
        "file": "src/groupoids/builders.py",
        "snippet": "list(map(s.__getitem__, rows[x]))",
        "replacement": "list(map(rows[x].__getitem__, s))",
        "tests": [TABLES],
        "status": "killed",
    },
    {
        "id": "generators-never-yield-units",
        "file": "src/groupoids/groupoid.py",
        "snippet": "        if generated[g]:\n",
        "replacement": "        if generated[g] or rows[g].get(g) == g:\n",
        "tests": [VERDICTS],
        "status": "killed",
    },
    {
        "id": "generators-yield-units-first",
        "file": "src/groupoids/groupoid.py",
        "snippet": "key=lambda g: rows[g].get(g) == g",
        "replacement": "key=lambda g: rows[g].get(g) != g",
        "tests": ["tests/test_groupoid.py::test_greedy_generator_counts"],
        "status": "killed",
    },
    {
        "id": "generators-closure-no-old-words-times-g",
        "file": "src/groupoids/groupoid.py",
        "snippet": "            if generated[w] and not generated[wg]:\n",
        "replacement": "            if False:\n",
        "tests": [GENERATORS],
        "status": "killed",
    },
    {
        "id": "generators-closure-newest-generator-only",
        "file": "src/groupoids/groupoid.py",
        "snippet": "            for h in gens:\n",
        "replacement": "            for h in gens[-1:]:\n",
        "tests": [GENERATORS],
        "status": "killed",
    },
    {
        "id": "generators-closure-marks-products-of-ungenerated-words",
        "file": "src/groupoids/groupoid.py",
        "snippet": "            if generated[w] and not generated[wg]:\n",
        "replacement": "            if not generated[wg]:\n",
        "tests": [VERDICTS],
        "status": "killed",
    },
    {
        "id": "cyclic-rotation-reversed",
        "file": "src/groupoids/builders.py",
        "snippet": "[at[(value[k] + v) % n] for v in value]",
        "replacement": "[at[(v - value[k]) % n] for v in value]",
        "tests": [TABLES],
        "status": "killed",
    },
    # -- the moment-map generator and the mixed-type stray scan ----------
    {
        "id": "moment-sizes-one-short",
        "file": "src/groupoids/search.py",
        "snippet": "range(left // size, -1, -1)",
        "replacement": "range(left // size - 1, -1, -1)",
        "tests": [MOMENTS, MADE],
        "status": "killed",
    },
    {
        # every orbit tries every size up to n // |O|: the full product
        "id": "moment-sizes-unpruned",
        "file": "src/groupoids/search.py",
        "snippet": "range(left // size, -1, -1)",
        "replacement": "range(n // size, -1, -1)",
        "tests": [MADE],
        "status": "killed",
    },
    {
        "id": "moment-room-not-given-back",
        "file": "src/groupoids/search.py",
        "snippet": "room[placed[-1]] += 1",
        "replacement": "room[placed[-1]] += 0",
        "tests": [MOMENTS, MADE],
        "status": "killed",
    },
    {
        # sizes that fall short of n make no map, but their placements run
        "id": "moment-sizes-sum-untested",
        "file": "src/groupoids/search.py",
        "snippet": "        elif not left:\n",
        "replacement": "        else:\n",
        "tests": [MADE],
        "status": "killed",
    },
    {
        "id": "moment-combos-rebuilt-every-call",
        "file": "src/groupoids/search.py",
        "snippet": "if (combos := kept.get(n)) is None:",
        "replacement": "if (combos := None) is None:",
        "tests": [KEPT],
        "status": "killed",
    },
    {
        "id": "moment-combos-kept-past-the-cap",
        "file": "src/groupoids/search.py",
        "snippet": "if len(source._fibers) ** n <= 2**10:",
        "replacement": "if True:",
        "tests": [KEPT],
        "status": "killed",
    },
    {
        "id": "stray-scan-unsorted-on-unlike-types",
        "file": "src/groupoids/groupoid.py",
        "snippet": "        return sorted(entries, key=repr)\n",
        "replacement": "        raise\n",
        "tests": [STRAY, ACTION_STRAY],
        "status": "killed",
    },
]
