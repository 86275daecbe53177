"""Unit tests for constant-delay (ordered/grouped) enumeration (Section 4)."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.enumerate import (
    EnumerationError,
    iter_group_contexts,
    iter_tuples,
    restructure_for_grouping,
    restructure_for_order,
    supports_grouping,
    supports_order,
)
from repro.core.frep import CUnion, Factorisation
from repro.core.ftree import FTree, path_ftree
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation
from repro.relational.sort import SortKey, sort_rows


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    return factorise(multiway_join(list(pizzeria_rels)), t1)


# ---------------------------------------------------------------------------
# Theorem 2 characterisation (Example 9)
# ---------------------------------------------------------------------------
SUPPORTED_ORDERS = [
    ("pizza",),
    ("pizza", "date"),
    ("pizza", "date", "customer"),
    ("pizza", "item"),
    ("pizza", "item", "price"),
    ("pizza", "date", "item"),
]
UNSUPPORTED_ORDERS = [
    ("pizza", "customer", "date"),
    ("customer", "pizza"),
    ("date",),
    ("item", "pizza"),
]


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_example9_supported(t1, order):
    assert supports_order(t1, list(order))


@pytest.mark.parametrize("order", UNSUPPORTED_ORDERS)
def test_example9_unsupported(t1, order):
    assert not supports_order(t1, list(order))


def test_supported_orders_allow_desc(t1):
    assert supports_order(t1, [("pizza", "desc"), "date"])


# ---------------------------------------------------------------------------
# Theorem 1 characterisation (Example 10)
# ---------------------------------------------------------------------------
def test_example10_grouping_allows_permutations(t1):
    # All orders of Example 9 and all their permutations group fine.
    assert supports_grouping(t1, ["date", "pizza"])
    assert supports_grouping(t1, ["customer", "date", "pizza"])
    assert supports_grouping(t1, ["item", "pizza"])
    assert supports_grouping(t1, ["pizza"])


def test_grouping_rejects_gaps(t1):
    # customer without date: its parent holds no group attribute.
    assert not supports_grouping(t1, ["pizza", "customer"])
    assert not supports_grouping(t1, ["price"])


# ---------------------------------------------------------------------------
# Ordered enumeration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_ordered_enumeration_matches_sort(pizza_fact, order):
    rows = list(iter_tuples(pizza_fact, list(order)))
    expected = sort_rows(rows, pizza_fact.schema(), list(order))
    assert rows == expected
    assert len(rows) == 13


def test_descending_enumeration(pizza_fact):
    rows = list(iter_tuples(pizza_fact, [("pizza", "desc"), "date"]))
    expected = sort_rows(
        rows, pizza_fact.schema(), [("pizza", "desc"), "date"]
    )
    assert rows == expected
    assert rows[0][pizza_fact.schema().index("pizza")] == "Margherita"


def test_mixed_direction_enumeration(pizza_fact):
    order = ["pizza", ("date", "desc"), "customer"]
    rows = list(iter_tuples(pizza_fact, order))
    assert rows == sort_rows(rows, pizza_fact.schema(), order)


def test_unsupported_order_raises(pizza_fact):
    with pytest.raises(EnumerationError):
        list(iter_tuples(pizza_fact, ["customer", "pizza"]))


def test_limit(pizza_fact):
    rows = list(iter_tuples(pizza_fact, ["pizza"], limit=3))
    assert len(rows) == 3


def test_unordered_enumeration_complete(pizza_fact, pizzeria_rels):
    joined = multiway_join(list(pizzeria_rels))
    rows = set(iter_tuples(pizza_fact))
    expected = set(
        joined.project(pizza_fact.schema(), dedup=False).rows
    )
    assert rows == expected


# ---------------------------------------------------------------------------
# Restructuring (Section 4.2)
# ---------------------------------------------------------------------------
def test_restructure_for_order_example2(pizza_fact):
    """Example 2: (customer, pizza, item, price) via pushing customer up."""
    order = ["customer", "pizza", "item", "price"]
    swaps = restructure_for_order(pizza_fact.ftree, order)
    assert swaps == ["customer", "customer"]
    current = pizza_fact
    for child in swaps:
        current = ops.swap(current, child)
    rows = list(iter_tuples(current, order))
    assert rows == sort_rows(rows, current.schema(), order)


def test_restructure_noop_when_supported(pizza_fact):
    assert restructure_for_order(pizza_fact.ftree, ["pizza", "date"]) == []


def test_restructure_for_grouping(pizza_fact):
    swaps = restructure_for_grouping(pizza_fact.ftree, ["customer"])
    current = pizza_fact
    for child in swaps:
        current = ops.swap(current, child)
    assert supports_grouping(current.ftree, ["customer"])


def test_q12_single_swap(tiny_workload_db):
    """Experiment 4: Q12's order needs exactly one swap on the view."""
    fact = tiny_workload_db.get_factorised("R2")
    swaps = restructure_for_order(fact.ftree, ["date", "package", "item"])
    assert swaps == ["date"]


def test_q11_no_restructuring(tiny_workload_db):
    """Experiment 4: the view supports Q11's order with no work at all."""
    fact = tiny_workload_db.get_factorised("R2")
    assert supports_order(fact.ftree, ["package", "item", "date"])


# ---------------------------------------------------------------------------
# Grouped enumeration with leftovers
# ---------------------------------------------------------------------------
def test_group_contexts_yield_assignments(pizza_fact):
    contexts = list(iter_group_contexts(pizza_fact, ["pizza"]))
    assert [c[0]["pizza"] for c in contexts] == [
        "Capricciosa",
        "Hawaii",
        "Margherita",
    ]
    # Leftovers per pizza: the date and item fragments.
    for _, leftovers in contexts:
        assert {node.name for node, _ in leftovers} == {"date", "item"}


def test_group_contexts_two_levels(pizza_fact):
    contexts = list(iter_group_contexts(pizza_fact, ["pizza", "date"]))
    assert len(contexts) == 4  # Capricciosa×2, Hawaii×1, Margherita×1
    for assignment, leftovers in contexts:
        assert set(assignment) == {"pizza", "date"}
        assert {node.name for node, _ in leftovers} == {"customer", "item"}


def test_group_contexts_ordering(pizza_fact):
    contexts = list(
        iter_group_contexts(pizza_fact, ["pizza"], [("pizza", "desc")])
    )
    assert [c[0]["pizza"] for c in contexts] == [
        "Margherita",
        "Hawaii",
        "Capricciosa",
    ]


def test_group_contexts_unsupported_group(pizza_fact):
    with pytest.raises(EnumerationError):
        list(iter_group_contexts(pizza_fact, ["customer"]))


def test_group_contexts_order_outside_group(pizza_fact):
    with pytest.raises(EnumerationError):
        list(iter_group_contexts(pizza_fact, ["pizza"], ["date"]))


def test_group_contexts_empty_group(pizza_fact):
    contexts = list(iter_group_contexts(pizza_fact, []))
    assert len(contexts) == 1
    assignment, leftovers = contexts[0]
    assert assignment == {}
    assert {node.name for node, _ in leftovers} == {"pizza"}


def test_constant_delay_prefix_cheap():
    """First tuples of a huge ordered result come out without a full scan."""
    relation = Relation(("a", "b"), [(i, i % 97) for i in range(30_000)])
    fact = factorise_path(relation, "R")
    import itertools
    import time

    start = time.perf_counter()
    first = list(itertools.islice(iter_tuples(fact, ["a"]), 10))
    elapsed = time.perf_counter() - start
    assert len(first) == 10
    assert elapsed < 0.1  # far below a full enumeration


# ---------------------------------------------------------------------------
# The one enumerator on less common shapes
# ---------------------------------------------------------------------------
def test_aggregate_node_fills_one_slot(pizza_fact):
    """An aggregate node contributes its component tuple as one value."""
    fact = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    schema = fact.schema()
    rows = list(iter_tuples(fact, [("pizza", "desc")]))
    assert rows == sort_rows(rows, schema, [("pizza", "desc")])
    prices = {row[schema.index("pizza")]: row[schema.index("sp")] for row in rows}
    assert prices == {"Capricciosa": (8,), "Hawaii": (9,), "Margherita": (6,)}
    assert len(rows) == fact.tuple_count()


def test_merged_class_fills_every_name():
    """One node with two names: both slots carry the entry's value, and
    the node runs in the direction of its earliest order key."""
    left = factorise_path(Relation(("a", "x"), [(1, 7), (2, 8), (3, 9)]), "R")
    right = factorise_path(Relation(("b", "y"), [(2, 5), (3, 6), (4, 4)]), "S")
    merged = ops.merge_siblings(ops.product(left, right), "a", "b")
    schema = merged.schema()
    assert sorted(schema) == ["a", "b", "x", "y"]
    rows = list(iter_tuples(merged, [("b", "asc"), ("a", "desc")]))
    as_dicts = [dict(zip(schema, row)) for row in rows]
    assert [(d["a"], d["b"], d["x"], d["y"]) for d in as_dicts] == [
        (2, 2, 8, 5),
        (3, 3, 9, 6),
    ]


def test_descending_key_on_non_root_node(pizza_fact):
    order = ["pizza", ("item", "desc")]
    rows = list(iter_tuples(pizza_fact, order))
    assert rows == sort_rows(rows, pizza_fact.schema(), order)
    item = pizza_fact.schema().index("item")
    # Capricciosa: each item once per (date, customer) pair, items backwards.
    assert [row[item] for row in rows[:6]] == [
        "mushrooms", "mushrooms", "ham", "ham", "base", "base"
    ]


def test_drained_group_context_keeps_its_empty_fragment():
    """An entry whose child fragment is empty still yields a group
    context (the engine skips it); it contributes no tuples."""
    tree = path_ftree(("a", "b"), "R")
    root = CUnion([1, 2], ([CUnion([5]), CUnion([])],))
    fact = Factorisation(tree, [root])
    contexts = list(iter_group_contexts(fact, ["a"]))
    assert [assignment for assignment, _ in contexts] == [{"a": 1}, {"a": 2}]
    assert [
        [(node.name, union.values) for node, union in leftovers]
        for _, leftovers in contexts
    ] == [[("b", [5])], [("b", [])]]
    assert list(iter_tuples(fact)) == [(1, 5)]


GROUP_CASES = [
    (["pizza"], [("pizza", "desc")]),
    (["pizza", "date"], ["pizza", ("date", "desc")]),
    (["date", "pizza", "customer"], [("pizza", "desc"), "date", "customer"]),
    (["item", "pizza"], ["pizza", "item"]),
    (["pizza", "item", "price"], [("pizza", "desc"), ("item", "desc")]),
]


@pytest.mark.parametrize("group, order", GROUP_CASES)
def test_group_contexts_ordered_and_complete(pizza_fact, group, order):
    """Assignments come out in order, and the leftover fragments of all
    contexts together hold exactly the tuples of the factorisation."""
    contexts = list(iter_group_contexts(pizza_fact, group, order))
    assignments = [
        tuple(assignment[name] for name in group) for assignment, _ in contexts
    ]
    assert assignments == sort_rows(assignments, group, order)
    assert len(set(assignments)) == len(assignments)
    total = sum(
        Factorisation(
            FTree([node for node, _ in leftovers]),
            [union for _, union in leftovers],
        ).tuple_count()
        for _, leftovers in contexts
    )
    assert total == pizza_fact.tuple_count()
