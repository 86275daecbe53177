"""Unit tests for the factorisation builder."""

import pytest

from repro.core.build import FactoriseError, factorise, factorise_path
from repro.core.ftree import build_ftree, path_ftree
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


def test_factorise_pizzeria_matches_figure1(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    fact = factorise(joined, t1)
    fact.validate()
    # Figure 1's factorisation has 26 singletons for the 13-tuple join.
    assert fact.size() == 26
    assert fact.tuple_count() == 13
    assert fact.to_relation() == joined


def test_factorise_groups_by_root(pizzeria_rels, t1):
    joined = multiway_join(list(pizzeria_rels))
    fact = factorise(joined, t1)
    pizzas = fact.roots[0].values
    assert pizzas == ["Capricciosa", "Hawaii", "Margherita"]  # sorted


def test_factorise_requires_matching_schema(t1):
    wrong = Relation(("x",), [(1,)])
    with pytest.raises(FactoriseError):
        factorise(wrong, t1)


def test_factorise_rejects_aggregate_nodes():
    from repro.core.ftree import AggregateAttribute, FNode, FTree

    agg_tree = FTree(
        [FNode(AggregateAttribute((("count", None),), frozenset(), "n"))]
    )
    with pytest.raises(FactoriseError):
        factorise(Relation(("n",), [(1,)]), agg_tree)


def test_factorise_check_detects_invalid_tree():
    # R is NOT a product of its projections: {(1,1),(2,2)} ≠ {1,2}×{1,2}.
    relation = Relation(("a", "b"), [(1, 1), (2, 2)])
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    with pytest.raises(FactoriseError):
        factorise(relation, tree, check=True)
    # Without the check the construction silently over-approximates.
    assert factorise(relation, tree).tuple_count() == 4


def test_factorise_path_identity_roundtrip():
    relation = Relation(("a", "b", "c"), [(1, 2, 3), (1, 2, 4), (2, 1, 1)])
    fact = factorise_path(relation, "R")
    fact.validate()
    assert fact.to_relation() == relation
    assert fact.ftree.satisfies_path_constraint()


def test_factorise_path_shares_prefixes():
    rows = [(1, i) for i in range(10)] + [(2, 0)]
    fact = factorise_path(Relation(("a", "b"), rows), "R")
    # 2 a-singletons + 11 b-singletons, versus 22 flat singletons.
    assert fact.size() == 13


def test_factorise_path_custom_order():
    relation = Relation(("a", "b"), [(1, 9), (2, 9)])
    fact = factorise_path(relation, "R", order=["b", "a"])
    assert fact.schema() == ["b", "a"]
    assert fact.size() == 3  # one b value shared over two a values


def test_equivalence_class_requires_equal_values():
    tree = build_ftree([(("a", "b"), [])], keys={"a": {"r"}})
    with pytest.raises(FactoriseError):
        factorise(Relation(("a", "b"), [(1, 2)]), tree)


def test_equivalence_class_build_ok():
    tree = build_ftree([(("a", "b"), ["c"])], keys={"a": {"r"}, "c": {"r"}})
    fact = factorise(Relation(("a", "b", "c"), [(1, 1, 5), (2, 2, 6)]), tree)
    assert sorted(fact.iter_tuples()) == [(1, 1, 5), (2, 2, 6)]


def test_forest_build_product_decomposition():
    # R = π_a(R) × π_b(R) holds here, so a two-root forest is valid.
    relation = Relation(("a", "b"), [(a, b) for a in (1, 2) for b in (5, 6)])
    tree = build_ftree(["a", "b"], keys={"a": {"r1"}, "b": {"r2"}})
    fact = factorise(relation, tree, check=True)
    assert fact.size() == 4


def test_join_dependency_factorisation():
    # R satisfies the join dependency (AB, BC): factorise over b → (a, c).
    r = Relation(("a", "b"), [(1, 1), (2, 1), (3, 2)], "R")
    s = Relation(("b", "c"), [(1, 8), (1, 9), (2, 7)], "S")
    joined = multiway_join([r, s])
    tree = build_ftree(
        [("b", ["a", "c"])],
        keys={"b": {"R", "S"}, "a": {"R"}, "c": {"S"}},
    )
    fact = factorise(joined, tree, check=True)
    assert fact.to_relation() == joined
    # b=1 context: 2 a's + 2 c's stored once each (4+1), b=2: 1+1+1.
    assert fact.size() == 2 + 2 + 2 + 1 + 1
