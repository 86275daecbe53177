"""Unit tests for factorised representations."""

import pytest

from repro.core.build import factorise, factorise_path
from repro.core.enumerate import iter_tuples
from repro.core.frep import (
    CUnion,
    Factorisation,
    FactorisationError,
    empty_cunion,
    empty_factorisation,
    singleton_cunion,
)
from repro.core.ftree import build_ftree, path_ftree
from repro.relational.relation import Relation


@pytest.fixture()
def example3():
    """Example 3: R = {◇,♣} × {1,2,3} factorised two ways."""
    relation = Relation(
        ("A", "B"),
        [(a, b) for a in ("c", "d") for b in (1, 2, 3)],
    )
    tree = build_ftree(["A", "B"], keys={"A": {"r1"}, "B": {"r2"}})
    return relation, factorise(relation, tree)


def test_example3_product_factorisation_size(example3):
    relation, fact = example3
    # E2 = (union of 2 singletons) × (union of 3) = 5 singletons,
    # versus 12 singletons in the trivial union-of-products form E1.
    assert fact.size() == 5
    assert fact.tuple_count() == 6
    assert len(relation) * len(relation.schema) == 12


def test_flatten_reproduces_relation(example3):
    relation, fact = example3
    assert fact.to_relation() == relation


def test_schema_preorder(example3):
    _, fact = example3
    assert fact.schema() == ["A", "B"]


def test_iter_tuples_no_order(example3):
    _, fact = example3
    assert sorted(iter_tuples(fact)) == sorted(
        (a, b) for a in ("c", "d") for b in (1, 2, 3)
    )


def test_empty_factorisation():
    tree = path_ftree(("x", "y"), "R")
    fact = empty_factorisation(tree)
    assert fact.is_empty()
    assert fact.size() == 0
    assert list(iter_tuples(fact)) == []


def test_root_count_must_match():
    tree = path_ftree(("x",), "R")
    with pytest.raises(FactorisationError):
        Factorisation(tree, [empty_cunion(0), empty_cunion(0)])


def test_validate_sorted_ok():
    fact = factorise_path(Relation(("x",), [(2,), (1,), (3,)]), "R")
    fact.validate()  # does not raise


def test_validate_detects_unsorted():
    tree = path_ftree(("x",), "R")
    fact = Factorisation(tree, [CUnion([2, 1], ())])
    with pytest.raises(FactorisationError):
        fact.validate()


def test_validate_detects_duplicates():
    tree = path_ftree(("x",), "R")
    fact = Factorisation(tree, [CUnion([1, 1], ())])
    with pytest.raises(FactorisationError):
        fact.validate()


def test_validate_detects_misaligned_children():
    tree = path_ftree(("x", "y"), "R")
    fact = Factorisation(tree, [CUnion([1], ([],))])  # missing child fragment
    with pytest.raises(FactorisationError):
        fact.validate()


def test_validate_detects_missing_child_column():
    tree = path_ftree(("x", "y"), "R")
    fact = Factorisation(tree, [CUnion([1], ())])  # no column for y
    with pytest.raises(FactorisationError):
        fact.validate()


def test_equivalence_class_values_repeat():
    tree = build_ftree([(("a", "b"), [])], keys={"a": {"r"}})
    fact = Factorisation(tree, [singleton_cunion(7)])
    assert list(iter_tuples(fact)) == [(7, 7)]
    assert fact.schema() == ["a", "b"]


def test_tuple_count_multiplies_products():
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    fact = Factorisation(
        tree,
        [CUnion([1, 2], ()), CUnion([1, 2, 3], ())],
    )
    assert fact.tuple_count() == 6
    assert fact.size() == 5


def test_pretty_limit():
    fact = factorise_path(Relation(("x",), [(i,) for i in range(100)]), "R")
    assert "..." in fact.pretty(limit=3)


def test_repr_mentions_size(example3):
    _, fact = example3
    assert "size=5" in repr(fact)
