"""Tests for DAG compression (beyond f-trees, Section 8)."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.compress import (
    dag_size,
    hash_cons,
    physical_singletons,
    sharing_report,
)
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation
from repro.core.frep import iter_entries


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    return factorise(multiway_join(list(pizzeria_rels)), t1)


def test_hash_cons_preserves_relation(pizza_fact):
    compressed = hash_cons(pizza_fact)
    compressed.validate()
    assert compressed.to_relation() == pizza_fact.to_relation()
    assert compressed.size() == pizza_fact.size()  # tree size unchanged


def test_pizzeria_shares_topping_fragments(pizza_fact):
    # Capricciosa and Hawaii share the ⟨base⟩×⟨6⟩ and ⟨ham⟩×⟨1⟩ items:
    # the DAG representation is strictly smaller than the tree.
    report = sharing_report(pizza_fact)
    assert report.dag_singletons < report.tree_singletons
    assert report.ratio > 1.0
    assert report.shared_fragments >= 4


def test_hash_cons_realises_the_sharing(pizza_fact):
    before = physical_singletons(pizza_fact)
    compressed = hash_cons(pizza_fact)
    after = physical_singletons(compressed)
    assert after == dag_size(pizza_fact)
    assert after < before


def test_dag_size_on_product_structure():
    # {1..3} × {1..3}: values repeat across columns but fragments differ
    # per node; the two unions of three singletons are NOT shareable
    # (different parents), yet each is stored once already.
    relation = Relation(
        ("a", "b"), [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    )
    fact = factorise_path(relation, "R")
    # Under a, the three b-unions are identical: DAG shares them.
    assert dag_size(fact) < fact.size()


def test_no_sharing_when_all_fragments_differ():
    relation = Relation(("a", "b"), [(1, 10), (2, 20), (3, 30)])
    fact = factorise_path(relation, "R")
    report = sharing_report(fact)
    assert report.shared_fragments == 0
    assert report.ratio == 1.0


def test_compressed_factorisation_supports_operators(pizza_fact):
    compressed = hash_cons(pizza_fact)
    swapped = ops.swap(compressed, "date")
    swapped.validate()
    assert swapped.to_relation() == pizza_fact.to_relation()
    aggregated = ops.apply_aggregation(
        compressed, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    values = {
        value: children[1].values[0]
        for value, children in iter_entries(aggregated.roots[0])
    }
    assert values["Hawaii"] == (9,)


def test_compressed_enumeration_matches(pizza_fact):
    from repro.core.enumerate import iter_tuples

    compressed = hash_cons(pizza_fact)
    assert list(iter_tuples(compressed, ["pizza", "date"])) == list(
        iter_tuples(pizza_fact, ["pizza", "date"])
    )


def test_sharing_grows_with_duplicate_structure(tiny_workload_db):
    fact = tiny_workload_db.get_factorised("R1")
    report = sharing_report(fact)
    # Many packages share price singletons for common items.
    assert report.dag_singletons <= report.tree_singletons


def test_empty_factorisation():
    fact = factorise_path(Relation(("a",), []), "R")
    assert dag_size(fact) == 0
    assert sharing_report(fact).ratio == 1.0
