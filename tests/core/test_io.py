"""Round-trip tests for factorisation serialisation."""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.enumerate import iter_tuples
from repro.core.io import (
    SerialisationError,
    dumps,
    factorisation_from_dict,
    factorisation_to_dict,
    ftree_from_dict,
    ftree_to_dict,
    load_view,
    loads,
    save_view,
)
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    return factorise(multiway_join(list(pizzeria_rels)), t1)


def test_ftree_roundtrip(t1):
    document = ftree_to_dict(t1)
    restored = ftree_from_dict(document)
    assert restored.pretty() == t1.pretty()
    assert restored.node("pizza").keys == t1.node("pizza").keys


def test_ftree_with_aggregate_roundtrip(pizza_fact):
    aggregated = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    restored = ftree_from_dict(ftree_to_dict(aggregated.ftree))
    node = restored.node("sp")
    assert node.is_aggregate
    assert node.aggregate.functions == (("sum", "price"),)
    assert node.aggregate.over == frozenset({"item", "price"})


def test_factorisation_roundtrip(pizza_fact):
    restored = loads(dumps(pizza_fact))
    assert restored.size() == pizza_fact.size()
    assert restored.to_relation() == pizza_fact.to_relation()


def test_roundtrip_with_aggregate_values(pizza_fact):
    aggregated = ops.apply_aggregation(
        pizza_fact, "pizza", ["item"], [("sum", "price"), ("count", None)], name="sp"
    )
    restored = loads(dumps(aggregated))
    assert list(iter_tuples(restored)) == list(iter_tuples(aggregated))


def test_file_roundtrip(tmp_path, pizza_fact):
    path = str(tmp_path / "view.fdb.json")
    save_view(pizza_fact, path)
    restored = load_view(path)
    assert restored.to_relation() == pizza_fact.to_relation()


def test_version_checked(pizza_fact):
    document = factorisation_to_dict(pizza_fact)
    document["version"] = 99
    with pytest.raises(SerialisationError):
        factorisation_from_dict(document)


def test_malformed_tree_rejected():
    with pytest.raises(SerialisationError):
        ftree_from_dict({"nope": []})


def test_loaded_view_is_queryable(tmp_path, pizzeria):
    from repro.core.engine import FDBEngine
    from repro.query import Query, aggregate

    path = str(tmp_path / "r.json")
    save_view(pizzeria.get_factorised("R"), path)
    restored = load_view(path)
    pizzeria.add_factorised("R2", restored)
    q = Query(
        relations=("R2",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "rev"),),
    )
    result = FDBEngine().execute(q, pizzeria)
    assert sorted(result.rows) == [("Lucia", 9), ("Mario", 22), ("Pietro", 9)]


def test_empty_factorisation_roundtrip():
    fact = factorise_path(Relation(("a", "b"), []), "R")
    restored = loads(dumps(fact))
    assert restored.is_empty() or restored.size() == 0


def test_v1_golden_document_loads_and_redumps_identically():
    """A v1 document written before unions became columnar (an
    aggregate node plus an empty root union) round-trips byte for byte,
    so the on-disk format is unchanged."""
    from pathlib import Path

    text = (Path(__file__).parent / "golden_v1.fdb.json").read_text()
    fact = loads(text)
    assert fact.ftree.node("sp").is_aggregate
    assert fact.is_empty() and not fact.roots[1]
    assert fact.roots[0].values == ["Capricciosa", "Hawaii", "Margherita"]
    assert dumps(fact) == text
