"""Incremental maintenance of factorised views under deltas.

The invariant throughout: after any mutation, every registered
factorisation represents exactly the view it would represent if rebuilt
from scratch — but the incremental path must get there by local
splicing (bounded nodes touched, zero rebuilds) whenever the f-tree's
independence assumptions allow it.
"""

import pytest

from repro.core.enumerate import iter_tuples
from repro.data.pizzeria import pizzeria_database
from repro.database import Database
from repro.ivm.delta import Delta, DeltaError
from repro.relational.operators import multiway_join
from repro.relational.relation import Relation


def _expected_view(database: Database) -> set:
    """R recomputed from the base relations, as a set of tuples."""
    joined = multiway_join(
        [database.flat(n) for n in ("Orders", "Pizzas", "Items")]
    )
    schema = database.get_factorised("R").schema()
    return set(joined.project(schema, dedup=False).rows)


def _fact_rows(database: Database, name: str = "R") -> set:
    return set(iter_tuples(database.get_factorised(name)))


def assert_view_consistent(database: Database) -> None:
    assert _fact_rows(database) == _expected_view(database)
    # The stale flat copy refreshes to the same content.
    flat = database.flat("R")
    fact = database.get_factorised("R")
    assert set(flat.project(fact.schema(), dedup=False).rows) == _fact_rows(
        database
    )


# ---------------------------------------------------------------------------
# Routed maintenance (base-relation deltas)
# ---------------------------------------------------------------------------
def test_orders_insert_splices_owned_branch():
    database = pizzeria_database()
    before = database.get_factorised("R").size()
    report = database.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert report.inserted == 1 and report.rebuilds == 0
    assert_view_consistent(database)
    assert database.maintenance.rebuilds == 0
    # Locality: far fewer nodes touched than the view holds.
    assert database.maintenance.nodes_touched < before


def test_orders_insert_for_package_without_orders_builds_fragment():
    database = pizzeria_database()
    # Margherita exists in Pizzas; give a brand-new pizza its first order.
    database.insert("Pizzas", [("Quattro", "base"), ("Quattro", "ham")])
    database.insert("Orders", [("Lucia", "Sunday", "Quattro")])
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    rows = _fact_rows(database)
    assert ("Quattro", "Sunday", "Lucia", "base", 6) in rows
    assert ("Quattro", "Sunday", "Lucia", "ham", 1) in rows


def test_orders_delete_prunes_and_propagates():
    database = pizzeria_database()
    # Pietro's only order: deleting it must erase Pietro entirely, and
    # Hawaii keeps Lucia's Friday order.
    database.delete("Orders", [("Pietro", "Friday", "Hawaii")])
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    assert all(row[2] != "Pietro" for row in _fact_rows(database))


def test_orders_delete_last_order_of_pizza_removes_entry():
    database = pizzeria_database()
    database.delete("Orders", [("Mario", "Tuesday", "Margherita")])
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    # Margherita had exactly one order: the whole entry is gone.
    assert all(row[0] != "Margherita" for row in _fact_rows(database))


def test_items_insert_new_price_reaches_every_pizza():
    database = pizzeria_database()
    database.insert("Items", [("ham", 2)])  # a second price for ham
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    rows = _fact_rows(database)
    assert ("Capricciosa", "Monday", "Mario", "ham", 2) in rows
    assert ("Hawaii", "Friday", "Lucia", "ham", 2) in rows


def test_items_delete_price_prunes_item_when_unpriced():
    database = pizzeria_database()
    database.delete("Items", [("ham", 1)])
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    assert all(row[3] != "ham" for row in _fact_rows(database))


def test_pizzas_delete_removes_pair_only():
    database = pizzeria_database()
    database.delete("Pizzas", [("Capricciosa", "ham")])
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    rows = _fact_rows(database)
    assert not any(
        row[0] == "Capricciosa" and row[3] == "ham" for row in rows
    )
    assert any(row[0] == "Hawaii" and row[3] == "ham" for row in rows)


def test_pizzas_insert_builds_price_subtree_from_items():
    database = pizzeria_database()
    database.insert("Pizzas", [("Margherita", "mushrooms")])
    assert database.maintenance.rebuilds == 0
    assert_view_consistent(database)
    assert ("Margherita", "Tuesday", "Mario", "mushrooms", 1) in _fact_rows(
        database
    )


def test_insert_that_joins_nothing_is_a_noop():
    database = pizzeria_database()
    before = _fact_rows(database)
    database.insert("Orders", [("Zoe", "Monday", "NoSuchPizza")])
    assert _fact_rows(database) == before
    assert database.maintenance.rebuilds == 0


def test_set_semantics_duplicate_insert_and_full_delete():
    database = pizzeria_database()
    report = database.insert("Orders", [("Mario", "Monday", "Capricciosa")])
    assert report.inserted == 0  # already present
    report = database.delete("Orders", [("Nobody", "Never", "Nothing")])
    assert report.deleted == 0
    assert_view_consistent(database)


def test_predicate_delete_resolves_rows():
    database = pizzeria_database()
    from repro.query import Comparison

    report = database.delete("Items", where=(Comparison("price", ">", 2),))
    assert report.deleted == 1  # only base costs 6
    assert_view_consistent(database)
    assert all(row[4] <= 2 for row in _fact_rows(database))


def test_batched_delta_is_applied_in_order():
    database = pizzeria_database()
    delta = Delta.insert("Items", [("truffle", 9)]) + Delta.insert(
        "Pizzas", [("Margherita", "truffle")]
    )
    report = database.apply(delta)
    assert report.inserted == 2
    assert_view_consistent(database)
    assert ("Margherita", "Tuesday", "Mario", "truffle", 9) in _fact_rows(
        database
    )


# ---------------------------------------------------------------------------
# Direct maintenance (deltas addressed to the view itself)
# ---------------------------------------------------------------------------
def test_direct_path_view_splices_exactly():
    database = Database()
    rel = Relation(("a", "b", "c"), [(1, 1, 1), (1, 2, 1), (2, 1, 1)], "P")
    from repro.core.build import factorise_path

    database.add_relation(rel)
    database.add_factorised("P", factorise_path(rel, key="P"))
    database.insert("P", [(1, 3, 9)])
    database.delete("P", [(2, 1, 1)])
    assert database.maintenance.rebuilds == 0
    assert _fact_rows(database, "P") == {(1, 1, 1), (1, 2, 1), (1, 3, 9)}
    assert set(database.flat("P").rows) == {(1, 1, 1), (1, 2, 1), (1, 3, 9)}


def test_direct_new_root_value_is_exact_even_when_branching():
    database = pizzeria_database()
    schema = database.flat("R").schema
    row = dict(zip(schema, database.flat("R").rows[0]))
    row["pizza"] = "Fresh"  # a new root value: the row factorises alone
    fresh = tuple(row[a] for a in schema)
    database.insert("R", [fresh])
    assert database.maintenance.rebuilds == 0
    positions = [schema.index(a) for a in database.get_factorised("R").schema()]
    assert tuple(fresh[p] for p in positions) in _fact_rows(database)


def test_direct_branch_violation_falls_back_to_path_tree():
    database = pizzeria_database()
    schema = database.flat("R").schema
    row = dict(zip(schema, database.flat("R").rows[0]))
    row["date"], row["customer"] = "Sunday", "Zoe"
    row["item"], row["price"] = "caviar", 42
    fresh = tuple(row[a] for a in schema)
    database.insert("R", [fresh])
    stats = database.maintenance
    assert stats.rebuilds == 1
    assert "independent branches" in stats.rebuild_reasons[-1]
    # The fallback path factorisation represents exactly the mutated
    # view — no cross-product contamination.
    fact = database.get_factorised("R")
    assert all(len(node.children) <= 1 for node in fact.ftree.nodes())
    flat = set(database.flat("R").project(fact.schema(), dedup=False).rows)
    assert set(iter_tuples(fact)) == flat
    # Dependency keys survive, so routed maintenance keeps working.
    database.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert database.maintenance.rebuilds == 1  # still just the one


def test_direct_delete_violation_falls_back():
    database = pizzeria_database()
    # Removing one (pizza, item) combination from a customer×item block
    # leaves a non-product remainder.
    doomed = ("Capricciosa", "Friday", "Mario", "ham", 1)
    schema = database.get_factorised("R").schema()
    flat_schema = database.flat("R").schema
    positions = [schema.index(a) for a in flat_schema]
    database.delete("R", [tuple(doomed[p] for p in positions)])
    stats = database.maintenance
    assert stats.rebuilds == 1
    fact = database.get_factorised("R")
    assert doomed not in set(iter_tuples(fact))
    flat = set(database.flat("R").project(fact.schema(), dedup=False).rows)
    assert set(iter_tuples(fact)) == flat


def test_insert_missing_column_rejected():
    database = pizzeria_database()
    with pytest.raises(DeltaError, match="misses columns"):
        database.insert("Orders", [("Mario",)], columns=("customer",))


def test_insert_unknown_column_rejected():
    database = pizzeria_database()
    with pytest.raises(DeltaError, match="unknown columns"):
        database.insert(
            "Orders",
            [("Mario", "Monday", "X", 1)],
            columns=("customer", "date", "pizza", "nope"),
        )


def test_unknown_relation_rejected():
    database = pizzeria_database()
    from repro.database import UnknownRelationError

    with pytest.raises(UnknownRelationError):
        database.insert("Ghost", [(1,)])


def test_column_reorder_on_insert():
    database = pizzeria_database()
    database.insert(
        "Orders",
        [("Margherita", "Lucia", "Monday")],
        columns=("pizza", "customer", "date"),
    )
    assert ("Lucia", "Monday", "Margherita") in database.flat("Orders").rows
    assert_view_consistent(database)


def test_version_and_log():
    database = pizzeria_database()
    version = database.version
    database.insert("Orders", [("Lucia", "Monday", "Margherita")])
    assert database.version == version + 1
    records = database.changes_since(version)
    assert len(records) == 1 and records[0].kind == "insert"
    (record,) = records
    assert record.rows == (("Lucia", "Monday", "Margherita"),)
    assert "R" in record.view_deltas
    delta = record.view_deltas["R"]
    assert not delta.rebuilt and len(delta.added) == 1
    assert database.changes_since(database.version) == []


def test_log_truncation_reports_none():
    from repro.database import MAX_LOG

    database = Database([Relation(("a",), [(0,)], "T")])
    start = database.version
    for i in range(MAX_LOG + 5):
        database.insert("T", [(i + 1,)])
    assert database.changes_since(start) is None
    assert database.changes_since(database.version - 3) is not None


def test_apply_validates_whole_delta_up_front():
    """A malformed later change must leave the database untouched."""
    from repro.database import UnknownRelationError

    database = pizzeria_database()
    version = database.version
    rows = list(database.flat("Items").rows)
    with pytest.raises(UnknownRelationError):
        database.apply(
            Delta.insert("Items", [("truffle", 9)])
            + Delta.insert("NoSuchRelation", [(1,)])
        )
    assert database.version == version
    assert database.flat("Items").rows == rows
    with pytest.raises(DeltaError, match="arity"):
        database.apply(
            Delta.insert("Items", [("truffle", 9)])
            + Delta.insert("Items", [("bad", 1, 2)])
        )
    assert database.flat("Items").rows == rows


# ---------------------------------------------------------------------------
# The engine reads the maintained view itself
# ---------------------------------------------------------------------------
def test_engine_reads_maintained_columnar_view_without_conversion(monkeypatch):
    """Workload views hold ``CUnion`` roots; after an insert and then a
    delete on Orders the engine's input is the catalogue's own view
    object, and the first read after each write equals ``rdb`` over the
    base relations (the view unfolded into its defining join)."""
    from dataclasses import replace

    from repro import connect
    from repro.core.engine import FDBEngine
    from repro.core.frep import CUnion, Factorisation
    from repro.data.workloads import WORKLOAD, build_workload_database

    database = build_workload_database(scale=0.05, seed=5)
    for name in ("R1", "R2", "R3"):
        roots = database.get_factorised(name).roots
        assert roots and all(type(union) is CUnion for union in roots), name

    inputs = []
    prepare = FDBEngine._prepare_inputs

    def recording(self, query, db):
        prepared = prepare(self, query, db)
        inputs.append(prepared)
        return prepared

    def no_conversion(self):
        raise AssertionError("a view was converted before reading")

    monkeypatch.setattr(FDBEngine, "_prepare_inputs", recording)
    monkeypatch.setattr(Factorisation, "to_columnar", no_conversion)

    query = WORKLOAD["Q2"].query  # SUM(price) per customer over R1
    unfolded = replace(query, relations=("Orders", "Packages", "Items"))
    fdb = connect(database, engine="fdb")
    oracle = connect(database, engine="rdb", cache=False)
    orders = database.flat("Orders")
    packages = {row[orders.schema.index("package")] for row in orders.rows}
    package = sorted(packages)[0]
    row = tuple(
        {"customer": "c-ivm", "date": "d-ivm", "package": package}[a]
        for a in orders.schema
    )
    for write, present in ((fdb.insert, True), (fdb.delete, False)):
        write("Orders", [row])
        assert (row in database.flat("Orders").rows) is present
        assert database.maintenance.rebuilds == 0
        inputs.clear()
        result = fdb.execute(query)
        view = database.get_factorised("R1")
        assert len(inputs) == 1
        assert inputs[0].roots == view.roots
        assert all(a is b for a, b in zip(inputs[0].roots, view.roots))
        expected = oracle.execute(unfolded)
        assert sorted(result.rows) == sorted(expected.rows)
