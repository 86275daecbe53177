"""Seeded parity properties of the columnar factorisation against oracles.

Every union is a ``CUnion`` (value array plus aligned child columns), so
the checks compare ``fdb`` with the flat ``rdb`` and ``sqlite`` engines:
same rows, the same order-key sequence under ORDER BY, across the full
named workload, seeded random queries, IVM deltas spliced into the
views, and sharded ``fdb-parallel`` runs.  The IVM oracles read a
database re-derived from the current base relations, so they share
neither the materialised views nor their maintenance with ``fdb``.
Trace accounting is checked against a step-by-step replay.  Every
random source is seeded so failures replay exactly.
"""

import random
import re
from types import SimpleNamespace

import pytest

from repro import connect
from repro.core.build import factorise
from repro.core.engine import FDBEngine, _with_effective_projection
from repro.core.fplan import SelectStep
from repro.core.frep import CUnion
from repro.data.workloads import FULL_WORKLOAD, build_workload_database
from repro.database import Database
from repro.relational.operators import multiway_join
from tests.shard.test_random_parity import _assert_parity, _random_query

SEED = "columnar-parity/2013"


def _rederived(database):
    """A flat-only database derived from ``database``'s base relations.

    Views are recomputed as joins (R1, R2) or copies (R3) of the current
    base rows, in the maintained views' column order, so an oracle over
    it is independent of incremental view maintenance.
    """
    orders, packages, items = (
        database.flat(name) for name in ("Orders", "Packages", "Items")
    )
    reference = Database([orders, packages, items])
    joined = multiway_join([orders, packages, items])
    for name, source in (("R1", joined), ("R2", joined), ("R3", orders)):
        view = source.project(database.schema(name))
        view.name = name
        reference.add_relation(view)
    return reference


def _check(query, reference, actual):
    """:func:`_assert_parity` after aligning the oracle's columns.

    ``SELECT *`` over a view lists columns in relation order on the flat
    engines and in f-tree order on ``fdb``; the oracle's rows are
    reordered to ``fdb``'s schema when the column sets agree.
    """
    if set(reference.schema) == set(actual.schema):
        positions = [reference.schema.index(a) for a in actual.schema]
        reference = SimpleNamespace(
            schema=actual.schema,
            rows=[tuple(row[p] for p in positions) for row in reference.rows],
        )
    _assert_parity(query, reference, actual)


@pytest.fixture(scope="module")
def db():
    return build_workload_database(scale=0.1, seed=7)


# ---------------------------------------------------------------------------
# Full named workload: rows, ordering, trace accounting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(FULL_WORKLOAD))
def test_full_workload_exact_parity(db, name):
    query = FULL_WORKLOAD[name].query
    result = connect(db, engine="fdb").execute(query)
    for oracle in ("rdb", "sqlite"):
        _check(query, connect(db, engine=oracle).execute(query), result)


@pytest.mark.parametrize("name", sorted(FULL_WORKLOAD))
def test_trace_size_accounting_matches(db, name):
    """Each traced step's singleton count equals ``size()`` of that
    step's output in an independent replay; resident bytes are always
    accounted (> 0)."""
    engine = FDBEngine(output="flat")
    query = FULL_WORKLOAD[name].query
    compiled = engine.compile(query, db)
    _, _, trace = engine.execute_planned(compiled, query, db)

    effective = _with_effective_projection(query, db)
    fact, _, _ = engine._prepare_inputs(effective, db)
    steps = [
        SelectStep(c) for c in effective.comparisons if not c.is_expression
    ] + list(compiled.plan)
    sizes = []
    for step in steps:
        fact = step.apply(fact)
        sizes.append(fact.size())

    # Aggregate placeholder names carry a process-global counter
    # (``__agg_7``); normalise it so only the structure is compared.
    def normalise(names):
        return [re.sub(r"__agg_\d+", "__agg", str(step)) for step in names]

    assert normalise(trace.steps) == normalise(steps)
    assert trace.sizes == sizes
    assert len(trace.bytes) == len(sizes)
    assert all(b > 0 for b in trace.bytes)


def test_registered_views_report_same_singletons(db):
    """A view's accounting matches a fresh build from its flat copy."""
    for name in db.factorised:
        fact = db.get_factorised(name)
        rebuilt = factorise(db.flat(name), fact.ftree)
        singletons, resident = fact.size_info()
        assert singletons == fact.size() == rebuilt.size()
        assert resident == rebuilt.byte_size() > 0


# ---------------------------------------------------------------------------
# Seeded random queries
# ---------------------------------------------------------------------------
def test_seeded_random_queries_agree(db):
    rng = random.Random(SEED)
    oracle = connect(db, engine="rdb")
    fdb = connect(db, engine="fdb")
    for _ in range(40):
        query = _random_query(rng, db)
        _check(query, oracle.execute(query), fdb.execute(query))


# ---------------------------------------------------------------------------
# IVM deltas spliced into the views
# ---------------------------------------------------------------------------
def test_parity_after_ivm_deltas():
    rng = random.Random(SEED + "/deltas")
    database = build_workload_database(scale=0.1, seed=23)
    fdb = connect(database, engine="fdb")
    packages = sorted({row[2] for row in database.flat("Orders").rows})
    for step in range(8):
        if step % 2 == 0:
            row = (f"c{step:03d}", f"dCOL{step:05d}", rng.choice(packages))
            fdb.insert("Orders", [row])
        else:
            victim = rng.choice(database.flat("Orders").rows)
            fdb.delete("Orders", [victim])
        oracle = connect(_rederived(database), engine="rdb")
        for _ in range(3):
            query = _random_query(rng, database)
            _check(query, oracle.execute(query), fdb.execute(query))


def test_maintained_views_stay_columnar_after_deltas():
    database = build_workload_database(scale=0.1, seed=23)
    session = connect(database, engine="fdb")
    packages = sorted({row[2] for row in database.flat("Orders").rows})
    session.insert("Orders", [("c900", "dNEW00001", packages[0])])
    session.delete("Orders", [database.flat("Orders").rows[0]])
    for name in database.factorised:
        fact = database.get_factorised(name)
        assert all(type(union) is CUnion for union in fact.roots), name
        fact.validate()


# ---------------------------------------------------------------------------
# Sharded runs over the registered views
# ---------------------------------------------------------------------------
def test_sharded_parity_with_columnar_views():
    rng = random.Random(SEED + "/shards")
    database = build_workload_database(scale=0.1, seed=7)
    oracle = connect(database, engine="rdb")
    parallel = connect(database, engine="fdb-parallel", shards=3, workers=0)
    for _ in range(20):
        query = _random_query(rng, database)
        _check(query, oracle.execute(query), parallel.execute(query))


def test_sharded_parity_with_columnar_views_after_mutations():
    rng = random.Random(SEED + "/shard-deltas")
    database = build_workload_database(scale=0.1, seed=23)
    parallel = connect(database, engine="fdb-parallel", shards=3, workers=0)
    packages = sorted({row[2] for row in database.flat("Orders").rows})
    for step in range(6):
        if step % 2 == 0:
            parallel.insert(
                "Orders",
                [(f"c{step:03d}", f"dSHC{step:05d}", rng.choice(packages))],
            )
        else:
            victim = rng.choice(database.flat("Orders").rows)
            parallel.delete("Orders", [victim])
        oracle = connect(_rederived(database), engine="rdb")
        for _ in range(3):
            query = _random_query(rng, database)
            _check(query, oracle.execute(query), parallel.execute(query))
