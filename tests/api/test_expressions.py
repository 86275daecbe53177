"""Expressions through the canonical session API: parity and surface.

Acceptance: ``SUM(price * qty)``-style queries run through
``connect()`` on the fdb, rdb, and sqlite engines with identical
results, and the fdb path computes them without full flattening when
the attributes live on independent branches (trace inspection).
"""

import warnings

import pytest

from repro import QueryError, Relation, col, connect
from repro.core.engine import FDBEngine
from repro.query import aggregate


PARITY_ENGINES = ("fdb", "rdb", "sqlite")


@pytest.fixture()
def session():
    return connect(
        [
            Relation(
                ("k", "price"), [(1, 10), (1, 20), (2, 5), (3, 7)], "S"
            ),
            Relation(
                ("k", "qty"), [(1, 2), (1, 3), (2, 4), (3, 1)], "T"
            ),
        ]
    )


def revenue_builder(session):
    return (
        session.query("S", "T")
        .group_by("k")
        .sum(col("price") * col("qty"), alias="revenue")
    )


def test_sum_product_parity_across_engines(session):
    results = {
        engine: sorted(revenue_builder(session).run(engine=engine).rows)
        for engine in PARITY_ENGINES + ("rdb-hash", "fdb-factorised")
    }
    expected = [(1, 150), (2, 20), (3, 7)]
    for engine, rows in results.items():
        assert rows == expected, f"{engine} disagrees: {rows}"


def test_fdb_path_avoids_flattening_on_independent_branches(session):
    result = revenue_builder(session).run(engine="fdb")
    stats = result.expression_stats
    assert stats is not None
    assert stats.flatten_events == 0
    assert stats.native_terms > 0


def test_expression_provenance_in_explain(session):
    result = revenue_builder(session).run(engine="fdb")
    text = result.explain()
    assert "expression: revenue ← sum(price * qty)" in text
    assert "factorisation-native" in text


def test_builder_expression_validation(session):
    with pytest.raises(QueryError, match="unknown attribute"):
        session.query("S").sum(col("typo") * col("price"), "x")


def test_builder_expression_where_parity(session):
    rows = {}
    for engine in PARITY_ENGINES:
        result = (
            session.query("S", "T")
            .where(col("price") * 2, ">", 10)
            .group_by("k")
            .sum("price", "s")
            .run(engine=engine)
        )
        rows[engine] = sorted(result.rows)
    assert rows["fdb"] == rows["rdb"] == rows["sqlite"]
    assert rows["fdb"] == [(1, 60), (3, 7)]


def test_builder_computed_columns_parity(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S")
            .select("k", (col("price") * 2, "double"))
            .run(engine=engine)
        )
        assert result.schema == ("k", "double")
        assert sorted(result.rows) == [(1, 20), (1, 40), (2, 10), (3, 14)]


def test_builder_bare_col_select_is_projection(session):
    result = session.query("S").select(col("k")).run()
    assert result.schema == ("k",)


def test_sql_expression_through_session(session):
    for engine in PARITY_ENGINES:
        result = session.sql(
            "SELECT k, SUM(price * qty) AS revenue FROM S NATURAL JOIN T "
            "GROUP BY k",
            engine=engine,
        )
        assert sorted(result.rows) == [(1, 150), (2, 20), (3, 7)]


def test_division_parity_with_sqlite(session):
    # True division everywhere, including the generated SQL fed to
    # sqlite (integer columns would otherwise divide integrally).
    for engine in PARITY_ENGINES:
        result = (
            session.query("S")
            .group_by("k")
            .sum(col("price") / 4, alias="q")
            .run(engine=engine)
        )
        for key, value in result.rows:
            assert value == pytest.approx(
                {1: 7.5, 2: 1.25, 3: 1.75}[key]
            ), engine


def test_string_arguments_still_work_everywhere(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S").group_by("k").sum("price", "s").run(engine=engine)
        )
        assert sorted(result.rows) == [(1, 30), (2, 5), (3, 7)]


def test_expression_min_parity(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S", "T")
            .group_by("k")
            .min(col("price") + col("qty"), alias="lo")
            .run(engine=engine)
        )
        assert sorted(result.rows) == [(1, 12), (2, 9), (3, 8)]


# ---------------------------------------------------------------------------
# Engine-state shims are gone: execute_traced is the supported surface
# ---------------------------------------------------------------------------
def test_last_plan_shims_removed(session):
    engine = FDBEngine()
    query = revenue_builder(session).to_query()
    engine.execute(query, session.database)
    assert not hasattr(engine, "last_plan")
    assert not hasattr(engine, "last_trace")


def test_execute_traced_does_not_warn(session):
    engine = FDBEngine()
    query = revenue_builder(session).to_query()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result, plan, trace = engine.execute_traced(query, session.database)
    assert plan is not None and trace is not None
    assert sorted(result.rows) == [(1, 150), (2, 20), (3, 7)]


# ---------------------------------------------------------------------------
# Review regressions
# ---------------------------------------------------------------------------
def test_factorised_output_rejects_computed_alias_order(session):
    builder = (
        session.query("S", "T")
        .select("k", (col("price") * col("qty"), "p"))
        .order_by("p", desc=True)
        .limit(3)
    )
    with pytest.raises(QueryError, match="computed column"):
        builder.run(engine="fdb-factorised")
    # The flat engines agree on the ordered, limited result.
    rows = {
        engine: builder.run(engine=engine).rows
        for engine in PARITY_ENGINES
    }
    assert rows["fdb"] == rows["rdb"] == rows["sqlite"]


def test_having_arithmetic_rejected_cleanly(session):
    with pytest.raises(QueryError, match="HAVING supports aggregate"):
        session.sql(
            "SELECT k, SUM(price) AS r FROM S GROUP BY k HAVING r + 1 > 2"
        )


def test_constant_computed_columns(session):
    from repro import lit

    for engine in PARITY_ENGINES:
        assert session.sql("SELECT 2 * 3 AS six FROM S", engine=engine).rows == [
            (6,)
        ], engine
    assert session.query("S").select((lit(2) * 3, "six")).run().rows == [(6,)]


def test_select_list_order_preserved(session):
    for engine in PARITY_ENGINES:
        result = session.sql("SELECT price * 2 AS d, k FROM S", engine=engine)
        assert result.schema == ("d", "k"), engine
    result = session.query("S").select((col("price") * 2, "d"), "k").run()
    assert result.schema == ("d", "k")


def test_non_injective_computed_column_dedups(session):
    for engine in PARITY_ENGINES:
        result = (
            session.query("S").select((col("price") * 0, "z")).run(engine=engine)
        )
        assert result.rows == [(0,)], engine


# ---------------------------------------------------------------------------
# Expression selections run on the factorisation
# ---------------------------------------------------------------------------
ORACLES = ("rdb", "sqlite")
FDB_ENGINES = ("fdb", "fdb-factorised")

E5_SQL = (
    "SELECT customer, SUM(price) AS revenue FROM R1 "
    "WHERE price * 2 > 20 GROUP BY customer"
)


@pytest.fixture(scope="module")
def workload_db():
    from repro.data.workloads import build_workload_database

    return build_workload_database(scale=0.1, seed=2013)


def branching_session():
    """A view ``V`` factorised over g → (x → y, z), plus its flat form."""
    from repro.core.build import factorise
    from repro.core.ftree import build_ftree

    rows = sorted(
        (g, x, y, z)
        for g in (1, 2, 3)
        for x, y in ((1, 2), (1, 5), (3, 4), (g, g + 6))
        for z in (1, 2 * g)
    )
    view = Relation(("g", "x", "y", "z"), sorted(set(rows)), "V")
    ftree = build_ftree(
        [("g", [("x", ["y"]), "z"])],
        keys={"g": {"A", "B"}, "x": {"A"}, "y": {"A"}, "z": {"B"}},
    )
    session = connect(view)
    session.add_factorised("V", factorise(view, ftree))
    return session


class _BuildCounter:
    """Counts calls of the engine's flat-input path factorisation."""

    def __init__(self, monkeypatch):
        import repro.core.engine as engine_module

        self.calls = 0
        original = engine_module.factorise_path

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_module, "factorise_path", counted)


def assert_parity(session, builder_or_sql, engines=FDB_ENGINES, params=None):
    """Rows of every FDB engine equal rdb's and sqlite's; returns them."""
    rows = {
        engine: sorted(
            session.execute(builder_or_sql, engine=engine, params=params).rows
        )
        for engine in engines + ORACLES
    }
    for engine in engines:
        for oracle in ORACLES:
            assert rows[engine] == rows[oracle], (engine, oracle)
    return rows["sqlite"]


def test_expression_selection_on_registered_view(workload_db, monkeypatch):
    session = connect(workload_db, cache=False)
    counter = _BuildCounter(monkeypatch)
    rows = assert_parity(session, E5_SQL, FDB_ENGINES + ("fdb-parallel",))
    assert rows
    assert counter.calls == 0  # R1 was read as its registered view


def test_two_attributes_on_one_path_keep_the_view(monkeypatch):
    session = branching_session()
    counter = _BuildCounter(monkeypatch)
    for condition in (
        (col("x") + col("y"), ">", 6),  # x binds from y's parent
        (col("g") * col("y"), ">=", 8),  # the root binds two levels up
        (col("y") - col("x") * col("g"), "<", 2),
    ):
        builder = session.query("V").where(*condition).group_by("g").sum("y", "s")
        assert assert_parity(session, builder)
    assert counter.calls == 0


def test_cross_branch_condition_falls_back_to_the_flat_path(monkeypatch):
    session = branching_session()
    counter = _BuildCounter(monkeypatch)
    builder = (
        session.query("V").where(col("y") * col("z"), ">", 8).group_by("g")
        .sum("z", "s")
    )
    rows = assert_parity(session, builder)
    assert rows
    assert counter.calls == len(FDB_ENGINES)  # one flat build per run


def test_expression_selection_on_flat_input():
    session = connect(
        Relation(
            ("customer", "price", "qty"),
            [("a", 10, 5), ("a", 30, 4), ("b", 20, 6), ("b", 7, 2), ("c", 2, 2)],
            "Orders",
        )
    )
    builder = (
        session.query("Orders").where(col("price") * col("qty"), ">", 100)
        .group_by("customer").sum("qty", "units")
    )
    assert assert_parity(session, builder) == [("a", 4), ("b", 6)]
    spj = session.query("Orders").where(col("price") * col("qty"), ">", 40)
    assert len(assert_parity(session, spj)) == 3


def test_expression_selection_on_renamed_input(session, monkeypatch):
    from repro.core.build import factorise_path

    # T's ``k`` is renamed by the natural join with S; T is read as its
    # registered view, so the condition runs on the renamed view.
    session.add_factorised(
        "T",
        factorise_path(
            session.database.flat("T"), key="T", order=["k", "qty"]
        ),
    )
    builder = (
        session.query("S", "T").where(col("qty") * 2, ">", 3)
        .where(col("price") - 1, ">=", 6).group_by("k").sum("price", "s")
    )
    counter = _BuildCounter(monkeypatch)
    assert assert_parity(session, builder) == [(1, 60)]
    assert counter.calls == len(FDB_ENGINES)  # S only: it has no view


def test_expression_selection_false_everywhere(workload_db):
    session = connect(workload_db)
    sql = (
        "SELECT customer, SUM(price) AS revenue FROM R1 "
        "WHERE price * 0 > 1 GROUP BY customer"
    )
    assert assert_parity(session, sql, FDB_ENGINES + ("fdb-parallel",)) == []


def test_parameter_inside_expression_rebinds_one_plan(workload_db):
    session = connect(workload_db)
    sql = (
        "SELECT customer, SUM(price) AS revenue FROM R1 "
        "WHERE price * :rate > 20 GROUP BY customer"
    )
    prepared = session.prepare(sql, engine="fdb")
    results = {}
    for rate in (2, 3):
        result = prepared.run(rate=rate)
        results[rate] = sorted(result.rows)
        expected = assert_parity(session, sql, params={"rate": rate})
        assert results[rate] == expected
    assert result.lifecycle.plan_cache == "hit"  # the rate=3 run
    assert results[2] != results[3]


def test_expression_selection_explain(workload_db):
    session = connect(workload_db)
    plan = session.explain(E5_SQL, engine="fdb")
    assert "σ[price * 2 > 20]  (one traversal, filters price)" in plan
    assert "row-wise" not in plan
    analyzed = session.execute(E5_SQL, engine="fdb").explain()
    execution = analyzed[analyzed.index("f-plan execution:"):].splitlines()
    step = next(line for line in execution if "σ[price * 2 > 20]" in line)
    assert "size=" in step and step.endswith(" ms")


def test_e5_reads_r1_without_a_flat_build(workload_db, monkeypatch):
    from dataclasses import replace

    from repro.data.workloads import FULL_WORKLOAD
    from repro.query import Comparison

    counter = _BuildCounter(monkeypatch)
    engine = FDBEngine()
    e5 = FULL_WORKLOAD["E5"].query
    engine.execute(e5, workload_db)
    assert counter.calls == 0
    # R1's only numeric attribute is price, so the cross-branch
    # condition concatenates strings: customer sits under date, item
    # under package in a sibling subtree.
    cross = replace(
        e5, comparisons=(Comparison(col("customer") + col("item"), ">", "c"),)
    )
    fdb = engine.execute(cross, workload_db)
    assert counter.calls == 1
    rdb = connect(workload_db).execute(cross, engine="rdb")
    assert sorted(fdb.rows) == sorted(rdb.rows)
