"""Unit tests for f-plan steps and execution traces."""

import pytest

from repro.core.build import factorise
from repro.core.enumerate import iter_tuples
from repro.core.fplan import (
    AbsorbStep,
    AggregateStep,
    ExecutionTrace,
    FPlan,
    MergeStep,
    RemoveLeafStep,
    RenameStep,
    SelectStep,
    SwapStep,
)
from repro.query import Comparison
from repro.relational.operators import multiway_join


@pytest.fixture()
def pizza_fact(pizzeria_rels, t1):
    return factorise(multiway_join(list(pizzeria_rels)), t1)


def test_plan_simulate_matches_execute(pizza_fact):
    plan = FPlan(
        [
            AggregateStep("pizza", ("item",), (("sum", "price"),), "sp"),
            SwapStep("customer"),
            SwapStep("customer"),
        ]
    )
    trees = plan.simulate(pizza_fact.ftree)
    result = plan.execute(pizza_fact)
    assert trees[-1].attribute_names() == result.ftree.attribute_names()


def test_trace_records_sizes(pizza_fact):
    trace = ExecutionTrace()
    plan = FPlan(
        [AggregateStep("pizza", ("item",), (("sum", "price"),), "sp")]
    )
    plan.execute(pizza_fact, trace)
    assert len(trace.sizes) == 1
    assert trace.sizes[0] < pizza_fact.size()  # aggregation shrinks
    assert "γ" in trace.describe()


def test_select_step(pizza_fact):
    plan = FPlan([SelectStep(Comparison("price", "=", 6))])
    out = plan.execute(pizza_fact)
    values = {row[-1] for row in iter_tuples(out)}
    assert values == {6}
    # Tree shape is unchanged by constant selections.
    assert plan.simulate(pizza_fact.ftree)[-1] is pizza_fact.ftree


def test_rename_step(pizza_fact):
    plan = FPlan([RenameStep("price", "cost")])
    out = plan.execute(pizza_fact)
    assert "cost" in out.ftree
    tree = plan.simulate(pizza_fact.ftree)[-1]
    assert "cost" in tree and "price" not in tree


def test_remove_leaf_step(pizza_fact):
    plan = FPlan([RemoveLeafStep("price")])
    out = plan.execute(pizza_fact)
    assert "price" not in out.ftree


def test_merge_and_absorb_steps():
    from repro.core import operators as ops
    from repro.core.build import factorise_path
    from repro.relational.relation import Relation

    r = factorise_path(Relation(("a",), [(1,), (2,)]), "R")
    s = factorise_path(Relation(("b",), [(2,), (3,)]), "S")
    fact = ops.product(r, s)
    out = FPlan([MergeStep("a", "b")]).execute(fact)
    assert sorted(iter_tuples(out)) == [(2, 2)]

    t = factorise_path(Relation(("x", "y"), [(1, 1), (1, 2)]), "T")
    out = FPlan([AbsorbStep("x", "y")]).execute(t)
    assert sorted(iter_tuples(out)) == [(1, 1)]


def test_plan_str_and_len(pizza_fact):
    plan = FPlan([SwapStep("date"), SwapStep("pizza")])
    assert len(plan) == 2
    assert "χ↑date" in str(plan)
    assert str(FPlan([])) == "(no-op)"


def test_steps_are_value_objects():
    assert SwapStep("a") == SwapStep("a")
    assert MergeStep("a", "b") != MergeStep("a", "c")
    assert AggregateStep(None, ("a",), (("count", None),), "n") == AggregateStep(
        None, ("a",), (("count", None),), "n"
    )
