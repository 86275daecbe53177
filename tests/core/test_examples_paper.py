"""Golden tests: every worked example of the paper, end to end.

Example 1 (three aggregation scenarios), Example 2 (order support after
restructuring), Example 3 (factorisation succinctness), Examples 4-5
(the γ operator and its dependencies), Example 6 (aggregate singletons
as pre-aggregated relations), Example 7 / Proposition 2 (composition),
Example 8 (the sum algorithm), Examples 9-10 (Theorems 1-2 on T1), and
Example 11 (the two alternative Q2 f-plans).
"""

import pytest

from repro.core import operators as ops
from repro.core.build import factorise, factorise_path
from repro.core.engine import FDBEngine
from repro.core.enumerate import iter_tuples, supports_grouping, supports_order
from repro.data.pizzeria import pizzeria_database, pizzeria_view
from repro.query import Query, aggregate
from repro.relational.engine import RDBEngine
from repro.core.frep import iter_entries


@pytest.fixture()
def view():
    return pizzeria_view()


# ---------------------------------------------------------------------------
# Figure 1 / Example 1
# ---------------------------------------------------------------------------
def test_figure1_factorisation_structure(view):
    _, fact = view
    # Three pizzas at the root, sorted; Hawaii shares Lucia & Pietro.
    assert fact.roots[0].values == [
        "Capricciosa",
        "Hawaii",
        "Margherita",
    ]
    dates = fact.roots[0].children[0][1]  # Hawaii's date fragment
    assert dates.values == ["Friday"]
    assert dates.children[0][0].values == ["Lucia", "Pietro"]


def test_example1_scenario1_local_aggregation(view):
    """S = ϖ_{customer,date,pizza; sum(price)}(R): aggregation is local."""
    _, fact = view
    s = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    by_pizza = {
        value: children[1].values[0][0]
        for value, children in iter_entries(s.roots[0])
    }
    assert by_pizza == {"Capricciosa": 8, "Hawaii": 9, "Margherita": 6}


def test_example1_scenario2_restructure_and_partials(view):
    """P = ϖ_{customer; sum(price)}(R) via T2 → T3 → T4 → final."""
    _, fact = view
    s = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    t3 = ops.swap(ops.swap(s, "customer"), "customer")
    assert t3.ftree.attribute_names()[0] == "customer"
    t4 = ops.apply_aggregation(
        t3, "pizza", ["date"], [("count", None)], name="cd"
    )
    # T4 fragment of Mario/Capricciosa: count 2, sum 8 (paper's figures).
    customers = t4.roots[0]
    pizzas = customers.children[0][customers.values.index("Mario")]
    capricciosa = pizzas.values.index("Capricciosa")
    values = sorted(col[capricciosa].values[0] for col in pizzas.children)
    assert values == [(2,), (8,)]
    final = ops.apply_aggregation(
        t4, "customer", ["pizza"], [("sum", "price")], name="revenue"
    )
    assert sorted(final.iter_tuples()) == [
        ("Lucia", (9,)),
        ("Mario", (22,)),
        ("Pietro", (9,)),
    ]


def test_example1_scenario3_on_the_fly(view):
    """Revenue per customer and pizza straight off the T4 factorisation."""
    db = pizzeria_database()
    q = Query(
        relations=("R",),
        group_by=("customer", "pizza"),
        aggregates=(aggregate("sum", "price", "rev"),),
    )
    result = FDBEngine().execute(q, db)
    expected = RDBEngine().execute(q, db)
    assert result == expected
    mario_capricciosa = next(
        r for r in result.as_dicts()
        if r["customer"] == "Mario" and r["pizza"] == "Capricciosa"
    )
    assert mario_capricciosa["rev"] == 16  # 2 dates × price 8


# ---------------------------------------------------------------------------
# Example 2: order support via partial restructuring
# ---------------------------------------------------------------------------
def test_example2_orders(view, t1):
    _, fact = view
    for order in [
        ("pizza",),
        ("pizza", "date"),
        ("pizza", "item"),
        ("pizza", "item", "date"),
        ("pizza", "date", "item"),
    ]:
        assert supports_order(t1, list(order)), order
    assert not supports_order(t1, ["customer", "pizza", "item", "price"])
    pushed = ops.swap(ops.swap(fact, "customer"), "customer")
    assert supports_order(pushed.ftree, ["customer", "pizza", "item", "price"])
    rows = list(iter_tuples(pushed, ["customer", "pizza", "item", "price"]))
    from repro.relational.sort import sort_rows

    assert rows == sort_rows(
        rows, pushed.schema(), ["customer", "pizza", "item", "price"]
    )


# ---------------------------------------------------------------------------
# Example 3: succinctness
# ---------------------------------------------------------------------------
def test_example3_sizes():
    from repro.core.ftree import build_ftree
    from repro.relational.relation import Relation

    relation = Relation(
        ("A", "B"), [(a, b) for a in ("d", "c") for b in (1, 2, 3)]
    )
    tree = build_ftree(["A", "B"], keys={"A": {"r1"}, "B": {"r2"}})
    e2 = factorise(relation, tree)
    assert e2.size() == 5  # (2 A-singletons) + (3 B-singletons)
    trivial = factorise_path(relation, "R")
    assert trivial.size() == 8  # 2 + 6 under the path A → B


# ---------------------------------------------------------------------------
# Examples 4-5 are covered in test_operators (γ structure, dependencies);
# Example 6 in test_operators (count-of-count); Example 8 in
# test_aggregates.  Example 7: composition equivalence.
# ---------------------------------------------------------------------------
def test_example7_composition_equivalence(view):
    """γ_sum(U) ∘ γ_count(date) ∘ γ_sum(item,price) = γ_sum(U)."""
    _, fact = view
    # Left side: the full staged pipeline of Example 1.
    staged = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    staged = ops.swap(ops.swap(staged, "customer"), "customer")
    staged = ops.apply_aggregation(
        staged, "pizza", ["date"], [("count", None)], name="cd"
    )
    staged = ops.apply_aggregation(
        staged, "customer", ["pizza"], [("sum", "price")], name="rev"
    )
    # Right side: restructure first, then one γ over the whole subtree.
    direct = ops.swap(ops.swap(fact, "customer"), "customer")
    direct = ops.apply_aggregation(
        direct, "customer", ["pizza"], [("sum", "price")], name="rev"
    )
    assert sorted(staged.iter_tuples()) == sorted(direct.iter_tuples())


# ---------------------------------------------------------------------------
# Examples 9-10 are covered in test_enumerate; Example 11: both plans.
# ---------------------------------------------------------------------------
def test_example11_alternative_plan(pizzeria_rels):
    """Example 11's alternative plan, under its independence assumption.

    The example assumes pizza ⊥ customer given date — "if the relation
    Orders was obtained as a join of the daily Menu(pizza, date) and
    Guests(date, customer)".  We build exactly that database and check
    both plans compute the same revenue per customer.
    """
    from repro.core.ftree import build_ftree
    from repro.relational.operators import multiway_join

    orders, pizzas, items = pizzeria_rels
    menu = orders.project(["pizza", "date"])
    menu.name = "Menu"
    guests = orders.project(["date", "customer"])
    guests.name = "Guests"
    joined = multiway_join([menu, guests, pizzas, items])
    t1_indep = build_ftree(
        [("pizza", [("date", ["customer"]), ("item", ["price"])])],
        keys={
            "pizza": {"Menu", "Pizzas"},
            "date": {"Menu", "Guests"},
            "customer": {"Guests"},
            "item": {"Pizzas", "Items"},
            "price": {"Items"},
        },
    )
    fact = factorise(joined, t1_indep, check=True)

    # Plan A (Example 1): partial sum, push customer up twice, finish.
    plan_a = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    plan_a = ops.swap(ops.swap(plan_a, "customer"), "customer")
    plan_a = ops.apply_aggregation(
        plan_a, "customer", ["pizza"], [("sum", "price")], name="revenue"
    )

    # Plan B (Example 11): partial sum, push *date* up — customer is
    # independent of pizza, so it moves up with date, giving the
    # example's tree date → (customer, pizza → sp).
    plan_b = ops.apply_aggregation(
        fact, "pizza", ["item"], [("sum", "price")], name="sp"
    )
    plan_b = ops.swap(plan_b, "date")
    date_children = {
        c.name for c in plan_b.ftree.node("date").children
    }
    assert "customer" in date_children  # the example's picture
    plan_b = ops.apply_aggregation(
        plan_b, "date", ["pizza"], [("sum", "price")], name="sp2"
    )
    plan_b = ops.swap(plan_b, "customer")
    plan_b = ops.apply_aggregation(
        plan_b, "customer", ["date"], [("sum", "price")], name="revenue"
    )
    assert sorted(plan_a.iter_tuples()) == sorted(plan_b.iter_tuples())


def test_final_ftree_of_example1(view):
    """The result's f-tree is customer → sum(...) as printed."""
    db = pizzeria_database()
    q = Query(
        relations=("R",),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "revenue"),),
    )
    result = FDBEngine(output="factorised").execute(q, db)
    tree = result.factorisation.ftree
    assert tree.roots[0].name == "customer"
    (child,) = tree.roots[0].children
    assert child.is_aggregate
