"""Property tests for serialisation and the advisor on random inputs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import operators as ops
from repro.core.advisor import enumerate_ftrees
from repro.core.build import factorise_path
from repro.core.cost import Hypergraph
from repro.core.enumerate import iter_tuples
from repro.core.io import dumps, loads
from repro.relational.relation import Relation

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["x", "y", "zz"]),
)


@st.composite
def typed_relations(draw):
    """Relations with homogeneous columns of mixed types across columns."""
    n_rows = draw(st.integers(min_value=0, max_value=8))
    col_a = draw(st.lists(st.integers(0, 4), min_size=n_rows, max_size=n_rows))
    col_b = draw(
        st.lists(st.sampled_from(["p", "q", "r"]), min_size=n_rows, max_size=n_rows)
    )
    rows = list(dict.fromkeys(zip(col_a, col_b)))
    return Relation(("a", "b"), rows, name="R")


@given(typed_relations())
@SETTINGS
def test_serialisation_roundtrip_random(relation):
    fact = factorise_path(relation, "R")
    restored = loads(dumps(fact))
    restored.validate()
    assert restored.to_relation() == relation
    assert restored.size() == fact.size()


@given(typed_relations())
@SETTINGS
def test_serialisation_roundtrip_after_aggregation(relation):
    if not len(relation):
        return
    fact = factorise_path(relation, "R")
    aggregated = ops.apply_aggregation(
        fact, "a", ["b"], [("count", None)], name="n"
    )
    restored = loads(dumps(aggregated))
    assert list(iter_tuples(restored)) == list(iter_tuples(aggregated))


@st.composite
def hypergraphs(draw):
    """Random 2-3 relation hypergraphs over up to 4 attributes."""
    attributes = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
    n_edges = draw(st.integers(1, 3))
    edges = {}
    covered = set()
    for index in range(n_edges):
        edge = draw(
            st.sets(st.sampled_from(attributes), min_size=1, max_size=3)
        )
        edges[f"R{index}"] = tuple(sorted(edge))
        covered |= edge
    for attribute in attributes:
        if attribute not in covered:
            edges.setdefault("R0", ())
            edges["R0"] = tuple(sorted(set(edges["R0"]) | {attribute}))
    return attributes, Hypergraph(edges)


@given(hypergraphs())
@SETTINGS
def test_enumerated_trees_always_valid(pair):
    attributes, hypergraph = pair
    count = 0
    for tree in enumerate_ftrees(attributes, hypergraph, cap=3000):
        assert tree.satisfies_path_constraint()
        assert sorted(tree.attribute_names()) == sorted(attributes)
        count += 1
        if count > 200:
            break
    assert count >= 1  # at least one valid tree always exists (a path)
