"""Statistics collectors: exactness, scan-freeness, metrics recovery.

The value-array walks must reproduce the ground truth computable
from the flat rows (distinct counts, cardinality) while touching only
union structure — asserted via the seed-source counters of
``repro_stats_cache_events_total``: a resident view never seeds from
the ``flat`` sampling path.
"""

from __future__ import annotations

from repro.core.build import factorise
from repro.core.ftree import build_ftree
from repro.database import Database
from repro.relational.relation import Relation
from repro.stats import (
    FLAT_SAMPLE_LIMIT,
    stats_cache,
    stats_from_factorisation,
    stats_from_flat,
    stats_from_metrics,
)
from repro.stats.cache import _SEED_EVENTS


def _example_relation():
    rows = []
    for j in range(3):
        for a in range(4):
            for c in range(2):
                rows.append((j, f"a{j}_{a}", a % 2, f"c{j}_{c}", c + 10 * j))
    return Relation(("j", "a", "x", "c", "y"), rows, name="V")


def _example_ftree():
    return build_ftree([("j", [("a", ["x"]), ("c", ["y"])])])


def _ground_truth(relation):
    return {
        attribute: len({row[i] for row in relation.rows})
        for i, attribute in enumerate(relation.schema)
    }


def test_factorised_stats_match_flat_truth():
    relation = _example_relation()
    truth = _ground_truth(relation)
    fact = factorise(relation, _example_ftree(), check=True)
    stats = stats_from_factorisation("V", fact)
    assert stats.source == "columnar"
    assert stats.rows == len(relation.rows)
    assert {
        name: entry.distinct for name, entry in stats.attributes.items()
    } == truth
    singletons, resident = fact.size_info()
    assert stats.singletons == singletons
    assert stats.resident_bytes == resident


def test_factorised_histogram_exposes_skew():
    # x alternates 0/1 within each a-branch: both values recur across
    # every (j, a) context, so the context-frequency histogram is a
    # complete 2-bucket table.
    relation = _example_relation()
    stats = stats_from_factorisation(
        "V", factorise(relation, _example_ftree(), check=True)
    )
    x = stats.attributes["x"]
    assert x.complete
    assert len(x.histogram) == 2
    assert x.heavy_fraction == 0.5


def test_resident_view_seeds_without_flat_scan():
    """The acceptance check: seeding a registered columnar view must be
    structure-only — the ``flat`` sampling counter does not move."""
    relation = _example_relation()
    database = Database([relation])
    database.add_factorised("V", factorise(relation, _example_ftree()))
    stats_cache().clear()
    before = {
        source: child._sample() for source, child in _SEED_EVENTS.items()
    }
    stats = stats_cache().relation_stats(database, "V")
    assert stats is not None and stats.source == "columnar"
    assert _SEED_EVENTS["columnar"]._sample() == before["columnar"] + 1
    assert _SEED_EVENTS["flat"]._sample() == before["flat"]


def test_flat_sampling_is_exact_when_small():
    relation = _example_relation()
    stats = stats_from_flat("V", relation)
    assert stats.source == "flat"
    assert stats.rows == len(relation.rows)
    assert {
        name: entry.distinct for name, entry in stats.attributes.items()
    } == _ground_truth(relation)


def test_flat_sampling_is_bounded():
    rows = [(i, i % 7) for i in range(1000)]
    relation = Relation(("k", "m"), rows, name="big")
    stats = stats_from_flat("big", relation, limit=100)
    assert stats.rows == 1000
    k = stats.attributes["k"]
    # A stride sample visits ~limit rows: observed distincts are a
    # lower bound and the histogram cannot claim completeness.
    assert k.total <= 2 * 100
    assert k.distinct <= 1000
    assert not k.complete
    assert FLAT_SAMPLE_LIMIT >= 100


def test_metrics_recovery_round_trips_after_eviction():
    relation = _example_relation()
    database = Database([relation])
    cache = stats_cache()
    cache.clear()
    first = cache.relation_stats(database, "V")
    assert first is not None and first.source == "flat"
    cache.clear()  # evict; the published gauges survive
    recovered = cache.relation_stats(database, "V")
    assert recovered is not None and recovered.source == "metrics"
    assert recovered.rows == first.rows
    assert {
        name: entry.distinct for name, entry in recovered.attributes.items()
    } == {name: entry.distinct for name, entry in first.attributes.items()}


def test_metrics_recovery_rejects_stale_version():
    relation = _example_relation()
    database = Database([relation])
    cache = stats_cache()
    cache.clear()
    assert cache.relation_stats(database, "V") is not None
    database.insert("V", [(99, "a99", 0, "c99", 999)])  # version moves on
    stale = stats_from_metrics(
        "V", database, getattr(database, "version", 0)
    )
    assert stale is None
    cache.clear()
    reseeded = cache.relation_stats(database, "V")
    assert reseeded is not None and reseeded.source == "flat"
    assert reseeded.rows == len(relation.rows) + 1
