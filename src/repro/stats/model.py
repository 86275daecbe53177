"""Statistics records: per-attribute and per-relation summaries.

Both records are frozen; updating statistics means building new records
(the copy-on-write discipline used across the catalogue), so references
handed to the optimiser stay stable while the cache turns over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

# Width of the per-attribute top-K histogram. Eight heavy hitters are
# enough to expose skew to the cost model without growing the cache.
HISTOGRAM_WIDTH = 8


@dataclass(frozen=True)
class AttributeStats:
    """Summary of one attribute's value distribution.

    ``distinct`` is the number of distinct values, ``total`` the number
    of observed occurrences (union entries for factorised sources,
    sampled rows for flat ones).  ``histogram`` holds the top-K
    ``(value, count)`` pairs by descending count; ``complete`` records
    whether it covers *every* distinct value (small domains), in which
    case counts are a full frequency table rather than a sample.
    """

    distinct: int
    total: int
    histogram: tuple = ()
    complete: bool = False

    @property
    def heavy_fraction(self) -> float:
        """Share of occurrences taken by the single heaviest value."""
        if not self.histogram or not self.total:
            return 0.0
        return self.histogram[0][1] / self.total


@dataclass(frozen=True)
class RelationStats:
    """Summary of one relation (or registered view).

    ``source`` labels where the numbers came from: ``columnar`` for
    walks over a resident view's union value arrays,
    ``flat`` for a sampling pass, ``metrics`` for values recovered from
    the ``repro.obs`` registry, and ``merged`` for cross-shard merges.
    """

    name: str
    rows: int
    attributes: Mapping[str, AttributeStats] = field(default_factory=dict)
    source: str = "flat"
    singletons: "int | None" = None
    resident_bytes: "int | None" = None

    def renamed(self, mapping: Mapping[str, str]) -> "RelationStats":
        """Statistics under renamed attributes (self-join aliases)."""
        if not mapping:
            return self
        attributes = {
            mapping.get(attribute, attribute): entry
            for attribute, entry in self.attributes.items()
        }
        return replace(self, attributes=attributes)

    def extended(
        self, extra: Mapping[str, AttributeStats]
    ) -> "RelationStats":
        """Statistics with additional attribute entries (equivalences)."""
        missing = {
            attribute: entry
            for attribute, entry in extra.items()
            if attribute not in self.attributes
        }
        if not missing:
            return self
        return replace(self, attributes={**self.attributes, **missing})


def _merge_histograms(parts: "Sequence[AttributeStats]") -> "tuple[tuple, bool]":
    counts: dict[Any, int] = {}
    for part in parts:
        for value, count in part.histogram:
            counts[value] = counts.get(value, 0) + count
    top = sorted(counts.items(), key=lambda item: (-item[1], repr(item[0])))
    complete = all(part.complete for part in parts) and (
        len(top) <= HISTOGRAM_WIDTH
    )
    return tuple(top[:HISTOGRAM_WIDTH]), complete


def merge_relation_stats(parts: Sequence[RelationStats]) -> RelationStats:
    """Combine per-shard statistics into one global estimate.

    Rows and totals add; distinct counts add but are capped by the
    merged row count (shards partition the data, so the union's distinct
    count is at most the sum and at most the cardinality).  Histograms
    merge by value with the top-K kept.
    """
    if not parts:
        raise ValueError("merge_relation_stats needs at least one part")
    if len(parts) == 1:
        return replace(parts[0], source="merged")
    rows = sum(part.rows for part in parts)
    names = set()
    for part in parts:
        names.update(part.attributes)
    attributes: dict[str, AttributeStats] = {}
    for attribute in names:
        entries = [
            part.attributes[attribute]
            for part in parts
            if attribute in part.attributes
        ]
        distinct = min(sum(entry.distinct for entry in entries), max(rows, 1))
        total = sum(entry.total for entry in entries)
        histogram, complete = _merge_histograms(entries)
        attributes[attribute] = AttributeStats(
            distinct=distinct,
            total=total,
            histogram=histogram,
            complete=complete,
        )
    singletons = [part.singletons for part in parts]
    resident = [part.resident_bytes for part in parts]
    return RelationStats(
        name=parts[0].name,
        rows=rows,
        attributes=attributes,
        source="merged",
        singletons=(
            sum(singletons) if all(s is not None for s in singletons) else None
        ),
        resident_bytes=(
            sum(resident) if all(b is not None for b in resident) else None
        ),
    )
