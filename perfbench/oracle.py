"""Correctness oracle: the flat ``rdb`` engine over the base relations.

The oracle database holds only ``Orders``, ``Packages`` and ``Items``;
each view query is unfolded into its defining join (R1 and R2 are
``Orders ⋈ Packages ⋈ Items``, R3 is ``Orders``).  The oracle therefore
shares neither the materialised views nor their incremental maintenance
with the engine under test.  Writes are replayed on the oracle database,
and expected results are memoised per database state (the set of
benchmark rows inserted and not yet deleted), so a state that recurs is
computed once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro import connect
from repro.data.generator import GeneratorConfig, generate
from repro.database import Database

#: The defining join of each materialised view of the workload database.
UNFOLDED = {
    "R1": ("Orders", "Packages", "Items"),
    "R2": ("Orders", "Packages", "Items"),
    "R3": ("Orders",),
}


def _canonical(row: tuple) -> tuple:
    # Sums may add floats in another order per engine; 9 decimals keeps
    # every value of this workload exact while absorbing that.
    return tuple(round(v, 9) if isinstance(v, float) else v for v in row)


class Oracle:
    """Expected results per (database state, query)."""

    def __init__(self, seed: int, scale: float) -> None:
        data = generate(GeneratorConfig(scale=scale, seed=seed))
        self.database = Database(data.relations())
        self.session = connect(self.database, engine="rdb", cache=False)
        self._expected: dict = {}

    def close(self) -> None:
        self.session.close()

    def insert(self, relation: str, row: tuple) -> None:
        self.session.insert(relation, [row])

    def delete(self, relation: str, row: tuple) -> None:
        self.session.delete(relation, rows=[row])

    def expected(self, state, name: str, query):
        """``(schema, rows)`` of the unlimited query on the oracle."""
        key = (state, name)
        if key not in self._expected:
            unfolded = replace(
                query,
                relations=tuple(
                    r for view in query.relations for r in UNFOLDED.get(view, (view,))
                ),
                limit=None,
            )
            result = self.session.prepare(unfolded).run()
            self._expected[key] = (result.relation.schema, result.rows)
        return self._expected[key]


def matches(query, schema, rows, expected) -> bool:
    """Whether ``rows`` is a correct answer to ``query``.

    Without ORDER BY, rows compare as a multiset.  With ORDER BY, the
    sequence of order-key values must equal the oracle's, and the rows
    as a multiset must equal it too — the columns outside the key may
    come in any order among ties (Q7 ties on ``revenue``).  With LIMIT,
    the key sequence must equal the oracle's first rows and every row
    must belong to the unlimited answer, since ties at the cut may
    admit either row.
    """
    expected_schema, expected_rows = expected
    if set(schema) != set(expected_schema) or len(schema) != len(expected_schema):
        return False
    positions = [expected_schema.index(a) for a in schema]
    reference = [_canonical(tuple(r[p] for p in positions)) for r in expected_rows]
    got = [_canonical(tuple(r)) for r in rows]
    keys = [schema.index(k.attribute) for k in query.order_by]
    if query.limit is not None:
        if len(got) != min(query.limit, len(reference)):
            return False
        if Counter(got) - Counter(reference):
            return False
        reference = reference[: query.limit]
    elif Counter(got) != Counter(reference):
        return False
    return [tuple(r[k] for k in keys) for r in got] == [
        tuple(r[k] for k in keys) for r in reference
    ]
