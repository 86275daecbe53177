"""Live query results, kept fresh by additive deltas.

``session.watch(query)`` returns a :class:`LiveView`: a maintained
result whose SUM/COUNT/AVG aggregates are updated by subtracting and
adding delta contributions over the partial-sum state — never by
recomputation — while MIN/MAX recompute only the groups a delta
actually touched.  The view synchronises lazily against the database's
version stamp and change log, so mutations through *any* path (the
session, the database, SQL statements) are observed.

Maintenance evidence is carried on the returned
:class:`repro.api.result.Result`: ``result.explain()`` shows the
:class:`~repro.ivm.stats.MaintenanceStats`, including the
incremental-vs-recompute ratio and the factorisation rebuild count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.ivm.stats import MaintenanceStats
from repro.obs import clock
from repro.query import Query
from repro.relational.relation import Relation
from repro.relational.sort import sort_rows

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.result import Result
    from repro.api.session import Session
    from repro.database import LogRecord


class _Group:
    """Additive state of one aggregate group."""

    __slots__ = ("support", "accumulators", "dirty")

    def __init__(self, n_specs: int) -> None:
        self.support = 0  # contributing input rows
        self.accumulators: list[Any] = [None] * n_specs
        self.dirty = False  # a MIN/MAX needs recomputation


class LiveView:
    """A maintained query result (see the module docstring).

    Incremental maintenance applies when the query aggregates over a
    single input relation; everything else falls back to re-running the
    query (counted in :attr:`stats` as a recompute).  HAVING, ORDER BY
    and LIMIT are re-applied over the maintained group table on every
    refresh — they are result-sized, not data-sized.
    """

    def __init__(
        self, session: "Session", query: Query, engine=None
    ) -> None:
        self._session = session
        self._query = query
        self._engine = engine
        self.stats = MaintenanceStats()
        self._groups: dict[tuple, _Group] = {}
        self._dirty_keys: set[tuple] = set()
        self._result: "Result | None" = None
        self._version = session.database.version
        self._supported = self._check_supported()
        self._seconds = 0.0
        self._counting = True
        start = clock.now()
        if self._supported:
            self._rebuild_groups()
            self._result = self._result_from_groups()
        else:
            self._result = self._run_query()
        self._seconds = clock.now() - start

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    @property
    def result(self) -> "Result":
        """The current result, synchronising against pending changes."""
        self._sync()
        assert self._result is not None
        return self._result

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.result)

    def __len__(self) -> int:
        return len(self.result)

    def pretty(self, limit: int = 20) -> str:
        return self.result.pretty(limit=limit)

    def explain(self) -> str:
        return self.result.explain()

    def refresh(self) -> "Result":
        """Force a full recomputation (and count it as one)."""
        self.stats.recomputes += 1
        if self._supported:
            self._rebuild_groups()
            self._result = self._result_from_groups()
        else:
            self._result = self._run_query()
        self._version = self._session.database.version
        return self._result

    def __repr__(self) -> str:
        mode = "incremental" if self._supported else "recompute"
        return f"LiveView({self._query}, mode={mode}, {self.stats})"

    # ------------------------------------------------------------------
    # Support analysis
    # ------------------------------------------------------------------
    def _check_supported(self) -> bool:
        query = self._query
        if not query.aggregates or len(query.relations) != 1:
            return False
        try:
            schema = set(self._session.database.schema(query.relations[0]))
        except KeyError:
            return False
        return query.referenced_attributes() <= schema

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        database = self._session.database
        if database.version == self._version:
            return
        start = clock.now()
        records = database.changes_since(self._version)
        if records is None or not self._supported:
            self.refresh()
            self._seconds = clock.now() - start
            return
        for record in records:
            if not self._apply_record(record):
                self.refresh()
                self._seconds = clock.now() - start
                return
        if self._dirty_keys:
            self._recompute_dirty()
        self._version = database.version
        self._result = self._result_from_groups()
        self._seconds = clock.now() - start

    def _apply_record(self, record: "LogRecord") -> bool:
        """Fold one log record into the group state; False = bail out."""
        target = self._query.relations[0]
        if record.kind == "register":
            return record.relation != target
        if record.relation == target:
            added = record.rows if record.kind == "insert" else ()
            removed = record.rows if record.kind == "delete" else ()
            columns = record.columns
        elif target in record.view_deltas:
            delta = record.view_deltas[target]
            if delta.rebuilt:
                return False
            added, removed = delta.added, delta.removed
            columns = delta.schema
            self.stats.nodes_touched += delta.nodes_touched
        else:
            return True  # unrelated change
        self.stats.deltas_applied += 1
        self.stats.incremental += 1
        self.stats.rows_inserted += len(added)
        self.stats.rows_deleted += len(removed)
        for row in added:
            self._absorb(dict(zip(columns, row)), +1)
        for row in removed:
            self._absorb(dict(zip(columns, row)), -1)
        return True

    # ------------------------------------------------------------------
    # Additive group maintenance
    # ------------------------------------------------------------------
    def _passes(self, binding: dict) -> bool:
        query = self._query
        for equality in query.equalities:
            if binding[equality.left] != binding[equality.right]:
                return False
        for condition in query.comparisons:
            target = condition.attribute
            value = (
                binding[target]
                if isinstance(target, str)
                else target.evaluate(binding)
            )
            if not condition.test(value):
                return False
        return True

    @staticmethod
    def _input_value(spec, binding: dict) -> Any:
        target = spec.attribute
        if target is None:
            return 1
        if isinstance(target, str):
            return binding[target]
        return target.evaluate(binding)

    def _absorb(self, binding: dict, sign: int) -> None:
        if not self._passes(binding):
            return
        query = self._query
        key = tuple(binding[g] for g in query.group_by)
        group = self._groups.get(key)
        if group is None:
            group = _Group(len(query.aggregates))
            self._groups[key] = group
        group.support += sign
        if self._counting:
            self.stats.groups_touched += 1
        if group.support <= 0:
            del self._groups[key]
            self._dirty_keys.discard(key)
            return
        for index, spec in enumerate(query.aggregates):
            function = spec.function
            if function == "count":
                continue  # derived from support
            value = self._input_value(spec, binding)
            current = group.accumulators[index]
            if function == "sum":
                group.accumulators[index] = (
                    value * sign if current is None else current + value * sign
                )
            elif function == "avg":
                total, count = current if current is not None else (0, 0)
                group.accumulators[index] = (
                    total + value * sign,
                    count + sign,
                )
            elif sign > 0:  # min/max gain: a direct comparison suffices
                if current is None:
                    group.accumulators[index] = value
                elif function == "min":
                    group.accumulators[index] = min(current, value)
                else:
                    group.accumulators[index] = max(current, value)
            else:  # min/max loss: recompute only if the extremum left
                if current is not None and value == current:
                    group.dirty = True
                    self._dirty_keys.add(key)

    def _recompute_dirty(self) -> None:
        """One scan refreshing MIN/MAX of the groups a delta touched."""
        query = self._query
        relation = self._session.database.flat(query.relations[0])
        schema = relation.schema
        extremal = [
            (index, spec)
            for index, spec in enumerate(query.aggregates)
            if spec.function in ("min", "max")
        ]
        fresh: dict[tuple, list[Any]] = {
            key: [None] * len(query.aggregates) for key in self._dirty_keys
        }
        for row in relation.rows:
            binding = dict(zip(schema, row))
            key = tuple(binding[g] for g in query.group_by)
            slot = fresh.get(key)
            if slot is None or not self._passes(binding):
                continue
            for index, spec in extremal:
                value = self._input_value(spec, binding)
                if slot[index] is None:
                    slot[index] = value
                elif spec.function == "min":
                    slot[index] = min(slot[index], value)
                else:
                    slot[index] = max(slot[index], value)
        for key, values in fresh.items():
            group = self._groups.get(key)
            if group is None:
                continue
            for index, _ in extremal:
                group.accumulators[index] = values[index]
            group.dirty = False
        self._dirty_keys.clear()

    # ------------------------------------------------------------------
    # Full builds
    # ------------------------------------------------------------------
    def _rebuild_groups(self) -> None:
        query = self._query
        self._groups = {}
        self._dirty_keys = set()
        relation = self._session.database.flat(query.relations[0])
        schema = relation.schema
        seen: set[tuple] = set()
        self._counting = False  # a full build is not delta maintenance
        try:
            for row in relation.rows:
                if row in seen:
                    continue  # set semantics, matching the factorised form
                seen.add(row)
                self._absorb(dict(zip(schema, row)), +1)
        finally:
            self._counting = True

    def _result_from_groups(self) -> "Result":
        from repro.api.result import Result

        query = self._query
        schema = query.output_schema
        rows: list[tuple] = []
        if not query.group_by and not self._groups:
            # Every engine returns one grand-total row over an empty
            # input: COUNT is 0, SUM/AVG/MIN/MAX are NULL; match them.
            from repro.core.aggregates import empty_aggregate_row

            rows.append(empty_aggregate_row(query.aggregates))
        for key in sorted(self._groups):
            group = self._groups[key]
            values: list[Any] = []
            for index, spec in enumerate(query.aggregates):
                if spec.function == "count":
                    values.append(group.support)
                elif spec.function == "avg":
                    total, count = group.accumulators[index]
                    values.append(total / count)
                else:
                    values.append(group.accumulators[index])
            rows.append(key + tuple(values))
        if query.having:
            lookup_positions = {name: i for i, name in enumerate(schema)}
            rows = [
                row
                for row in rows
                if all(
                    row[lookup_positions[condition.target]] is not None
                    and condition.test(
                        row[lookup_positions[condition.target]]
                    )
                    for condition in query.having
                )
            ]
        if query.order_by:
            rows = sort_rows(rows, schema, query.order_by)
        if query.limit is not None:
            rows = rows[: query.limit]
        relation = Relation(schema, rows, name=query.name or "live")
        backend = self._session._resolve(self._engine)
        return Result(
            query,
            f"live[{backend.name}]",
            relation=relation,
            explain_fn=self._explain_fn(backend),
            seconds=self._seconds,
            maintenance=self.stats,
        )

    def _run_query(self) -> "Result":
        result = self._session.execute(self._query, engine=self._engine)
        result.maintenance = self.stats
        return result

    def _explain_fn(self, backend):
        database = self._session.database
        query = self._query

        def explain() -> str:
            lines = [
                "live view: aggregates maintained additively from the "
                "change log (SUM/COUNT/AVG subtract-and-add; MIN/MAX "
                "recompute affected groups only)",
                backend.explain(query, database),
            ]
            return "\n".join(lines)

        return explain
