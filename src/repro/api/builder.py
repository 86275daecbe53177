"""The fluent, immutable query builder of the unified session API.

Builders are created by :meth:`repro.api.session.Session.query` and
lower to the engine-neutral :class:`repro.query.Query` AST::

    (session.query("R")
        .where("date", "=", "Friday")
        .group_by("customer")
        .agg("sum", "price", "revenue")
        .order_by("revenue", desc=True)
        .limit(3)
        .run())

Scalar expressions built with :func:`repro.col` flow through every
shaping method — aggregate arguments, selections, and computed output
columns::

    from repro import col

    (session.query("Orders")
        .group_by("customer")
        .sum(col("price") * col("qty"), alias="revenue")
        .run())

    session.query("Orders").select("customer", (col("price") * 1.2, "gross"))
    session.query("Orders").where(col("price") * col("qty"), ">", 100)

Every method returns a *new* builder (chains can be forked and reused)
and validates its arguments eagerly against the session's database, so
a typo fails at the call site with a suggestion instead of deep inside
an engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.expr import Attr, Expr
from repro.query import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPS,
    AggregateSpec,
    Comparison,
    ComputedColumn,
    Equality,
    Having,
    Query,
    QueryError,
)
from repro.api.util import suggest as _suggest
from repro.relational.sort import SortKey

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from typing import Mapping

    from repro.api.engines import Engine
    from repro.api.result import Result
    from repro.api.session import Session
    from repro.plan.prepared import PreparedQuery


@dataclass(frozen=True, eq=False)
class QueryBuilder:
    """Immutable builder over a fixed set of input relations.

    Use :meth:`repro.api.session.Session.query` to create one; every
    chained call returns a fresh builder, leaving the receiver intact.
    """

    _session: "Session"
    _relations: tuple[str, ...]
    _equalities: tuple[Equality, ...] = ()
    _comparisons: tuple[Comparison, ...] = ()
    _projection: tuple[str, ...] | None = None
    _computed: tuple[ComputedColumn, ...] = ()
    _group_by: tuple[str, ...] = ()
    _aggregates: tuple[AggregateSpec, ...] = ()
    _having: tuple[Having, ...] = ()
    _order_by: tuple[SortKey, ...] = ()
    _limit: int | None = None
    _distinct: bool = False
    _name: str = ""

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _visible_attributes(self) -> tuple[str, ...]:
        """Natural-join schema: every attribute under its first name."""
        seen: list[str] = []
        for relation in self._relations:
            for attribute in self._session.database.schema(relation):
                if attribute not in seen:
                    seen.append(attribute)
        return tuple(seen)

    def _check_attribute(self, attribute: str, context: str) -> None:
        visible = self._visible_attributes()
        if attribute not in visible:
            raise QueryError(
                f"unknown attribute {attribute!r} in {context}; "
                f"the joined relations ({', '.join(self._relations)}) "
                f"expose: {', '.join(visible)}"
                + _suggest(attribute, visible)
            )

    def _check_op(self, op: str) -> None:
        if op not in COMPARISON_OPS:
            raise QueryError(
                f"unknown comparison operator {op!r}; "
                f"expected one of: {', '.join(COMPARISON_OPS)}"
            )

    def _check_expression(self, expression: Expr, context: str) -> None:
        for attribute in expression.attributes():
            self._check_attribute(attribute, context)

    def _output_attributes(self) -> tuple[str, ...]:
        if self._aggregates:
            return self._group_by + tuple(s.alias for s in self._aggregates)
        if self._projection is not None or self._computed:
            return tuple(self._projection or ()) + tuple(
                column.alias for column in self._computed
            )
        return self._visible_attributes()

    # ------------------------------------------------------------------
    # Inputs and conditions
    # ------------------------------------------------------------------
    def join(self, *relations: str) -> "QueryBuilder":
        """Add input relations (natural-join semantics, as everywhere)."""
        self._session._check_relations(relations)
        return replace(self, _relations=self._relations + tuple(relations))

    def where(self, attribute: "str | Expr", *args: Any) -> "QueryBuilder":
        """Constant selection: ``where(target, op, value)``.

        The two-argument form ``where(target, value)`` means equality.
        ``target`` may be an attribute name or a scalar expression —
        ``where(col("price") * col("qty"), ">", 100)``; the FDB engines
        evaluate either in one traversal of the factorisation.
        Attribute-to-attribute equalities are spelled :meth:`on`.
        """
        if len(args) == 1:
            op, value = "=", args[0]
        elif len(args) == 2:
            op, value = args
        else:
            raise QueryError(
                "where() takes (attribute, value) or (attribute, op, value)"
            )
        if isinstance(attribute, Expr):
            self._check_expression(attribute, "where()")
        else:
            self._check_attribute(attribute, "where()")
        self._check_op(op)
        condition = Comparison(attribute, op, value)
        return replace(self, _comparisons=self._comparisons + (condition,))

    def on(self, left: str, right: str) -> "QueryBuilder":
        """Equality selection between two attributes (a join condition)."""
        self._check_attribute(left, "on()")
        self._check_attribute(right, "on()")
        return replace(
            self, _equalities=self._equalities + (Equality(left, right),)
        )

    # ------------------------------------------------------------------
    # Shaping
    # ------------------------------------------------------------------
    def select(self, *items: "str | Expr | tuple") -> "QueryBuilder":
        """Shape the output (set semantics).

        Items are attribute names, scalar expressions (computed output
        columns, labelled with their canonical text), or ``(expression,
        alias)`` pairs::

            .select("customer", (col("price") * col("qty"), "total"))
        """
        if self._aggregates:
            raise QueryError(
                "select() cannot be combined with aggregates; the output "
                "schema of an aggregate query is group_by() columns plus "
                "the aggregate aliases"
            )
        if not items:
            raise QueryError("select() needs at least one attribute")
        shaped: list["str | ComputedColumn"] = []
        for item in items:
            alias = None
            if isinstance(item, tuple):
                if len(item) != 2 or not isinstance(item[1], str):
                    raise QueryError(
                        "select() items are attribute names, expressions, "
                        "or (expression, alias) pairs"
                    )
                item, alias = item
            if isinstance(item, Attr) and alias is None:
                item = item.name
            if isinstance(item, str):
                self._check_attribute(item, "select()")
                if alias is not None:
                    # A renamed attribute is a computed column.
                    shaped.append(ComputedColumn(Attr(item), alias))
                else:
                    shaped.append(item)
                continue
            if not isinstance(item, Expr):
                raise QueryError(
                    f"select() cannot interpret {item!r}; expected an "
                    "attribute name, col(...) expression, or "
                    "(expression, alias) pair"
                )
            self._check_expression(item, "select()")
            shaped.append(ComputedColumn(item, alias or str(item)))
        projection = [item for item in shaped if isinstance(item, str)]
        computed = [item for item in shaped if not isinstance(item, str)]
        interleaved = any(
            isinstance(earlier, ComputedColumn)
            for index, item in enumerate(shaped)
            if isinstance(item, str)
            for earlier in shaped[:index]
        )
        if computed and projection and interleaved:
            # A computed column precedes a plain attribute, but the
            # output schema lists projection columns first: preserve
            # the select() call order by lifting plain attributes to
            # identity computed columns.
            projection = []
            computed = [
                item
                if isinstance(item, ComputedColumn)
                else ComputedColumn(Attr(item), item)
                for item in shaped
            ]
        return replace(
            self,
            _projection=tuple(projection),
            _computed=tuple(computed),
        )

    def group_by(self, *attributes: str) -> "QueryBuilder":
        """Group the output by ``attributes``."""
        if not attributes:
            raise QueryError("group_by() needs at least one attribute")
        for attribute in attributes:
            self._check_attribute(attribute, "group_by()")
        return replace(self, _group_by=tuple(attributes))

    def agg(
        self,
        function: str,
        attribute: "str | Expr | None" = None,
        alias: str | None = None,
    ) -> "QueryBuilder":
        """Add an aggregate ``alias ← function(argument)``.

        The argument may be an attribute name or a scalar expression:
        ``agg("sum", col("price") * col("qty"), "revenue")``.
        """
        function = function.lower()
        if function not in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"unknown aggregation function {function!r}; expected one "
                f"of: {', '.join(AGGREGATE_FUNCTIONS)}"
                + _suggest(function, AGGREGATE_FUNCTIONS)
            )
        if self._projection is not None or self._computed:
            raise QueryError(
                "agg() cannot be combined with select(); group the query "
                "with group_by() instead"
            )
        if isinstance(attribute, Expr):
            self._check_expression(attribute, f"{function}()")
        elif attribute is not None:
            self._check_attribute(attribute, f"{function}()")
        elif function != "count":
            raise QueryError(f"{function} requires an attribute")
        if alias is None:
            alias = f"{function}({attribute if attribute is not None else '*'})"
        taken = [spec.alias for spec in self._aggregates]
        if alias in taken:
            raise QueryError(
                f"duplicate aggregate alias {alias!r}; each aggregate "
                "needs a distinct alias"
            )
        spec = AggregateSpec(function, attribute, alias)
        return replace(self, _aggregates=self._aggregates + (spec,))

    # Spelled-out conveniences for the five functions of the paper.
    def sum(
        self, attribute: "str | Expr", alias: str | None = None
    ) -> "QueryBuilder":
        return self.agg("sum", attribute, alias)

    def count(self, alias: str | None = None) -> "QueryBuilder":
        return self.agg("count", None, alias)

    def min(
        self, attribute: "str | Expr", alias: str | None = None
    ) -> "QueryBuilder":
        return self.agg("min", attribute, alias)

    def max(
        self, attribute: "str | Expr", alias: str | None = None
    ) -> "QueryBuilder":
        return self.agg("max", attribute, alias)

    def avg(
        self, attribute: "str | Expr", alias: str | None = None
    ) -> "QueryBuilder":
        return self.agg("avg", attribute, alias)

    def having(self, target: str, op: str, value: Any) -> "QueryBuilder":
        """Filter groups by an aggregate alias or grouping attribute."""
        if not self._aggregates:
            raise QueryError(
                "having() requires at least one aggregate; add agg() "
                "(or sum()/count()/...) before having()"
            )
        self._check_op(op)
        allowed = self._group_by + tuple(s.alias for s in self._aggregates)
        if target not in allowed:
            raise QueryError(
                f"having() target {target!r} is neither a grouping "
                f"attribute nor an aggregate alias; available: "
                f"{', '.join(allowed)}" + _suggest(target, allowed)
            )
        condition = Having(target, op, value)
        return replace(self, _having=self._having + (condition,))

    # ------------------------------------------------------------------
    # Ordering and limit
    # ------------------------------------------------------------------
    def order_by(
        self, *keys: "str | tuple[str, str] | SortKey", desc: bool = False
    ) -> "QueryBuilder":
        """Order the output; ``desc=True`` flips every key of this call.

        Keys may be attribute names, ``(attribute, "desc")`` pairs, or
        :class:`repro.relational.sort.SortKey` instances.
        """
        if not keys:
            raise QueryError("order_by() needs at least one key")
        normalised: list[SortKey] = []
        for key in keys:
            if isinstance(key, SortKey):
                pass
            elif isinstance(key, str):
                key = SortKey(key, descending=desc)
            else:
                attribute, direction = key
                key = SortKey(
                    attribute,
                    descending=str(direction).lower()
                    in ("desc", "descending", "↓"),
                )
            normalised.append(key)
        allowed = self._output_attributes()
        for key in normalised:
            if key.attribute not in allowed:
                raise QueryError(
                    f"order_by() key {key.attribute!r} is not in the "
                    f"output schema ({', '.join(allowed)})"
                    + _suggest(key.attribute, allowed)
                )
        return replace(self, _order_by=self._order_by + tuple(normalised))

    def limit(self, count: int) -> "QueryBuilder":
        """Keep only the first ``count`` tuples (the λ operator).

        ``count`` must be a non-negative integer: a float (even an
        integral one) is almost certainly a bug at the call site.
        ``limit(0)`` is valid SQL and yields the empty result.
        """
        if not isinstance(count, int) or isinstance(count, bool):
            raise QueryError(
                f"limit must be an integer, got {count!r}; "
                "pass a non-negative int such as limit(10)"
            )
        if count < 0:
            raise QueryError(
                f"limit must be non-negative, got {count}; LIMIT 0 is "
                "the empty result, larger limits keep that many tuples"
            )
        return replace(self, _limit=count)

    def distinct(self) -> "QueryBuilder":
        """Request duplicate elimination on the output."""
        return replace(self, _distinct=True)

    def named(self, name: str) -> "QueryBuilder":
        """Label the query (shows up in result relations and plans)."""
        return replace(self, _name=name)

    # ------------------------------------------------------------------
    # Lowering and execution
    # ------------------------------------------------------------------
    def to_query(self) -> Query:
        """Lower to the engine-neutral :class:`repro.query.Query` AST."""
        return Query(
            relations=self._relations,
            equalities=self._equalities,
            comparisons=self._comparisons,
            projection=self._projection,
            computed=self._computed,
            group_by=self._group_by,
            aggregates=self._aggregates,
            having=self._having,
            order_by=self._order_by,
            limit=self._limit,
            distinct=self._distinct,
            name=self._name,
        )

    def to_sql(self) -> str:
        """SQL text of the query (the form fed to the sqlite backend)."""
        from repro.sql.generator import query_to_sql

        return query_to_sql(self.to_query())

    def run(
        self,
        engine: "str | Engine | None" = None,
        params: "Mapping[str, Any] | None" = None,
    ) -> "Result":
        """Execute through the session; ``engine`` overrides the default.

        ``params`` binds :func:`repro.param` placeholders for one-shot
        execution; use :meth:`prepare` to retain the compiled plan
        across bindings explicitly.
        """
        return self._session.execute(self, engine=engine, params=params)

    execute = run

    def prepare(self, engine: "str | Engine | None" = None) -> "PreparedQuery":
        """Compile once; returns a reusable
        :class:`repro.plan.prepared.PreparedQuery` handle."""
        return self._session.prepare(self, engine=engine)

    def explain(self, engine: "str | Engine | None" = None) -> str:
        """The chosen engine's explain text, without executing."""
        return self._session.explain(self, engine=engine)

    def __str__(self) -> str:
        return str(self.to_query())

    def __repr__(self) -> str:
        return f"QueryBuilder({self.to_query()})"
