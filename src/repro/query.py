"""The shared query AST consumed by every engine in the repository.

The paper evaluates queries of the shape

    Q = o_L ( ϖ_{G; α←F} ( σ_{A1=B1, ..., Am=Bm, φ} (R1 × ... × Rn) ) )

optionally wrapped in a limit operator λ_k (Section 5.1).  This module
defines a small, engine-neutral representation of exactly that class —
products of relations, conjunctive equality and constant selections,
grouping with (possibly several) aggregation functions, ordering with
per-attribute direction, and limit — plus SQL ``HAVING`` conditions,
which the paper notes are reducible to an extra aggregate and a final
selection (Section 2).

Three executors consume this AST:

- :class:`repro.core.engine.FDBEngine` (factorised evaluation),
- :class:`repro.relational.engine.RDBEngine` (flat evaluation),
- :mod:`repro.bench.engines` (translation to SQL text for ``sqlite3``).

Attribute names must be globally unique across the input relations, as
in the paper's formulation; joins are expressed as explicit equality
conditions.  :func:`natural_equalities` builds the explicit form for
natural joins over same-named attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.expr import Attr, Expr, Param, UnboundParamError, as_expr
from repro.relational.sort import SortKey, normalise_order

AGGREGATE_FUNCTIONS = ("sum", "count", "min", "max", "avg")
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class QueryError(ValueError):
    """Raised for malformed queries (unknown attributes, bad specs...)."""


def _normalise_target(value: "str | Expr | None") -> "str | Expr | None":
    """Canonical form of an expression-or-attribute slot.

    Bare attribute references collapse to their name (the historical
    string form every engine already understands); composite
    expressions stay expression trees.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Attr):
        return value.name
    if isinstance(value, Expr):
        return value
    raise QueryError(
        f"expected an attribute name or expression, got {value!r}"
    )


def target_attributes(target: "str | Expr | None") -> tuple[str, ...]:
    """Attribute names referenced by an attribute-or-expression slot."""
    if target is None:
        return ()
    if isinstance(target, str):
        return (target,)
    return target.attributes()


@dataclass(frozen=True)
class Comparison:
    """A constant selection condition ``target op value`` (φ).

    ``attribute`` is an attribute name in the classical case; it may
    also be a scalar :class:`repro.expr.Expr` (``col("price") *
    col("qty") > 100``).  The FDB engines filter the factorisation in
    one traversal either way (:func:`repro.core.operators.select_constant`);
    the flat engines test each row.
    """

    attribute: "str | Expr"
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")
        object.__setattr__(
            self, "attribute", _normalise_target(self.attribute)
        )
        if self.attribute is None:
            raise QueryError("comparison needs an attribute or expression")

    @property
    def is_expression(self) -> bool:
        return isinstance(self.attribute, Expr)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names the condition reads."""
        return target_attributes(self.attribute)

    def test(self, value: Any) -> bool:
        """Evaluate the condition against a concrete value."""
        if isinstance(self.value, Param):
            raise UnboundParamError(
                f"parameter :{self.value.name} is unbound; bind it "
                "through a prepared query before executing"
            )
        op = self.op
        if op == "=":
            return value == self.value
        if op == "!=":
            return value != self.value
        if op == "<":
            return value < self.value
        if op == "<=":
            return value <= self.value
        if op == ">":
            return value > self.value
        return value >= self.value

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Equality:
    """An equality selection ``left = right`` between two attributes."""

    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregation function application ``alias ← function(argument)``.

    ``attribute`` is ``None`` only for ``count`` (tuple counting); it is
    an attribute name for the classical single-attribute aggregates, or
    a scalar :class:`repro.expr.Expr` for expression aggregates such as
    ``SUM(price * qty)`` (Section 3.2 evaluates these directly on the
    factorisation).  Plain strings and bare ``col(...)`` references are
    interchangeable; ``avg`` is internally evaluated as the pair
    (sum, count) per Section 3.2.4.
    """

    function: str
    attribute: "str | Expr | None"
    alias: str

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise QueryError(f"unknown aggregation function {self.function!r}")
        object.__setattr__(
            self, "attribute", _normalise_target(self.attribute)
        )
        if self.attribute is None and self.function != "count":
            raise QueryError(f"{self.function} requires an attribute")
        if not self.alias:
            raise QueryError("aggregate needs a result alias")

    @property
    def is_expression(self) -> bool:
        """Whether the argument is a composite scalar expression."""
        return isinstance(self.attribute, Expr)

    @property
    def expression(self) -> "Expr | None":
        """The argument as an expression tree (None for ``count(*)``)."""
        if self.attribute is None:
            return None
        return as_expr(self.attribute)

    @property
    def source_attributes(self) -> tuple[str, ...]:
        """Attribute names the aggregate reads."""
        return target_attributes(self.attribute)

    def __str__(self) -> str:
        arg = str(self.attribute) if self.attribute is not None else "*"
        return f"{self.alias} ← {self.function}({arg})"


@dataclass(frozen=True)
class ComputedColumn:
    """A computed output column ``alias ← expression`` (no aggregation).

    Appears after the plain projection columns in the output schema of
    select-project-join queries; every engine evaluates the expression
    row-wise over the joined input.
    """

    expression: Expr
    alias: str

    def __post_init__(self) -> None:
        expression = as_expr(self.expression)
        object.__setattr__(self, "expression", expression)
        if not self.alias:
            object.__setattr__(self, "alias", str(expression))

    @property
    def source_attributes(self) -> tuple[str, ...]:
        return self.expression.attributes()

    def __str__(self) -> str:
        return f"{self.alias} ← {self.expression}"


@dataclass(frozen=True)
class Having:
    """A HAVING conjunct: condition on an aggregate alias or group attr."""

    target: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def test(self, value: Any) -> bool:
        return Comparison(self.target, self.op, self.value).test(value)


@dataclass(frozen=True)
class Query:
    """A query in the class of Section 5.1 (plus HAVING and DISTINCT).

    Fields mirror the paper's canonical form; empty tuples mean "absent".
    ``projection`` supports plain select-project-join queries: when it is
    set and no aggregates are present, the result is the projection of
    the join.  With aggregates, the output schema is ``group_by`` columns
    followed by aggregate aliases, as in SQL.
    """

    relations: tuple[str, ...]
    equalities: tuple[Equality, ...] = ()
    comparisons: tuple[Comparison, ...] = ()
    projection: tuple[str, ...] | None = None
    computed: tuple[ComputedColumn, ...] = ()
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    having: tuple[Having, ...] = ()
    order_by: tuple[SortKey, ...] = ()
    limit: int | None = None
    distinct: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if not self.relations:
            raise QueryError("query needs at least one input relation")
        if self.limit is not None and self.limit < 0:
            raise QueryError("limit must be non-negative")
        aliases = [spec.alias for spec in self.aggregates]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aggregate aliases in {aliases}")
        if self.having and not self.aggregates:
            raise QueryError("HAVING requires aggregates")
        if self.computed:
            if self.aggregates:
                raise QueryError(
                    "computed columns cannot be combined with aggregates; "
                    "use an expression aggregate instead"
                )
            taken = list(self.projection or ())
            for column in self.computed:
                if column.alias in taken:
                    raise QueryError(
                        f"duplicate output column {column.alias!r}"
                    )
                taken.append(column.alias)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def output_schema(self) -> tuple[str, ...]:
        """Attribute names of the query result, in output order."""
        if self.aggregates:
            return tuple(self.group_by) + tuple(
                spec.alias for spec in self.aggregates
            )
        if self.computed:
            return tuple(self.projection or ()) + tuple(
                column.alias for column in self.computed
            )
        if self.projection is not None:
            return tuple(self.projection)
        return ()  # all join attributes; engines resolve against the data

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

    @property
    def order_attributes(self) -> tuple[str, ...]:
        return tuple(key.attribute for key in self.order_by)

    def referenced_attributes(self) -> set[str]:
        """Every attribute name the query mentions (for validation)."""
        attrs: set[str] = set()
        for eq in self.equalities:
            attrs.update((eq.left, eq.right))
        for c in self.comparisons:
            attrs.update(c.attributes)
        if self.projection:
            attrs.update(self.projection)
        attrs.update(self.group_by)
        for spec in self.aggregates:
            attrs.update(spec.source_attributes)
        for column in self.computed:
            attrs.update(column.source_attributes)
        aliases = {spec.alias for spec in self.aggregates}
        aliases.update(column.alias for column in self.computed)
        attrs.update(
            key.attribute
            for key in self.order_by
            if key.attribute not in aliases
        )
        return attrs

    def with_order(self, order: Sequence) -> "Query":
        """Copy of this query with a different order-by list."""
        return replace(self, order_by=tuple(normalise_order(order)))

    def with_limit(self, k: int) -> "Query":
        """Copy of this query wrapped in λ_k."""
        return replace(self, limit=k)

    def __str__(self) -> str:
        parts = [f"Q({', '.join(self.relations)}"]
        if self.equalities or self.comparisons:
            conds = [str(c) for c in self.equalities + self.comparisons]
            parts.append(f"; σ[{' ∧ '.join(conds)}]")
        if self.aggregates:
            aggs = ", ".join(str(a) for a in self.aggregates)
            parts.append(f"; ϖ[{', '.join(self.group_by)}; {aggs}]")
        elif self.projection is not None or self.computed:
            columns = list(self.projection or ()) + [
                str(c) for c in self.computed
            ]
            parts.append(f"; π[{', '.join(columns)}]")
        if self.order_by:
            parts.append(f"; o[{', '.join(str(k) for k in self.order_by)}]")
        if self.limit is not None:
            parts.append(f"; λ{self.limit}")
        return "".join(parts) + ")"


def aggregate(
    function: str, attribute: "str | Expr | None" = None, alias: str = ""
) -> AggregateSpec:
    """Convenience constructor: ``aggregate("sum", "price", "revenue")``.

    The argument may be a scalar expression:
    ``aggregate("sum", col("price") * col("qty"), "revenue")``.
    """
    if not alias:
        alias = f"{function}({attribute if attribute is not None else '*'})"
    return AggregateSpec(function, attribute, alias)


def natural_equalities(
    schemas: dict[str, Sequence[str]], relations: Iterable[str]
) -> tuple[dict[str, dict[str, str]], list[Equality]]:
    """Explicit-equality form of a natural join over same-named attributes.

    Returns per-relation rename maps (making attribute names globally
    unique: the second and later occurrences of a name ``A`` become
    ``A#2``, ``A#3``...) and the equality conditions tying them back
    together.
    """
    seen: dict[str, int] = {}
    renames: dict[str, dict[str, str]] = {}
    equalities: list[Equality] = []
    first_name: dict[str, str] = {}
    for rel in relations:
        mapping: dict[str, str] = {}
        for attr in schemas[rel]:
            count = seen.get(attr, 0) + 1
            seen[attr] = count
            if count == 1:
                first_name[attr] = attr
            else:
                fresh = f"{attr}#{count}"
                mapping[attr] = fresh
                equalities.append(Equality(first_name[attr], fresh))
        renames[rel] = mapping
    return renames, equalities
