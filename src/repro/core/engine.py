"""The FDB query engine: queries with aggregates and ordering on
factorised databases.

``FDBEngine.execute`` runs the full pipeline of the paper:

1. *inputs* — registered factorised views are used directly; flat
   relations are factorised over path f-trees on the fly (with join
   attributes near the root).  Multiple inputs are combined with the
   product operator; natural joins over shared attribute names are
   canonicalised into explicit equality selections with renames, as in
   the paper's formulation (Section 5.1);
2. *selections* — constant and expression selections, each evaluated in
   one traversal of the input factorisation.  An expression's
   attributes must lie on one root-to-leaf path; a view whose f-tree
   puts them on different branches is read through its flat path
   f-tree instead;
3. *f-plan* — the optimiser (greedy by default, Section 5.2) compiles
   equality selections, partial aggregation and restructuring into a
   plan, which is executed operator by operator;
4. *output shaping* —

   - flat output (the paper's "FDB"): group assignments are enumerated
     with constant delay and the remaining partial aggregates are
     combined on the fly (Example 1, case 3); order-by and limit ride on
     the sorted unions (Theorems 1-2);
   - factorised output ("FDB f/o"): the partial aggregates are collapsed
     into a single aggregate attribute under a linearised group-by path,
     yielding a factorisation of the query result.

The engine is read-only with respect to the database: operators share
unchanged fragments instead of mutating them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.core import aggregates as agg
from repro.core import operators as ops
from repro.core.build import factorise_path
from repro.core.cost import Hypergraph, estimated_tree_size, ftree_cost
from repro.core.enumerate import (
    iter_group_contexts,
    iter_tuples,
    restructure_for_order,
    supports_order,
)
from repro.core.fplan import ExecutionTrace, FPlan, SelectStep
from repro.core.frep import (
    CUnion,
    Factorisation,
    empty_factorisation,
    map_cunion_at,
)
from repro.core.ftree import (
    AggregateAttribute,
    FNode,
    FTree,
    fresh_aggregate_name,
    path_ftree,
)
from repro.core.optimizer import (
    CostBasedOptimizer,
    ExhaustiveOptimizer,
    GreedyOptimizer,
    PlanContext,
)
from repro.obs.metrics import metrics
from repro.query import AggregateSpec, Query, QueryError, natural_equalities
from repro.relational.relation import Relation
from repro.relational.sort import SortKey, normalise_order, sort_rows

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.database import Database

_OPTIMIZER_SECONDS = metrics().histogram(
    "repro_optimizer_seconds",
    "Time spent choosing an f-plan, per optimiser strategy.",
    ("strategy",),
)
_OPTIMIZER_TIMERS = {
    "greedy": _OPTIMIZER_SECONDS.labels("greedy"),
    "exhaustive": _OPTIMIZER_SECONDS.labels("exhaustive"),
    "cost": _OPTIMIZER_SECONDS.labels("cost"),
}

_OPTIMIZERS = {
    "greedy": GreedyOptimizer,
    "exhaustive": ExhaustiveOptimizer,
    "cost": CostBasedOptimizer,
}


class FactorisedResult:
    """Factorised query output (the FDB f/o mode).

    Wraps the result factorisation together with the query's output
    schema; tuples can be enumerated (optionally ordered/limited)
    without flattening the representation.
    """

    def __init__(
        self,
        factorisation: Factorisation,
        output_schema: Sequence[str],
        aggregate_node: str | None = None,
        specs: Sequence[AggregateSpec] = (),
        order: Sequence[SortKey] = (),
        limit: int | None = None,
        computed: Sequence = (),
    ) -> None:
        self.factorisation = factorisation
        self.output_schema = tuple(output_schema)
        self.aggregate_node = aggregate_node
        self.specs = tuple(specs)
        self.order = tuple(order)
        self.limit = limit
        self.computed = tuple(computed)

    def size(self) -> int:
        """Singleton count of the result representation."""
        return self.factorisation.size()

    def iter_tuples(self) -> Iterator[tuple]:
        """Enumerate result tuples in the query's order."""
        fact = self.factorisation
        inner_order = [
            key for key in self.order if key.attribute in fact.ftree
        ]
        aggregate = None
        if self.aggregate_node is not None:
            node = fact.ftree.node(self.aggregate_node)
            aggregate = (self.aggregate_node, self.specs, node.aggregate.functions)
        iterator = _shaped_rows(
            iter_tuples(fact, inner_order),
            fact.schema(),
            self.output_schema,
            self.computed,
            aggregate,
        )
        if self.limit is not None:
            iterator = islice(iterator, self.limit)
        return iterator

    def to_relation(self, name: str = "") -> Relation:
        return Relation(
            self.output_schema, list(self.iter_tuples()), name=name or "result"
        )


@dataclass(frozen=True)
class _InputDecision:
    """Structural choices for one input relation (see
    :meth:`FDBEngine._input_decisions`)."""

    name: str
    mapping: dict  # rename map (natural-join disambiguation)
    registered: "Factorisation | None"  # usable registered view, if any
    schema: tuple[str, ...]  # post-rename attribute names
    order: tuple[str, ...]  # path order, join attributes first


@dataclass
class FDBCompiled:
    """The retained output of :meth:`FDBEngine.compile`.

    ``plan`` is the optimiser-chosen f-plan — the expensive part of
    evaluation, whose cost the LP size bounds of Section 5.1 govern.
    It is *value-independent*: constant-selection values never enter
    the planning context, so one compiled plan serves every parameter
    binding of the same canonical query.  ``ftree``/``hypergraph``
    exist for explain/simulation and may be stripped (``lite()``) when
    the artifact crosses a process boundary.
    """

    query: Query  # effective (projection-resolved), unbound form
    plan: FPlan
    ftree: "FTree | None" = None
    hypergraph: "Hypergraph | None" = None
    # Optimiser provenance: strategy, estimated final-tree size, and
    # the statistics sources the estimate was computed from (None for
    # plans costed purely asymptotically).
    provenance: "dict | None" = None

    def lite(self) -> "FDBCompiled":
        """A copy without the explain-only payload (cheap to pickle)."""
        return FDBCompiled(self.query, self.plan, provenance=self.provenance)


class FDBEngine:
    """Main-memory engine for queries on factorised databases.

    Evaluation is a two-phase lifecycle: :meth:`compile` canonicalises
    the query and chooses the f-plan from the *schema-level* shape of
    the inputs (no data is touched — the optimiser only ever sees the
    f-tree), and :meth:`execute_planned` builds the input factorisation
    from the current data and replays the retained plan.
    :meth:`execute_traced` is the one-shot composition of the two.

    Parameters
    ----------
    output:
        ``"flat"`` enumerates result tuples (the paper's FDB);
        ``"factorised"`` returns a :class:`FactorisedResult` (FDB f/o).
    optimizer:
        ``"greedy"`` (Section 5.2), ``"exhaustive"`` (Section 5.1), or
        ``"cost"`` (data-driven search over ``repro.stats`` estimates,
        falling back to exhaustive when no statistics are available).
    """

    name = "FDB"

    def __init__(
        self,
        output: str = "flat",
        optimizer: str = "cost",
    ) -> None:
        if output not in ("flat", "factorised"):
            raise ValueError(f"unknown output mode {output!r}")
        if optimizer not in _OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {optimizer!r} "
                f"(expected one of {sorted(_OPTIMIZERS)})"
            )
        self.output = output
        self.optimizer_name = optimizer
        self.optimizer = _OPTIMIZERS[optimizer]()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, query: Query, database: "Database"):
        """Run ``query``; returns a Relation or FactorisedResult."""
        result, _, _ = self.execute_traced(query, database)
        return result

    def compile(self, query: Query, database: "Database") -> FDBCompiled:
        """Choose the f-plan for ``query`` without touching any data.

        The input f-tree is derived from the catalogue alone (path
        f-trees over the schemas of flat inputs, the registered tree of
        factorised views), so compilation stays valid until the
        catalogue changes shape — data mutations never stale a plan.
        """
        query, ftree, hypergraph, ctx = self.planning_inputs(query, database)
        started = time.perf_counter()
        plan = self.optimizer.plan(ftree, ctx)
        _OPTIMIZER_TIMERS[self.optimizer_name].observe(
            time.perf_counter() - started
        )
        provenance = self._provenance(plan, ftree, ctx)
        return FDBCompiled(query, plan, ftree, hypergraph, provenance)

    def _provenance(
        self, plan: FPlan, ftree: FTree, ctx: PlanContext
    ) -> dict:
        """Optimiser provenance for explain: strategy + estimated cost."""
        final = plan.simulate(ftree)[-1]
        if ctx.stats:
            estimated = estimated_tree_size(
                final, ctx.hypergraph, ctx.stats, ctx.scale
            )
            sources = {
                name: (record.source, record.rows)
                for name, record in sorted(ctx.stats.items())
            }
        else:
            estimated = ftree_cost(final, ctx.hypergraph, ctx.scale)
            sources = None
        return {
            "strategy": self.optimizer_name,
            "estimated_size": estimated,
            "stats": sources,
        }

    def planning_inputs(
        self, query: Query, database: "Database"
    ) -> tuple[Query, FTree, Hypergraph, PlanContext]:
        """The schema-level state :meth:`compile` optimises over.

        Returns ``(effective_query, ftree, hypergraph, context)``: the
        projection-normalised query, the input f-tree derived from the
        catalogue, its hypergraph, and the optimiser's
        :class:`repro.core.optimizer.PlanContext` (kept attributes,
        aggregation components, γ coupling/protection constraints).
        Exposed so the plan verifier (:mod:`repro.analysis`) can replay
        a compiled plan under exactly the constraints it was planned
        with.
        """
        query = _with_effective_projection(query, database)
        decisions, hypergraph, equalities = self._input_decisions(
            query, database
        )
        ftree = self._shape_from_decisions(decisions)
        ctx = self._plan_context(query, ftree, hypergraph, equalities)
        if self.optimizer_name == "cost":
            ctx.stats = self._planning_stats(database, decisions, equalities)
        return query, ftree, hypergraph, ctx

    def execute_planned(
        self, compiled: FDBCompiled, query: Query, database: "Database"
    ) -> tuple[Any, FPlan, ExecutionTrace]:
        """Run a compiled plan against the current data.

        ``query`` is the runtime (parameter-bound) form of
        ``compiled.query``: selections and output shaping come from it,
        while the optimisation work is skipped entirely — the retained
        ``compiled.plan`` replays against the input factorisation.
        """
        query = _with_effective_projection(query, database)
        fact = self._prepare_inputs(query, database)
        trace = ExecutionTrace()
        stats = agg.ExpressionStats()
        trace.expression_stats = stats
        trace.provenance = compiled.provenance

        # Selections first, one traversal each (Section 5.1).
        select_plan = FPlan([SelectStep(c) for c in query.comparisons])
        fact = select_plan.execute(fact, trace)
        fact = compiled.plan.execute(fact, trace)

        if query.aggregates:
            result = self._shape_aggregate_output(query, fact, stats)
        else:
            result = self._shape_spj_output(query, fact)
        return result, compiled.plan, trace

    def execute_traced(
        self, query: Query, database: "Database"
    ) -> tuple[Any, FPlan, ExecutionTrace]:
        """Run ``query``; returns ``(result, f-plan, execution trace)``.

        Stateless (one engine instance serves concurrent callers):
        compiles and immediately executes.  Callers that re-run a query
        should retain the :meth:`compile` artifact and call
        :meth:`execute_planned` instead.
        """
        return self.execute_planned(
            self.compile(query, database), query, database
        )

    def explain(self, query: Query, database: "Database") -> str:
        """Compile the query and describe the plan without executing it.

        Shows the input f-tree, each f-plan step with the size-bound
        exponent of its output (the optimisation metric of Section 5),
        and the output shaping the engine would apply.
        """
        from repro.core.cost import s_parameter

        query, ftree, hypergraph, ctx = self.planning_inputs(query, database)
        plan = self.optimizer.plan(ftree, ctx)
        provenance = self._provenance(plan, ftree, ctx)
        trees = plan.simulate(ftree)
        lines = [f"query: {query}"]
        lines.append(
            f"optimizer: {provenance['strategy']} · estimated result size "
            f"{provenance['estimated_size']:.0f} singletons"
        )
        if provenance["stats"]:
            rendered = ", ".join(
                f"{name} ({source}, {rows} rows)"
                for name, (source, rows) in provenance["stats"].items()
            )
            lines.append(f"statistics: {rendered}")
        lines.append("input f-tree:")
        lines.extend("  " + line for line in ftree.pretty().splitlines())
        for condition in query.comparisons:
            node = ops.selection_node(ftree, condition)
            lines.append(f"σ[{condition}]  (one traversal, filters {node.name})")
        for step, tree in zip(plan, trees[1:]):
            exponent = s_parameter(tree, hypergraph)
            lines.append(f"{str(step):<44} bound O(|D|^{exponent:.2f})")
        if query.aggregates:
            mode = (
                "finalise into a single aggregate attribute (f/o)"
                if self.output == "factorised"
                else "enumerate groups, combining partial aggregates on the fly"
            )
            lines.append(f"output: {mode}")
            expression_specs = [
                spec for spec in query.aggregates if spec.is_expression
            ]
            if expression_specs:
                rendered = ", ".join(str(s) for s in expression_specs)
                lines.append(
                    f"expression aggregates: {rendered} — sums of products "
                    "distribute over independent branches (Section 3.2); "
                    "co-occurring attributes flatten locally"
                )
        elif query.computed:
            rendered = ", ".join(str(c) for c in query.computed)
            lines.append(f"computed columns: {rendered} (evaluated row-wise)")
        elif query.order_by:
            lines.append(
                "output: ordered constant-delay enumeration "
                f"by ({', '.join(str(k) for k in query.order_by)})"
            )
        else:
            lines.append("output: constant-delay enumeration")
        if query.limit is not None:
            lines.append(f"limit: first {query.limit} tuples (λ)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Input preparation
    # ------------------------------------------------------------------
    def _input_decisions(
        self, query: Query, database: "Database"
    ) -> tuple[list["_InputDecision"], Hypergraph, tuple]:
        """The structural decisions shared by compile and run.

        For each input relation: the rename mapping, whether the
        registered factorisation is usable, the renamed schema, and the
        path order (join attributes near the root).  A registered view
        stays usable unless an expression selection's attributes lie on
        different branches of its f-tree; that input falls back to the
        flat path f-tree, on which every attribute set lies on one path.
        The decision reads attribute names only, never selection values,
        so compiled plans stay value-independent.  Compile
        (:meth:`planning_inputs`) and run (:meth:`_prepare_inputs`) both
        consume exactly this — one source of truth, so a plan chosen at
        compile time applies verbatim to the factorisation built at run
        time.
        """
        schemas = {name: database.schema(name) for name in query.relations}
        renames, natural = natural_equalities(schemas, query.relations)
        selections = _assign_expression_selections(query, schemas, renames)
        join_attrs = set()
        for eq in list(natural) + list(query.equalities):
            join_attrs.update((eq.left, eq.right))

        decisions: list[_InputDecision] = []
        hyperedges: dict[str, set[str]] = {}
        for name in query.relations:
            mapping = renames[name]
            registered = database.get_factorised(name)
            if registered is not None and not _on_one_path(
                registered.ftree, selections.get(name, ()), mapping
            ):
                registered = None
            schema = tuple(mapping.get(a, a) for a in schemas[name])
            order = sorted(
                schema,
                key=lambda a: (a not in join_attrs, schema.index(a)),
            )
            decisions.append(
                _InputDecision(
                    name=name,
                    mapping=mapping,
                    registered=registered,
                    schema=schema,
                    order=tuple(order),
                )
            )
            hyperedges[name] = set(schema)

        equalities = tuple(natural) + tuple(query.equalities)
        classes = _equivalence_classes(equalities)
        hypergraph = Hypergraph(hyperedges).with_equivalences(classes)
        return decisions, hypergraph, equalities

    def _prepare_inputs(
        self, query: Query, database: "Database"
    ) -> Factorisation:
        """The input factorisation: the product of every input's
        registered view (renamed) or path factorisation of its flat
        form, as :meth:`_input_decisions` decided."""
        decisions, _, _ = self._input_decisions(query, database)
        facts = []
        for decision in decisions:
            if decision.registered is not None:
                fact = decision.registered
                for old, new in decision.mapping.items():
                    fact = ops.rename(fact, old, new)
            else:
                relation = database.flat(decision.name)
                if decision.mapping:
                    relation = relation.rename(decision.mapping)
                fact = factorise_path(
                    relation,
                    key=decision.name,
                    order=list(decision.order),
                )
            facts.append(fact)

        fact = facts[0]
        for other in facts[1:]:
            fact = ops.product(fact, other)
        return fact

    @staticmethod
    def _shape_from_decisions(decisions: "list[_InputDecision]") -> FTree:
        trees: list[FTree] = []
        for decision in decisions:
            if decision.registered is not None:
                tree = decision.registered.ftree
                for old, new in decision.mapping.items():
                    tree = _rename_tree(tree, old, new)
            else:
                tree = path_ftree(
                    decision.schema, decision.name, decision.order
                )
            trees.append(tree)
        roots = tuple(root for tree in trees for root in tree.roots)
        return FTree(roots)

    def _planning_stats(
        self,
        database: "Database",
        decisions: "list[_InputDecision]",
        equalities: tuple,
    ) -> "dict | None":
        """Statistics for the cost-based optimiser, keyed per input.

        Pulls each input's record through the process-global
        :func:`repro.stats.stats_cache`, applies the natural-join
        renames so attribute names match the planning hypergraph, and
        cross-populates equivalence classes: a selection A=B bounds the
        class by the smallest distinct count either side observed, so
        relations covering the class through an equivalence-extended
        edge inherit that entry.
        """
        from repro.stats import stats_cache

        cache = stats_cache()
        stats: dict = {}
        for decision in decisions:
            record = cache.relation_stats(database, decision.name)
            if record is None:
                continue
            stats[decision.name] = record.renamed(decision.mapping)
        if not stats:
            return None
        for cls in _equivalence_classes(equalities):
            members = frozenset(cls)
            for name, record in list(stats.items()):
                held = members & set(record.attributes)
                missing = members - set(record.attributes)
                if not held or not missing:
                    continue
                best = min(
                    (record.attributes[a] for a in held),
                    key=lambda entry: entry.distinct,
                )
                stats[name] = record.extended(
                    {attribute: best for attribute in missing}
                )
        return stats

    # ------------------------------------------------------------------
    # Planning context
    # ------------------------------------------------------------------
    def _plan_context(
        self,
        query: Query,
        ftree: FTree,
        hypergraph: Hypergraph,
        equalities: tuple,
    ) -> PlanContext:
        aliases = {spec.alias for spec in query.aggregates}
        aliases.update(column.alias for column in query.computed)
        order = tuple(
            key for key in query.order_by if key.attribute not in aliases
        )
        coupled: tuple = ()
        protected: frozenset = frozenset()
        if query.aggregates:
            kept = frozenset(query.group_by)
            # The planner materialises attribute-level partials only;
            # expression components are evaluated by the output stage
            # over whatever fragments the constraints kept atomic.
            functions = agg.planner_components(query.aggregates)
            coupled, protected = agg.expression_constraints(query.aggregates)
        else:
            kept_list = (
                query.projection
                if query.projection is not None
                else tuple(query.group_by) or tuple(ftree.attribute_names())
            )
            kept = frozenset(kept_list) | {key.attribute for key in order}
            for column in query.computed:
                kept |= set(column.source_attributes)
            functions = ()
        for attribute in kept | {k.attribute for k in order}:
            if attribute not in ftree:
                raise QueryError(
                    f"query references unknown attribute {attribute!r}"
                )
        return PlanContext(
            hypergraph=hypergraph,
            equalities=equalities,
            kept=kept,
            functions=functions,
            order=order,
            coupled=coupled,
            protected=protected,
        )

    # ------------------------------------------------------------------
    # Aggregate output
    # ------------------------------------------------------------------
    def _shape_aggregate_output(
        self,
        query: Query,
        fact: Factorisation,
        stats: "agg.ExpressionStats | None" = None,
    ):
        aliases = {spec.alias for spec in query.aggregates}
        order_has_alias = any(
            key.attribute in aliases for key in query.order_by
        )
        if self.output == "factorised":
            return self._finalised_result(query, fact, stats)
        if order_has_alias:
            if len(query.aggregates) == 1:
                # The paper's route: finalise, promote the aggregate node
                # (a swap), enumerate in sorted order.
                return self._finalised_result(query, fact, stats).to_relation(
                    query.name
                )
            # Several aggregates ordered by one alias: combine on the fly
            # and sort the (small) aggregated result.
            from dataclasses import replace

            unordered = replace(query, order_by=(), limit=None)
            result = self._flat_aggregate_output(unordered, fact, stats)
            rows = sort_rows(result.rows, result.schema, query.order_by)
            if query.limit is not None:
                rows = rows[: query.limit]
            return Relation(result.schema, rows, name=query.name or "result")
        return self._flat_aggregate_output(query, fact, stats)

    def _flat_aggregate_output(
        self,
        query: Query,
        fact: Factorisation,
        stats: "agg.ExpressionStats | None" = None,
    ) -> Relation:
        """Enumerate groups, combining partial aggregates on the fly."""
        functions = expand_functions(query.aggregates)
        order = [
            key
            for key in query.order_by
            if key.attribute in query.group_by
        ]
        evaluator = agg.CachedEvaluator(stats=stats)
        having = [
            (h.target, h) for h in query.having
        ]
        schema = query.output_schema
        rows: list[tuple] = []
        if not query.group_by:
            # SQL: ungrouped aggregates over zero input rows still yield
            # one row — COUNT is 0, every other aggregate NULL (matching
            # sqlite).  The emptiness check is structural, since counting
            # over e.g. min-only partial aggregates would not compose.
            items = list(zip(fact.ftree.roots, fact.roots))
            if agg.forest_is_empty(items):
                row = agg.empty_aggregate_row(query.aggregates)
                if not having or _having_passes(having, dict(zip(schema, row))):
                    rows.append(row)
                if query.limit is not None:
                    rows = rows[: query.limit]
                return Relation(schema, rows, name=query.name or "result")
        want = query.limit if (query.limit is not None and not query.having) else None
        for assignment, components in _group_components(
            fact, query.group_by, order, functions, evaluator, stats
        ):
            values = tuple(
                _component_value(spec, functions, components)
                for spec in query.aggregates
            )
            row = tuple(assignment[g] for g in query.group_by) + values
            if having and not _having_passes(having, dict(zip(schema, row))):
                continue
            rows.append(row)
            if want is not None and len(rows) >= want:
                break
        if query.limit is not None and len(rows) > query.limit:
            rows = rows[: query.limit]
        return Relation(schema, rows, name=query.name or "result")

    def _finalised_result(
        self,
        query: Query,
        fact: Factorisation,
        stats: "agg.ExpressionStats | None" = None,
    ) -> FactorisedResult:
        """Collapse partial aggregates into a single aggregate node."""
        functions = expand_functions(query.aggregates)
        aliases = {spec.alias for spec in query.aggregates}
        group_order = _group_path_order(query)
        fact = _linearise_group(fact, group_order)
        fact, node_name = _collapse_partials(fact, group_order, functions, stats)

        # Ordering: group-attribute keys are honoured by the linearised
        # path; an alias key requires promoting the aggregate node.
        order = tuple(query.order_by)
        if any(key.attribute in aliases for key in order):
            if len(query.aggregates) > 1:
                raise QueryError(
                    "ordering by an alias of a multi-aggregate query is "
                    "not supported in factorised output"
                )
            fact = ops.rename(fact, node_name, query.aggregates[0].alias)
            node_name = query.aggregates[0].alias
            order_names = [
                key.attribute if key.attribute not in aliases else node_name
                for key in order
            ]
            keyed = [
                SortKey(name, key.descending)
                for name, key in zip(order_names, order)
            ]
            for child in restructure_for_order(fact.ftree, keyed):
                fact = ops.swap(fact, child)
            order = tuple(keyed)
        if query.having:
            fact = self._apply_having_factorised(query, fact, node_name)
        return FactorisedResult(
            fact,
            query.output_schema,
            aggregate_node=node_name,
            specs=query.aggregates,
            order=order,
            limit=query.limit,
        )

    def _apply_having_factorised(
        self, query: Query, fact: Factorisation, node_name: str
    ) -> Factorisation:
        node = fact.ftree.node(node_name)
        functions = node.aggregate.functions
        for condition in query.having:
            if condition.target in query.group_by:
                # HAVING over a grouping attribute is a plain selection.
                fact = ops.select_constant(fact, _comparison(condition))
                continue
            spec = next(
                s for s in query.aggregates if s.alias == condition.target
            )
            fact = _select_component(fact, node_name, spec, functions, condition)
        return fact

    # ------------------------------------------------------------------
    # SPJ output
    # ------------------------------------------------------------------
    def _shape_spj_output(self, query: Query, fact: Factorisation):
        computed = query.computed
        computed_aliases = {column.alias for column in computed}
        kept = (
            set(query.projection)
            if query.projection is not None
            else set(query.group_by) or None
        )
        if kept is not None:
            kept |= {
                key.attribute
                for key in query.order_by
                if key.attribute not in computed_aliases
            }
            for column in computed:
                kept |= set(column.source_attributes)
            if not kept:
                # Attribute-free output: every computed column is
                # constant, so set semantics yield at most one row.
                row = tuple(c.expression.evaluate({}) for c in computed)
                return Relation(
                    [c.alias for c in computed],
                    [] if fact.is_empty() else [row],
                    name=query.name or "result",
                )
            fact = _project_to(fact, kept)
        if self.output == "factorised":
            if any(
                key.attribute in computed_aliases for key in query.order_by
            ):
                raise QueryError(
                    "ordering by a computed column is not supported in "
                    "factorised output; use the flat fdb engine instead"
                )
            schema = (
                tuple(query.projection)
                if query.projection is not None
                else tuple(fact.schema())
            ) + tuple(column.alias for column in computed)
            return FactorisedResult(
                fact,
                schema,
                order=query.order_by,
                limit=query.limit,
                computed=computed,
            )
        alias_keys = any(
            key.attribute in computed_aliases for key in query.order_by
        )
        # Ordering by a computed alias cannot ride the factorisation:
        # enumerate unordered, compute, sort the materialised rows.
        order = () if alias_keys else normalise_order(query.order_by)
        if order and not supports_order(fact.ftree, order):
            for child in restructure_for_order(fact.ftree, order):
                fact = ops.swap(fact, child)
        raw_schema = fact.schema()
        base_schema = (
            list(query.projection)
            if query.projection is not None
            else raw_schema
        )
        out_schema = list(base_schema) + [c.alias for c in computed]
        rows = _shaped_rows(
            iter_tuples(fact, order), raw_schema, out_schema, computed
        )
        if computed:

            def deduped(rows: Iterator[tuple]) -> Iterator[tuple]:
                # π is set semantics: a non-injective expression can
                # map distinct source tuples to equal output rows.
                seen: set[tuple] = set()
                for row in rows:
                    if row not in seen:
                        seen.add(row)
                        yield row

            rows = deduped(rows)
        if alias_keys:
            rows = iter(sort_rows(list(rows), out_schema, query.order_by))
        if query.limit is not None:
            rows = islice(rows, query.limit)
        return Relation(out_schema, list(rows), name=query.name or "result")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def expand_functions(
    specs: Sequence[AggregateSpec],
) -> tuple[tuple[str, "str | None"], ...]:
    """Query aggregates as γ components, avg expanded to sum+count.

    Components are deduplicated so shared counts are computed once
    (Section 3.2.4).  Expression aggregates appear as components over
    their expression tree (``("sum", col("a") * col("b"))``); the
    evaluators of :mod:`repro.core.aggregates` distribute them over the
    factorisation.
    """
    components: list[tuple[str, str | None]] = []

    def want(component: tuple[str, str | None]) -> None:
        if component not in components:
            components.append(component)

    for spec in specs:
        if spec.function == "count":
            want(("count", None))
        elif spec.function == "avg":
            want(("sum", spec.attribute))
            want(("count", None))
        else:
            want((spec.function, spec.attribute))
    return tuple(components)


def _component_value(
    spec: AggregateSpec,
    functions: Sequence[tuple[str, str | None]],
    components: tuple,
) -> Any:
    functions = list(functions)
    if spec.function == "avg":
        total = components[functions.index(("sum", spec.attribute))]
        count = components[functions.index(("count", None))]
        if not count:
            return None  # SQL: AVG over zero rows is NULL
        return total / count
    if spec.function == "count":
        return components[functions.index(("count", None))]
    return components[functions.index((spec.function, spec.attribute))]


def _shaped_rows(
    rows: Iterator[tuple],
    raw_schema: Sequence[str],
    output_schema: Sequence[str],
    computed: Sequence = (),
    aggregate: "tuple[str, Sequence[AggregateSpec], Sequence] | None" = None,
) -> Iterator[tuple]:
    """Map enumerated rows over ``raw_schema`` onto ``output_schema``.

    Each output name is an aggregate alias, read from the component
    tuple of the ``(node, specs, functions)`` aggregate node; a computed
    column, evaluated from its source attributes; or a raw attribute,
    copied by position.  Rows already in output shape pass untouched.
    """
    position = {name: index for index, name in enumerate(raw_schema)}
    columns = {column.alias: column for column in computed}
    node_name, specs, functions = aggregate or (None, (), ())
    aliases = {spec.alias: spec for spec in specs}
    positions: list[int | None] = []
    getters: list = []
    for name in output_schema:
        if name in aliases:
            positions.append(None)
            getters.append(
                lambda row, spec=aliases[name], slot=position[node_name]: (
                    _component_value(spec, functions, row[slot])
                )
            )
        elif name in columns:
            column = columns[name]
            slots = [(a, position[a]) for a in column.source_attributes]
            positions.append(None)
            getters.append(
                lambda row, expression=column.expression, slots=slots: (
                    expression.evaluate({a: row[p] for a, p in slots})
                )
            )
        else:
            positions.append(position[name])
            getters.append(itemgetter(position[name]))
    if positions == list(range(len(raw_schema))):
        return rows
    if len(positions) > 1 and None not in positions:
        return map(itemgetter(*positions), rows)
    return (tuple(get(row) for get in getters) for row in rows)


def _target_attributes(target) -> tuple[str, ...]:
    """Attribute names of a γ component target (None/str/Expr)."""
    from repro.query import target_attributes

    return target_attributes(target)


def _having_passes(having, lookup: dict) -> bool:
    """HAVING with SQL NULL semantics: a None value satisfies nothing."""
    for target, condition in having:
        value = lookup[target]
        if value is None or not condition.test(value):
            return False
    return True


def _assign_expression_selections(
    query: Query,
    schemas: dict[str, Sequence[str]],
    renames: dict[str, dict[str, str]],
) -> dict[str, list]:
    """Map each expression selection to the one input relation owning
    all its attributes (post-rename names).

    The FDB engine filters that input's factorisation in one traversal,
    so a condition whose attributes span inputs has no single carrier
    and is rejected.
    """
    conditions = [c for c in query.comparisons if c.is_expression]
    if not conditions:
        return {}
    post_rename = {
        name: {renames[name].get(a, a) for a in schemas[name]}
        for name in query.relations
    }
    assigned: dict[str, list] = {}
    for condition in conditions:
        attrs = set(condition.attributes)
        owners = [
            name for name in query.relations if attrs <= post_rename[name]
        ]
        if not owners:
            raise QueryError(
                f"expression selection {condition} references attributes "
                "of more than one input relation (or unknown attributes); "
                "the FDB engine evaluates an expression selection on one "
                "input relation"
            )
        assigned.setdefault(owners[0], []).append(condition)
    return assigned


def _on_one_path(
    ftree: FTree, conditions: Iterable, mapping: dict[str, str]
) -> bool:
    """Whether each condition's attributes (post-rename names, mapped
    back through ``mapping``) lie on one root-to-leaf path of ``ftree``."""
    original = {new: old for old, new in mapping.items()}
    return all(
        not condition.attributes
        or ftree.path_node(original.get(a, a) for a in condition.attributes)
        is not None
        for condition in conditions
    )


def _comparison(condition) -> "Comparison":
    from repro.query import Comparison

    return Comparison(condition.target, condition.op, condition.value)


def _rename_tree(tree: FTree, old: str, new: str) -> FTree:
    """Tree-level attribute rename (via a zero-fragment factorisation)."""
    return ops.rename(empty_factorisation(tree), old, new).ftree


def _select_component(
    fact: Factorisation,
    node_name: str,
    spec: AggregateSpec,
    functions: Sequence[tuple[str, str | None]],
    condition,
) -> Factorisation:
    """HAVING on an aggregate alias: filter the final node's entries."""
    functions = list(functions)
    if spec.function == "avg":
        sum_index = functions.index(("sum", spec.attribute))
        count_index = functions.index(("count", None))

        def extract(value: tuple) -> Any:
            if not value[count_index]:
                return None  # AVG over zero rows is NULL
            return value[sum_index] / value[count_index]

    else:
        index = functions.index(
            ("count", None)
            if spec.function == "count"
            else (spec.function, spec.attribute)
        )

        def extract(value: tuple) -> Any:
            return value[index]

    root_index, steps = fact.ftree.path_to(node_name)

    def transform(_: FNode, union: CUnion) -> CUnion:
        # SQL NULL semantics: a None aggregate satisfies no condition.
        keep = [
            i
            for i, components in enumerate(union.values)
            if (value := extract(components)) is not None and condition.test(value)
        ]
        return CUnion(
            [union.values[i] for i in keep],
            tuple([col[i] for i in keep] for col in union.children),
        )

    return map_cunion_at(fact, root_index, steps, transform, fact.ftree)


def _with_effective_projection(query: Query, database: "Database") -> Query:
    """Natural-join output schema for star queries over several inputs.

    Without an explicit projection, a multi-relation query outputs every
    attribute once under its first-occurrence name (natural-join
    semantics); the renamed duplicates are projected away.
    """
    from dataclasses import replace

    if query.projection is not None or query.aggregates or len(query.relations) == 1:
        return query
    seen: list[str] = []
    for name in query.relations:
        for attribute in database.schema(name):
            if attribute not in seen:
                seen.append(attribute)
    return replace(query, projection=tuple(seen))


def _group_value_fragments(
    attributes: Iterable[str], assignment: dict[str, Any]
) -> list:
    """One-entry fragments exposing fixed group values to the evaluators."""
    return [
        (FNode((attr,)), CUnion([assignment[attr]], ()))
        for attr in sorted(attributes)
    ]


def _equivalence_classes(equalities) -> list[set[str]]:
    """Union-find over equality selections."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eq in equalities:
        ra, rb = find(eq.left), find(eq.right)
        if ra != rb:
            parent[ra] = rb
    classes: dict[str, set[str]] = {}
    for attr in parent:
        classes.setdefault(find(attr), set()).add(attr)
    return [cls for cls in classes.values() if len(cls) > 1]


def _group_path_order(query: Query) -> list[str]:
    """Order of group attributes along the linearised result path.

    Order-by attributes (that are group attributes) come first, in
    order-by order; the rest follow in group-by order.
    """
    ordered = [
        key.attribute
        for key in query.order_by
        if key.attribute in query.group_by
    ]
    for attribute in query.group_by:
        if attribute not in ordered:
            ordered.append(attribute)
    return ordered


def _linearise_group(fact: Factorisation, group_order: list[str]) -> Factorisation:
    """Make the group-by region a single path in the given order.

    For each attribute in turn: swap it upward until its parent is its
    path predecessor.  When the ascent is blocked — the attribute sits
    in a sibling branch of the path, or in a different tree of the
    forest — the independent fragment is *nested* below the path
    instead (sharing, not copying, the fragment), which is exactly the
    cross-product structure the result relation requires.
    """
    for index, name in enumerate(group_order):
        path_rank = {g: r for r, g in enumerate(group_order[:index])}
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise QueryError("group linearisation did not converge")
            node = fact.ftree.node(name)
            parent = fact.ftree.parent(node)
            if index == 0:
                if parent is None:
                    break
                fact = ops.swap(fact, name)
                continue
            predecessor = group_order[index - 1]
            if parent is not None and predecessor in set(parent.all_names):
                break
            if parent is None:
                # Root of another tree: hang it below the predecessor.
                fact = ops.nest_root_under(fact, name, predecessor)
                break
            parent_path = [
                g for g in parent.all_names if g in path_rank
            ]
            if parent_path:
                # Sibling branch of the path: hop below the next path
                # attribute instead of swapping above an earlier one.
                rank = path_rank[parent_path[0]]
                fact = ops.nest_under(fact, name, group_order[rank + 1])
                continue
            fact = ops.swap(fact, name)
    return fact


def _collapse_partials(
    fact: Factorisation,
    group_order: list[str],
    functions: Sequence[tuple[str, str | None]],
    stats: "agg.ExpressionStats | None" = None,
) -> tuple[Factorisation, str]:
    """Replace leftover fragments with one final aggregate node.

    The group region is the linearised path from one root; every
    non-drained group context becomes one path of entries ending in a
    single aggregate value, folded from the context's leftover
    fragments by the cached evaluators.  Contexts arrive in path order,
    so each path union is built by appending.
    """
    tree = fact.ftree
    group_set = set(group_order)
    evaluator = agg.CachedEvaluator(stats=stats)
    name = fresh_aggregate_name("final")
    over: set[str] = set()
    for node in tree.nodes():
        if node.aggregate is not None:
            over |= set(node.aggregate.over)
        else:
            over |= {a for a in node.attributes if a not in group_set}
    functions = tuple(functions)
    fresh_key = f"__dep_final_{name}"
    shape = FNode(
        AggregateAttribute(functions, frozenset(over), name), (), {fresh_key}
    )
    if not group_order:
        items = list(zip(tree.roots, fact.roots))
        if agg.forest_is_empty(items):
            # Ungrouped aggregates over zero rows: NULL components
            # (counts stay 0) per SQL semantics.
            value = agg.empty_aggregate_components(functions)
        else:
            value = evaluator.components(functions, items)
        return Factorisation(FTree([shape]), [CUnion([value], ())]), name

    path = [
        node for node in tree.nodes() if not group_set.isdisjoint(node.all_names)
    ]
    if any(tree.parent(node) is not up for node, up in zip(path, [None, *path])):
        raise QueryError("group region is not linearised")
    keys = [next(n for n in node.all_names if n in group_set) for node in path]
    # unions[d] holds the values and child column of the open union at
    # depth d of the path.
    unions: list[tuple[list, list]] = [([], []) for _ in path]

    def close(depth: int) -> None:
        """Hang the open unions below ``depth`` into their parents."""
        for d in range(len(path) - 1, depth, -1):
            values, column = unions[d]
            unions[d - 1][1].append(CUnion(values, (column,)))
            unions[d] = ([], [])

    previous: list = []
    for assignment, components in _group_components(
        fact, group_order, (), functions, evaluator, stats
    ):
        values = [assignment[key] for key in keys]
        depth = 0
        if previous:
            while values[depth] == previous[depth]:
                depth += 1
            close(depth)
        for d in range(depth, len(path)):
            unions[d][0].append(values[d])
        unions[-1][1].append(CUnion([components], ()))
        previous = values
    if previous:
        close(0)
    for node in reversed(path):
        shape = FNode(
            node.attributes if node.aggregate is None else node.aggregate,
            (shape,),
            node.keys | {fresh_key},
        )
    root_values, root_column = unions[0]
    return (
        Factorisation(FTree([shape]), [CUnion(root_values, (root_column,))]),
        name,
    )


def _group_components(
    fact: Factorisation,
    group: Sequence[str],
    order: Sequence[SortKey],
    functions: Sequence,
    evaluator: "agg.CachedEvaluator",
    stats: "agg.ExpressionStats | None",
) -> Iterator[tuple[dict[str, Any], tuple]]:
    """Aggregate components per group context (Example 1, case 3).

    Drained contexts — no tuples below the assignment — are skipped.
    """
    group_sources = {
        attr
        for _, target in functions
        for attr in _target_attributes(target)
        if attr in group
    }
    for assignment, leftovers in iter_group_contexts(fact, group, order):
        if agg.forest_is_empty(leftovers):
            continue
        if group_sources:
            # An aggregate over a grouping attribute (e.g. SUM(g) ...
            # GROUP BY g): the group's fixed value joins the forest as a
            # one-entry fragment.  These fragments are fresh per
            # context, so bypass the cache for them.
            items = leftovers + _group_value_fragments(group_sources, assignment)
            yield assignment, agg.evaluate_components(functions, items, stats)
        else:
            yield assignment, evaluator.components(functions, leftovers)


def _project_to(fact: Factorisation, kept: set[str]) -> Factorisation:
    """Remove every attribute outside ``kept`` (projection, set semantics).

    Unneeded leaves are removed directly.  An unneeded *internal* node is
    sunk by promoting one of its children; picking the deepest unneeded
    node guarantees its children are all needed, so its depth strictly
    grows until it becomes a removable leaf (termination).
    """
    guard = 0
    while True:
        guard += 1
        if guard > 100_000:
            raise QueryError("projection did not converge")
        deepest: FNode | None = None
        deepest_depth = -1
        acted = False
        for node in fact.ftree.nodes():
            if node.is_aggregate:
                continue
            extra = [a for a in node.attributes if a not in kept]
            if not extra:
                continue
            if len(node.attributes) > len(extra):
                # Mixed class: drop the unneeded names only (free).
                for attribute in extra:
                    fact = ops.remove_class_attribute(fact, attribute)
                acted = True
                break
            if not node.children:
                fact = ops.remove_leaf(fact, node.name)
                acted = True
                break
            depth = fact.ftree.depth(node)
            if depth > deepest_depth:
                deepest, deepest_depth = node, depth
        if acted:
            continue
        if deepest is None:
            return fact
        fact = ops.swap(fact, deepest.children[0].name)
