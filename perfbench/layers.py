"""Outside-in per-layer tracing: timed wrappers around each layer's calls.

The tracer patches the public functions of each ``repro`` layer from
here, so the program under test is unchanged.  Every wrapper keeps a
stack of child time, which gives each layer its *self* time: its wall
time minus the time of wrapped calls made inside it.  The self times of
all layers therefore add up to the wall time of the outermost wrapped
calls (reads and writes), and the residual layers (``plan.run``,
``core.execute``, ``ivm.write``, ``shard.engine``) hold whatever no
finer wrapper labels.

Lazy enumerators are timed per ``next`` call, not at creation, and
names bound by import (``repro.core.engine`` imports ``iter_tuples``,
``iter_group_contexts`` and ``factorise_path`` by name) are patched in
the module that resolves them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Step class name -> layer name of its ``apply``.
STEP_LAYERS = {
    "SwapStep": "core.step.swap",
    "MergeStep": "core.step.merge",
    "AbsorbStep": "core.step.absorb",
    "SelectStep": "core.step.select",
    "AggregateStep": "core.step.aggregate",
    "RemoveLeafStep": "core.step.remove_leaf",
    "RenameStep": "core.step.rename",
}


class Tracer:
    """Accumulates per-layer self time and call counts while installed."""

    def __init__(self) -> None:
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: Counter = Counter()
        self.root_s: "defaultdict[str, float]" = defaultdict(float)
        self.enabled = True
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _timed_call(self, layer: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.self_s[layer] += elapsed - stack.pop()
            self.calls[layer] += 1
            if stack:
                stack[-1] += elapsed
            else:
                self.root_s[layer] += elapsed

    def wrap(self, layer: str, fn):
        def timed(*args, **kwargs):
            return self._timed_call(layer, fn, args, kwargs)

        timed.__wrapped__ = fn
        return timed

    def wrap_iterator(self, layer: str, fn):
        """Time the call and then every ``next`` of the returned iterator."""

        def timed(*args, **kwargs):
            iterator = self._timed_call(layer, fn, args, kwargs)
            return _TimedIterator(self, layer, iter(iterator))

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def paused(self):
        """Leave the benchmark's own work (oracle, checks) unrecorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "root_s": dict(self.root_s),
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        had = attribute in vars(owner)
        self._patches.append((owner, attribute, had, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every measured layer; :meth:`uninstall` restores them."""
        from repro.api.result import Result
        from repro.api.session import Session
        from repro.core import engine as core_engine
        from repro.core import fplan
        from repro.core.engine import FDBEngine
        from repro.core.frep import ColumnarFactorisation, Factorisation
        from repro.database import Database
        from repro.plan.prepared import PreparedQuery
        from repro.shard.engine import ShardedFDBBackend
        from repro.stats import cache as stats_cache_module

        wrap = self.wrap
        self.patch(PreparedQuery, "run", wrap("plan.run", PreparedQuery.run))
        self.patch(FDBEngine, "compile", wrap("plan.compile", FDBEngine.compile))
        self.patch(
            FDBEngine,
            "execute_planned",
            wrap("core.execute", FDBEngine.execute_planned),
        )
        self.patch(
            ShardedFDBBackend,
            "run_planned",
            wrap("shard.engine", ShardedFDBBackend.run_planned),
        )
        self.patch(
            core_engine,
            "factorise_path",
            wrap("core.build", core_engine.factorise_path),
        )
        self.patch(
            core_engine,
            "iter_tuples",
            self.wrap_iterator("core.enumerate", core_engine.iter_tuples),
        )
        self.patch(
            core_engine,
            "iter_group_contexts",
            self.wrap_iterator(
                "core.group_enum", core_engine.iter_group_contexts
            ),
        )
        self.patch(
            Factorisation, "to_columnar", self._to_columnar(Factorisation.to_columnar)
        )
        self.patch(fplan.FPlan, "execute", wrap("core.fplan", fplan.FPlan.execute))
        for class_name, layer in STEP_LAYERS.items():
            step = getattr(fplan, class_name)
            self.patch(step, "apply", wrap(layer, step.apply))
        for cls in (Factorisation, ColumnarFactorisation):
            self.patch(cls, "size_info", wrap("core.size_info", cls.size_info))
        for name in ("stats_from_factorisation", "stats_from_flat", "stats_from_metrics"):
            self.patch(
                stats_cache_module,
                name,
                wrap("stats.collect", getattr(stats_cache_module, name)),
            )
        self.patch(Database, "apply", wrap("ivm.apply", Database.apply))
        self.patch(Session, "insert", wrap("ivm.write", Session.insert))
        self.patch(Session, "delete", wrap("ivm.write", Session.delete))
        self.patch(
            Result, "rows", property(wrap("api.materialise", Result.rows.fget))
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, had, original = self._patches.pop()
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _to_columnar(self, fn):
        """Time layout conversions; count only those that build a twin
        (a registered view with its twin already cached returns it)."""

        def timed(fact):
            if self.enabled and fact._twin is None:
                self.calls["core.to_columnar.conversions"] += 1
            return self._timed_call("core.to_columnar", fn, (fact,), {})

        timed.__wrapped__ = fn
        return timed


class _TimedIterator:
    """An iterator proxy charging each ``next`` to one layer."""

    __slots__ = ("_tracer", "_layer", "_iterator")

    def __init__(self, tracer: Tracer, layer: str, iterator) -> None:
        self._tracer = tracer
        self._layer = layer
        self._iterator = iterator

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._tracer._timed_call(self._layer, next, (self._iterator,), {})
