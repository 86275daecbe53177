"""Golden snippets: each concurrency-discipline rule fires exactly once."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_paths, lint_source, suppressed_rules


def lint(snippet: str, filename: str = "src/repro/sample.py"):
    return lint_source(textwrap.dedent(snippet), filename)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Lock discipline
# ---------------------------------------------------------------------------
class TestLockDiscipline:
    def test_unguarded_write_to_guarded_container(self):
        findings = lint(
            """
            import threading

            class Database:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.relations: dict = {}

                def add(self, name, relation):
                    self.relations[name] = relation
            """
        )
        assert rules_of(findings) == ["lock-discipline"]
        assert "relations" in findings[0].message

    def test_guarded_write_is_clean(self):
        findings = lint(
            """
            import threading

            class Database:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.relations: dict = {}

                def add(self, name, relation):
                    with self._lock:
                        self.relations[name] = relation
            """
        )
        assert findings == []

    def test_private_helper_called_under_lock_is_clean(self):
        # _apply writes without taking the lock itself, but its only
        # caller holds it — the greatest-fixpoint analysis clears it.
        findings = lint(
            """
            import threading

            class Database:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.relations: dict = {}

                def add(self, name, relation):
                    with self._lock:
                        self._apply(name, relation)

                def _apply(self, name, relation):
                    self.relations[name] = relation
            """
        )
        assert findings == []

    def test_helper_with_one_unguarded_caller_is_flagged(self):
        findings = lint(
            """
            import threading

            class Database:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.relations: dict = {}

                def add(self, name, relation):
                    with self._lock:
                        self._apply(name, relation)

                def add_fast(self, name, relation):
                    self._apply(name, relation)

                def _apply(self, name, relation):
                    self.relations[name] = relation
            """
        )
        assert rules_of(findings) == ["lock-discipline"]

    def test_init_writes_are_exempt(self):
        findings = lint(
            """
            import threading

            class Database:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.relations = {}
                    self.relations["seed"] = 1
            """
        )
        assert findings == []

    def test_class_without_lock_is_ignored(self):
        findings = lint(
            """
            class Bag:
                def __init__(self):
                    self.items = {}

                def add(self, key, value):
                    self.items[key] = value
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Copy-on-write discipline
# ---------------------------------------------------------------------------
class TestCowDiscipline:
    def test_mutating_catalogue_relation(self):
        findings = lint(
            """
            def grow(database, rows):
                relation = database.relations["R"]
                relation.rows.extend(rows)
            """
        )
        assert rules_of(findings) == ["cow-mutation"]

    def test_mutating_flat_result(self):
        findings = lint(
            """
            def truncate(database):
                relation = database.flat("R")
                relation.rows = []
            """
        )
        assert rules_of(findings) == ["cow-mutation"]

    def test_fresh_copy_is_clean(self):
        findings = lint(
            """
            from repro.relational.relation import Relation

            def grow(database, rows):
                base = database.flat("R")
                fresh = Relation(base.schema, list(base.rows))
                fresh.rows.extend(rows)
                return fresh
            """
        )
        assert findings == []

    def test_frozen_dataclass_mutation(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class State:
                version: int

                def bump(self):
                    object.__setattr__(self, "version", self.version + 1)
            """
        )
        assert rules_of(findings) == ["frozen-mutation"]


# ---------------------------------------------------------------------------
# Async discipline (server/ files only)
# ---------------------------------------------------------------------------
class TestAsyncBlocking:
    SNIPPET = """
    import time

    async def handler(request):
        time.sleep(1)
        return b"ok"
    """

    def test_blocking_call_in_server_coroutine(self):
        findings = lint(self.SNIPPET, filename="src/repro/server/http.py")
        assert rules_of(findings) == ["async-blocking"]

    def test_rule_is_scoped_to_server_files(self):
        assert lint(self.SNIPPET, filename="src/repro/core/engine.py") == []


# ---------------------------------------------------------------------------
# Observability allocation under locks
# ---------------------------------------------------------------------------
class TestObsAllocation:
    def test_labels_inside_lock_flags(self):
        findings = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def lookup(self, key, events):
                    with self._lock:
                        events.labels("plan", "hit").inc()
            """
        )
        assert rules_of(findings) == ["obs-allocation"]
        assert ".labels(...)" in findings[0].message

    def test_family_construction_inside_lock_flags(self):
        findings = lint(
            """
            import threading
            from repro.obs.metrics import metrics

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def apply(self):
                    with self._lock:
                        metrics().counter("repro_x_total").inc()
            """
        )
        assert rules_of(findings) == ["obs-allocation", "obs-allocation"]

    def test_span_inside_lock_flags(self):
        findings = lint(
            """
            import threading
            from repro.obs import spans

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def run(self):
                    with self._lock:
                        with spans.span("engine.run"):
                            pass
            """
        )
        assert rules_of(findings) == ["obs-allocation"]

    def test_prebound_child_inside_lock_is_clean(self):
        findings = lint(
            """
            import threading

            _HITS = None  # pre-bound at import in real code

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def lookup(self, key):
                    with self._lock:
                        _HITS.inc()
            """
        )
        assert findings == []

    def test_allocation_outside_lock_is_clean(self):
        findings = lint(
            """
            import threading
            from repro.obs import spans

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def run(self, events):
                    child = events.labels("fdb")
                    with spans.span("engine.run"):
                        with self._lock:
                            child.inc()
            """
        )
        assert findings == []

    def test_nested_def_under_lock_is_clean(self):
        # The closure body runs later, when the lock is released.
        findings = lint(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()

                def deferred(self, events):
                    with self._lock:
                        def emit():
                            events.labels("a").inc()
                        return emit
            """
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Kernel scalar loops (columnar batch discipline)
# ---------------------------------------------------------------------------
class TestKernelScalarLoop:
    KERNEL = "src/repro/core/operators.py"

    def test_for_over_union_values_attribute(self):
        findings = lint(
            """
            def swap_c(union):
                for value in union.values:
                    process(value)
            """,
            self.KERNEL,
        )
        assert rules_of(findings) == ["kernel-scalar-loop"]

    def test_enumerate_over_values_local(self):
        findings = lint(
            """
            def gamma_c(union):
                values = union.values
                for i, value in enumerate(values):
                    process(i, value)
            """,
            self.KERNEL,
        )
        assert rules_of(findings) == ["kernel-scalar-loop"]

    def test_index_loop_over_contexts_is_batch_idiom(self):
        findings = lint(
            """
            def merge_c(union):
                values = union.values
                for i in range(len(values)):
                    merge(union.children[0][i], union.children[1][i])
            """,
            self.KERNEL,
        )
        assert findings == []

    def test_dict_values_call_is_not_a_union(self):
        findings = lint(
            """
            def flush(table):
                for bucket in table.values():
                    bucket.clear()
            """,
            self.KERNEL,
        )
        assert findings == []

    def test_comprehension_over_column_is_sanctioned(self):
        findings = lint(
            """
            def fold_c(union):
                return [score(v) for v in union.values]
            """,
            self.KERNEL,
        )
        assert findings == []

    def test_rule_scoped_to_kernel_modules(self):
        snippet = """
            def iter_entries(union):
                for value in union.values:
                    yield value
            """
        assert lint(snippet, "src/repro/core/frep.py") == []
        assert lint(snippet, "src/repro/ivm/kernels.py") == []

    def test_allow_comment_escapes(self):
        findings = lint(
            """
            def scan_c(union):
                for value in union.values:  # repro: allow[kernel-scalar-loop]
                    if live(value):
                        return False
            """,
            self.KERNEL,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Suppressions and report plumbing
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression(self):
        findings = lint(
            """
            def grow(database, rows):
                relation = database.relations["R"]
                relation.rows.extend(rows)  # repro: allow[cow-mutation]
            """
        )
        assert findings == []

    def test_standalone_comment_covers_next_code_line(self):
        findings = lint(
            """
            def grow(database, rows):
                relation = database.relations["R"]
                # repro: allow[cow-mutation] -- the store owns this
                # relation outright; nothing else can observe the rows.
                relation.rows.extend(rows)
            """
        )
        assert findings == []

    def test_wildcard_suppression(self):
        findings = lint(
            """
            def grow(database, rows):
                relation = database.relations["R"]
                relation.rows.extend(rows)  # repro: allow[*]
            """
        )
        assert findings == []

    def test_unrelated_rule_does_not_suppress(self):
        findings = lint(
            """
            def grow(database, rows):
                relation = database.relations["R"]
                relation.rows.extend(rows)  # repro: allow[lock-discipline]
            """
        )
        assert rules_of(findings) == ["cow-mutation"]

    def test_suppressed_rules_parser(self):
        table = suppressed_rules(
            "x = 1  # repro: allow[a, b]\n# repro: allow[c]\ny = 2\n"
        )
        assert table[1] == {"a", "b"}
        assert table[3] == {"c"}

    def test_parse_error_finding(self):
        findings = lint_source("def broken(:\n", "src/repro/bad.py")
        assert rules_of(findings) == ["parse-error"]


def test_repository_source_is_clean():
    """The linter's own verdict on src/repro: no findings at all."""
    import repro

    package = __import__("pathlib").Path(repro.__file__).parent
    assert lint_paths([package]) == []
