"""The repository's benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload agg --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the library's
shipped defaults, scaled to a reference host speed by a reference
kernel sampled through the run.  ``--trace 1`` gives the per-layer
metrics, unscaled: half the time runs untraced, half with the timed
wrappers of ``layers.py`` installed, then come a traced set-up and the
reference engines (``sqlite``, ``rdb``) on the same reads.  Every read is checked against the ``rdb``
oracle of ``oracle.py`` outside the timed region.  Human-readable lines
come first; the last line of standard output is the JSON result.
See ``perfbench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per untraced run; setup_s is their median
REF_SAMPLES = 3  # runs per query on each reference engine
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
KERNEL_EVERY = 0.25  # seconds between samples of the reference kernel
KERNEL_ROWS = 4000  # size of the reference kernel
REFERENCE_S = 0.004  # the kernel's time on the reference host
WRITE_TAIL = 75.0  # ivm-mixed makes 60-100 writes in 15 s


def _load_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples: list, percentile: float) -> "tuple[float, int]":
    """The nearest-rank ``percentile`` and how many samples lie beyond it."""
    ordered = sorted(samples)
    if percentile == 50.0:
        return statistics.median(ordered), len(ordered) // 2
    rank = math.ceil(len(ordered) * percentile / 100.0)
    return ordered[rank - 1], len(ordered) - rank


def reference_kernel() -> float:
    """Seconds a fixed pure-Python task takes on this host right now.

    The host is shared, and its speed drifts by up to 2x over minutes.
    Sampled through the run, this task tracks that drift, and the
    end-to-end timings are scaled by it to a host on which it takes
    ``REFERENCE_S``.  It calls no ``repro`` code, and the collector is
    off while it runs, so the program's heap does not change its time.
    """
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        pairs = []
        for i in range(KERNEL_ROWS):
            key = (i % 97, "k%d" % (i % 13))
            table[key] = table.get(key, 0) + i
            pairs.append((key, -i))
        pairs.sort()
        return perf_counter() - start
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Run:
    """Operations of one measured phase, with their latencies."""

    def __init__(self) -> None:
        self.read_s: "defaultdict[str, list]" = defaultdict(list)
        self.write_s: list = []
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.hits = 0
        self.shard: "defaultdict[str, list]" = defaultdict(list)
        # (ops per second, rows per second of read time) of each round
        # of the stream that ran whole inside this phase.
        self.round_rates: list = []

    @property
    def reads(self) -> int:
        return sum(len(v) for v in self.read_s.values())

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.read_s.values()) + sum(self.write_s)

    def ops_per_s(self) -> float:
        """Median over rounds: one slow operation moves one round only."""
        if not self.round_rates:
            return (self.reads + len(self.write_s)) / self.busy_s
        return statistics.median(ops for ops, _ in self.round_rates)

    def rows_per_s(self) -> float:
        if not self.round_rates:
            return self.rows / sum(sum(v) for v in self.read_s.values())
        return statistics.median(rows for _, rows in self.round_rates)


class Client:
    """One client issuing the workload's stream against a deployment,
    checking every read against the oracle outside the timed region."""

    def __init__(self, spec, deployment, oracle, stream) -> None:
        self.spec = spec
        self.deployment = deployment
        self.oracle = oracle
        self.stream = stream
        self.live: frozenset = frozenset()
        self._verified: dict = {}
        self._pending: list = []
        self.quiet = nullcontext  # the tracer's pause while it is installed
        self.kernel_s: list = []  # reference kernel samples of every phase

    def check(self, name: str, result) -> bool:
        from oracle import matches

        key = (self.live, name)
        rows = result.rows
        if self._verified.get(key) == rows:
            return True
        query = self.spec.queries[name]
        expected = self.oracle.expected(self.live, name, query)
        if matches(query, tuple(result.schema), rows, expected):
            self._verified[key] = rows
            return True
        return False

    def run(self, seconds: float, traced: bool = False) -> Run:
        run = Run()
        session = self.deployment.session
        prepared = self.deployment.prepared
        whole = not self._pending  # the current round starts in this phase
        tally = [0, 0.0, 0.0, 0]  # round's ops, busy s, read s, rows
        gc.collect()
        deadline = perf_counter() + seconds
        next_kernel = 0.0
        while perf_counter() < deadline:
            # Free the previous answer here, or its deallocation (33k
            # rows for Q10) would land in the next operation's timing.
            result = rows = None
            if perf_counter() >= next_kernel:
                self.kernel_s.append(reference_kernel())
                next_kernel = perf_counter() + KERNEL_EVERY
            if not self._pending:
                _close_round(run, whole, tally)
                self._pending = list(next(self.stream))
                whole, tally = True, [0, 0.0, 0.0, 0]
            kind, arg = self._pending.pop(0)
            run.attempted += 1
            try:
                if kind == "read":
                    started = perf_counter()
                    result = prepared[arg].run()
                    rows = result.rows
                    elapsed = perf_counter() - started
                elif kind == "insert":
                    started = perf_counter()
                    session.insert("Orders", [arg])
                    elapsed = perf_counter() - started
                else:
                    started = perf_counter()
                    session.delete("Orders", rows=[arg])
                    elapsed = perf_counter() - started
            except Exception as error:  # a failed operation is counted
                print(f"failed {kind} {arg}: {error!r}", file=sys.stderr)
                run.failed += 1
                continue
            if kind == "read":
                with self.quiet():
                    correct = self.check(arg, result)
                if not correct:
                    print(f"wrong result: {arg}", file=sys.stderr)
                    run.failed += 1
                    continue
                run.read_s[arg].append(elapsed)
                run.rows += len(rows)
                tally[2] += elapsed
                tally[3] += len(rows)
                lifecycle = result.lifecycle
                if lifecycle is not None and lifecycle.result_cache == "hit":
                    run.hits += 1
                if traced:
                    _record_shard_spans(run, result)
            else:
                with self.quiet():
                    if kind == "insert":
                        self.oracle.insert("Orders", arg)
                        self.live = self.live | {arg}
                    else:
                        self.oracle.delete("Orders", arg)
                        self.live = self.live - {arg}
                run.write_s.append(elapsed)
            tally[0] += 1
            tally[1] += elapsed
        if not self._pending:
            _close_round(run, whole, tally)
        return run


def _close_round(run: Run, whole: bool, tally: list) -> None:
    ops, busy, read, rows = tally
    if whole and ops and read:
        run.round_rates.append((ops / busy, rows / read))


def _record_shard_spans(run: Run, result) -> None:
    """Slowest shard, imbalance, merge and dispatch of one sharded read."""
    root = result.span
    if root is None:
        return
    engine = next((c for c in root.children if c.name == "engine.run"), None)
    if engine is None:
        return
    shards = [c.duration for c in engine.children if c.name == "shard.run"]
    if not shards:
        return
    merge = sum(c.duration for c in engine.children if c.name == "merge")
    slowest = max(shards)
    run.shard["run"].append(slowest)
    run.shard["merge"].append(merge)
    run.shard["dispatch"].append(engine.duration - slowest - merge)
    mean = sum(shards) / len(shards)
    if mean > 0:
        run.shard["imbalance"].append(slowest / mean)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(spec, run: Run, setups: list, peak_rss_mb: float,
               kernel_s: list) -> "tuple[dict, list]":
    medians = {q: statistics.median(s) for q, s in run.read_s.items()}
    tails = {q: tail(s, spec.tail(q)) for q, s in run.read_s.items()}
    measured = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run.ops_per_s(), "1/s"),
        "read_p50_ms": (1000.0 * geomean(medians.values()), "ms"),
        "read_tail_ms": (1000.0 * geomean(v for v, _ in tails.values()), "ms"),
        "rows_per_s": (run.rows_per_s(), "1/s"),
    }
    kernel = statistics.median(kernel_s)
    slowness = kernel / REFERENCE_S  # > 1 on a host slower than the reference
    metrics = {
        name: (value * slowness if unit == "1/s" else value / slowness, unit)
        for name, (value, unit) in measured.items()
    }
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    lines = [
        f"reference kernel: median {1000 * kernel:.3f} ms of {len(kernel_s)} "
        f"samples, {slowness:.3f}x the reference host; as measured: "
        + ", ".join(f"{k} {v:.4f}" for k, (v, _) in measured.items()),
        f"setup_s runs: {', '.join(f'{s:.3f}' for s in setups)}",
        f"reads {run.reads}, writes {len(run.write_s)}, "
        f"{len(run.round_rates)} whole rounds",
    ]
    if run.write_s:
        value, beyond = tail(run.write_s, WRITE_TAIL)
        lines.append(
            f"write_p50_ms {1000.0 * statistics.median(run.write_s):.4f} ms, "
            f"write_tail_ms {1000.0 * value:.4f} ms "
            f"(p{WRITE_TAIL:g}, {beyond} of {len(run.write_s)} beyond)"
        )
    lines.append("query            n   p50_ms   tail_ms  tail   beyond")
    for q in run.read_s:
        value, beyond = tails[q]
        short = "  (fewer than 10)" if beyond < TAIL_BEYOND else ""
        lines.append(
            f"{q:<14}{len(run.read_s[q]):>5}{1000 * medians[q]:>9.3f}"
            f"{1000 * value:>10.3f}  p{spec.tail(q):g}{beyond:>8}{short}"
        )
    return metrics, lines


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (the shard workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_layer(untraced: Run, traced: Run, during: dict, setup: dict,
              deployment, maintenance: tuple, refs: dict) -> "tuple[dict, list]":
    """Per-layer metrics from the traced phase (``during``, a tracer
    delta) and the traced set-up (``setup``)."""
    self_s = during["self_s"]
    calls = during["calls"]
    reads = max(traced.reads, 1)
    writes = len(traced.write_s)

    def per_read(layer: str) -> float:
        return 1000.0 * self_s.get(layer, 0.0) / reads

    def per_write(layer: str) -> float:
        return 1000.0 * self_s.get(layer, 0.0) / writes if writes else 0.0

    both = {k: during["self_s"].get(k, 0.0) + setup["self_s"].get(k, 0.0)
            for k in ("plan.compile", "stats.collect")}
    both_calls = {k: during["calls"].get(k, 0) + setup["calls"].get(k, 0)
                  for k in ("plan.compile", "stats.collect")}
    peak, output, qerror = 0, 0, 0.0
    for result in deployment.warm.values():
        output += len(result.rows)
        trace = result.trace
        if trace is None or not trace.sizes:
            continue
        peak += max(trace.sizes)
        estimated = (trace.provenance or {}).get("estimated_size")
        observed = trace.sizes[-1]
        if estimated and observed:
            qerror = max(qerror, estimated / observed, observed / estimated)
    shard = {k: statistics.mean(v) for k, v in traced.shard.items() if v}
    rebuilds, incremental = maintenance
    metrics = {
        "plan.compile_ms": 1000.0 * both["plan.compile"],
        "plan.compiles": both_calls["plan.compile"],
        "plan.result_cache_hit_ratio": traced.hits / reads,
        "plan.run_other_ms": per_read("plan.run"),
        "core.build_ms": per_read("core.build"),
        "core.to_columnar_ms": per_read("core.to_columnar"),
        "core.to_columnar_calls": calls.get("core.to_columnar.conversions", 0),
        "core.fplan_ms": per_read("core.fplan"),
    }
    from layers import STEP_LAYERS

    for layer in STEP_LAYERS.values():
        metrics[f"{layer}_ms"] = per_read(layer)
    metrics.update({
        "core.size_info_ms": per_read("core.size_info"),
        "core.group_enum_ms": per_read("core.group_enum"),
        "core.enumerate_ms": per_read("core.enumerate"),
        "core.execute_other_ms": per_read("core.execute"),
        "core.peak_singletons": peak,
        "core.output_rows": output,
        "core.optimizer_qerror_max": qerror,
        "stats.collect_ms": 1000.0 * both["stats.collect"],
        "stats.collects": both_calls["stats.collect"],
        "ivm.apply_ms": per_write("ivm.apply"),
        "ivm.write_other_ms": per_write("ivm.write"),
        "ivm.rebuilds": rebuilds,
        "ivm.incremental_ratio": (
            incremental / (incremental + rebuilds) if incremental + rebuilds else 0.0
        ),
        "shard.run_ms": 1000.0 * shard.get("run", 0.0),
        "shard.imbalance": shard.get("imbalance", 0.0),
        "shard.merge_ms": 1000.0 * shard.get("merge", 0.0),
        "shard.dispatch_ms": 1000.0 * shard.get("dispatch", 0.0),
        "api.materialise_ms": per_read("api.materialise"),
        "ref.sqlite.read_p50_ms": 1000.0 * geomean(refs["sqlite"].values()),
        "ref.rdb.read_p50_ms": 1000.0 * geomean(refs["rdb"].values()),
        "bench.trace_overhead_ratio": traced.ops_per_s() / untraced.ops_per_s(),
        "write_p50_ms": (
            1000.0 * statistics.median(untraced.write_s) if untraced.write_s else 0.0
        ),
        "write_tail_ms": (
            1000.0 * tail(untraced.write_s, WRITE_TAIL)[0] if untraced.write_s else 0.0
        ),
    })
    roots = sum(during["root_s"].values())
    attributed = sum(self_s.values())
    lines = [
        f"traced phase: {traced.reads} reads, {writes} writes, "
        f"{1000 * traced.busy_s:.1f} ms client time, {1000 * roots:.1f} ms in "
        f"wrapped roots, {1000 * attributed:.1f} ms attributed to layers",
        "layer self time (ms, whole traced phase):",
    ]
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<22}{1000 * seconds:>10.2f}  calls {calls.get(layer, 0)}")
    lines.append("per-query p50 ms  fdb / sqlite / rdb:")
    for q, samples in untraced.read_s.items():
        lines.append(
            f"  {q:<14}{1000 * statistics.median(samples):>9.3f}"
            f"{1000 * refs['sqlite'][q]:>9.3f}{1000 * refs['rdb'][q]:>9.3f}"
        )
    return metrics, lines


def reference_medians(spec, database) -> dict:
    """Per-query median seconds of the same reads on sqlite and rdb."""
    from repro import connect

    medians = {}
    for engine in ("sqlite", "rdb"):
        with connect(database, engine=engine, cache=False) as session:
            per_query = {}
            for name, query in spec.queries.items():
                handle = session.prepare(query)
                handle.run().rows
                samples = []
                for _ in range(REF_SAMPLES):
                    started = perf_counter()
                    handle.run().rows
                    samples.append(perf_counter() - started)
                per_query[name] = statistics.median(samples)
            medians[engine] = per_query
    return medians


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()

    from oracle import Oracle
    from workloads import SCALE, WORKLOADS, rounds, set_up, spec as make_spec, write_candidates

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = make_spec(args.workload)
    oracle = Oracle(args.seed, SCALE)
    candidates = write_candidates(oracle.database, args.seed) if spec.writes else []

    deployment, first_setup = set_up(spec, args.seed)
    client = Client(spec, deployment, oracle, rounds(spec, args.seed, candidates))
    warm_failed = sum(not client.check(n, r) for n, r in deployment.warm.items())
    print(f"workload {spec.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace == 0:
        run = client.run(args.seconds)
        deployment.session.close()
        rss = peak_rss_mb()
        setups, kept = [first_setup], []
        for _ in range(SETUPS - 1):
            extra, seconds = set_up(spec, args.seed)
            extra.session.close()
            kept.append(extra.database)  # no id reuse among set-ups
            setups.append(seconds)
            client.kernel_s.append(reference_kernel())
        metrics, lines = end_to_end(spec, run, setups, rss, client.kernel_s)
        attempted, failed = run.attempted, run.failed
    else:
        from layers import Tracer

        untraced = client.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        client.quiet = tracer.paused
        try:
            stats = deployment.database.maintenance
            before = (stats.rebuilds, stats.incremental)
            mark = tracer.snapshot()
            traced = client.run(args.seconds / 2, traced=True)
            during = _delta(tracer.snapshot(), mark)
            maintenance = (stats.rebuilds - before[0], stats.incremental - before[1])
            mark = tracer.snapshot()
            extra, _ = set_up(spec, args.seed)
            extra.session.close()
            setup = _delta(tracer.snapshot(), mark)
        finally:
            tracer.uninstall()
        refs = reference_medians(spec, deployment.database)
        deployment.session.close()
        metrics, lines = per_layer(
            untraced, traced, during, setup, deployment, maintenance, refs
        )
        metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    oracle.close()

    # The warm reads of the set-up are checked and counted as well.
    attempted += len(deployment.warm)
    failed += warm_failed
    for line in lines:
        print(line)
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<30}{value:>16.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _delta(after: dict, before: dict) -> dict:
    return {
        part: {
            k: v - before[part].get(k, 0) for k, v in after[part].items()
        }
        for part in after
    }


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", ".imbalance", "qerror_max")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
