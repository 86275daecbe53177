"""Prepared-query lifecycle: cold plan+run vs prepared re-run vs cache hit.

Times three ways of serving the same query on the fig4-scale workload:

- ``cold``     — a fresh cache-free session per execution: every run
  pays canonicalisation, optimisation (the LP-guided f-plan search of
  Section 5.1) and evaluation;
- ``prepared`` — one ``session.prepare(query)`` handle re-run with the
  result cache disabled: evaluation still happens, optimisation is
  skipped (the retained f-plan replays);
- ``cached``   — re-executing the identical query on a caching session:
  the factorisation/result cache serves the answer after validating
  the database version against the IVM change log.

Queries run under both optimisers; the exhaustive search (the paper's
Section 5.1 plan enumeration) is where preparation pays most, since
its full cost is paid once and amortised over every re-run.

Writes ``BENCH_PR5.json``.  The default (full) run checks the PR's
acceptance criterion: the prepared re-run is measurably faster than
cold execution (≥ 1.3× median under the exhaustive optimiser) and the
cached hit is ≥ 20× faster than cold.

Usage::

    python benchmarks/bench_prepare.py             # fig4 scale (1.0)
    python benchmarks/bench_prepare.py --quick     # CI smoke: small scale
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Query, aggregate, connect  # noqa: E402
from repro.data.workloads import WORKLOAD, build_workload_database  # noqa: E402


def _queries():
    """fig4 workload queries plus the heavier base-join form of Q2."""
    join_q2 = Query(
        relations=("Orders", "Packages", "Items"),
        group_by=("customer",),
        aggregates=(aggregate("sum", "price", "revenue"),),
        name="Q2-bases",
    )
    return (
        ("Q1", WORKLOAD["Q1"].query),
        ("Q2", WORKLOAD["Q2"].query),
        ("Q7", WORKLOAD["Q7"].query),
        ("Q2-bases", join_q2),
    )


def _median_ms(samples):
    return statistics.median(samples) * 1000.0


def bench_query(database, query, optimizer, repeats):
    """(cold, prepared, cached) samples for one query/optimiser pair."""
    options = {"optimizer": optimizer}

    cold = []
    for _ in range(repeats):
        session = connect(database, cache=False, **options)
        start = time.perf_counter()
        session.execute(query)
        cold.append(time.perf_counter() - start)

    # Prepared re-run: plan retained, result cache off so evaluation
    # is really measured.
    session = connect(database, result_cache_size=0, **options)
    prepared_handle = session.prepare(query)
    prepared_handle.run()  # warm (also proves the plan executes)
    prepared = []
    for _ in range(repeats):
        start = time.perf_counter()
        prepared_handle.run()
        prepared.append(time.perf_counter() - start)

    # Cached factorisation/result hit: identical re-execution.
    caching = connect(database, **options)
    caching.execute(query)
    cached = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = caching.execute(query)
        cached.append(time.perf_counter() - start)
    assert result.lifecycle.result_cache == "hit"
    return cold, prepared, cached


def rebinding_proof(database):
    """Explain evidence: a re-bound prepared query hits the plan cache."""
    session = connect(database)
    prepared = session.prepare(
        "SELECT customer, SUM(price) AS revenue FROM R1 "
        "WHERE price > :floor GROUP BY customer"
    )
    prepared.run(floor=0)
    rebound = prepared.run(floor=10)
    return [
        line
        for line in rebound.explain().splitlines()
        if line.startswith(("prepared:", "timings:"))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale and few repeats (CI smoke; relaxes the checks)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_PR5.json"),
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.1 if args.quick else 1.0)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 9)

    database = build_workload_database(scale=scale, seed=args.seed)
    results = []
    exhaustive_ratios = []
    cached_ratios = []
    for optimizer in ("greedy", "exhaustive"):
        for name, query in _queries():
            cold, prepared, cached = bench_query(
                database, query, optimizer, repeats
            )
            cold_ms, prep_ms, hit_ms = (
                _median_ms(cold),
                _median_ms(prepared),
                _median_ms(cached),
            )
            ratio = cold_ms / prep_ms if prep_ms else float("inf")
            hit_ratio = cold_ms / hit_ms if hit_ms else float("inf")
            if optimizer == "exhaustive":
                exhaustive_ratios.append(ratio)
            cached_ratios.append(hit_ratio)
            for approach, median, samples in (
                ("cold", cold_ms, cold),
                ("prepared", prep_ms, prepared),
                ("cached", hit_ms, cached),
            ):
                results.append(
                    {
                        "query": name,
                        "optimizer": optimizer,
                        "approach": approach,
                        "median_ms": median,
                        "samples_ms": [s * 1000.0 for s in samples],
                    }
                )
            print(
                f"{optimizer:>10} {name:<9} cold {cold_ms:8.2f} ms  "
                f"prepared {prep_ms:8.2f} ms  cached {hit_ms:7.3f} ms  "
                f"(cold/prepared = {ratio:.2f}x, cold/cached = {hit_ratio:.0f}x)"
            )

    proof = rebinding_proof(database)
    print("\nre-bound prepared query explain() proof:")
    print("\n".join(f"  {line}" for line in proof))

    best_prepared = max(exhaustive_ratios)
    best_cached = max(cached_ratios)
    payload = {
        "benchmark": "bench_prepare",
        "config": {
            "scale": scale,
            "repeats": repeats,
            "seed": args.seed,
            "quick": args.quick,
        },
        "results": results,
        "best_exhaustive_cold_over_prepared": best_prepared,
        "best_cold_over_cached": best_cached,
        "rebinding_explain": proof,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    if not any("plan cache hit" in line for line in proof):
        print("FAIL: re-bound prepared query did not report a plan cache hit")
        return 1
    if not args.quick:
        if best_prepared < 1.3:
            print(
                f"FAIL: prepared re-run only {best_prepared:.2f}x faster "
                "than cold execute under the exhaustive optimiser (< 1.3x)"
            )
            return 1
        if best_cached < 20.0:
            print(
                f"FAIL: cached hit only {best_cached:.1f}x faster than "
                "cold execute (< 20x)"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
