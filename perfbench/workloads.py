"""The benchmark's workloads: query mixes, write streams and set-up.

Every workload runs on ``build_workload_database(scale=1.0, seed=...)``
through the public session API, with one client in a closed loop.

- ``agg``: Q1–Q9 and E1–E5, caches off, so every read executes.  Time
  goes to f-plan operators, aggregate evaluation, group enumeration and
  (E5) the query-time input build; outputs are small.
- ``ord``: Q10, Q12 and Q13 in full plus Q10–Q13 with ``LIMIT 10``
  (Fig. 8), caches off.  The full queries are dominated by tuple
  enumeration; the LIMIT variants keep the restructuring (Q12's swap)
  but skip it, so an enumeration gain shows only on the former.  Q11
  runs only limited: in full it repeats Q10's work.  Every query but
  full Q10 and Q12 runs four times a round, so the cheap ones, which
  weigh as much in the geometric mean, get enough samples.
- ``ivm-mixed``: rounds of one ``Orders`` write followed by three reads
  of each of Q2, Q4, Q8, Q13 and E1 in seeded order, with the session's
  default plan and result caches.  Writes alternate between inserting
  one of a few seeded rows absent from the data and deleting it again,
  so the database stays level in size and recurring states reuse the
  oracle's answers.  Each write invalidates every read, so two thirds
  of reads hit the result cache and one third reads fresh.
- ``sharded-agg``: the ``agg`` mix on ``fdb-parallel`` with two shards
  and two fork workers; its twin ``agg`` isolates shard overhead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro import connect
from repro.data.workloads import FULL_WORKLOAD, build_workload_database

SCALE = 1.0
AGG = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "E1", "E2", "E3", "E4", "E5")
ORD_FULL = ("Q10", "Q12", "Q13")
ORD_LIMITED = ("Q10", "Q11", "Q12", "Q13")
ORD_LIMIT = 10
ORD_REPEATS = 4  # runs per round of every ord query but full Q10 and Q12
IVM_READS = ("Q2", "Q4", "Q8", "Q13", "E1")
IVM_REPEATS = 3  # reads of each query per round
#: Distinct rows the ivm-mixed stream inserts and deletes again.
IVM_CANDIDATES = 4


@dataclass(frozen=True)
class Spec:
    name: str
    queries: dict
    engine: str = "fdb"
    engine_options: dict = field(default_factory=dict)
    cache: bool = False
    writes: bool = False
    repeats: dict = field(default_factory=dict)  # reads per round, default 1
    # The tail percentile of each query (default: the median).  Fixed per
    # query, so every run compares the same percentile: the highest that
    # keeps 10 samples beyond it in a 15 s run on a host half as fast as
    # the one these were chosen on.
    tails: dict = field(default_factory=dict)

    def tail(self, name: str) -> float:
        return self.tails.get(name, 50.0)


def _ord_queries() -> dict:
    queries = {name: FULL_WORKLOAD[name].query for name in ORD_FULL}
    for name in ORD_LIMITED:
        limited = f"{name}-limit{ORD_LIMIT}"
        queries[limited] = replace(
            FULL_WORKLOAD[name].query, limit=ORD_LIMIT, name=limited
        )
    return queries


def spec(name: str) -> Spec:
    agg = {q: FULL_WORKLOAD[q].query for q in AGG}
    if name == "agg":
        return Spec(name, agg)
    if name == "ord":
        queries = _ord_queries()
        light = [q for q in queries if q not in ("Q10", "Q12")]
        return Spec(
            name,
            queries,
            repeats={q: ORD_REPEATS for q in light},
            tails={q: 75.0 for q in light},
        )
    if name == "ivm-mixed":
        return Spec(
            name,
            {q: FULL_WORKLOAD[q].query for q in IVM_READS},
            cache=True,
            writes=True,
            repeats={q: IVM_REPEATS for q in IVM_READS},
            tails={q: 95.0 for q in IVM_READS},
        )
    if name == "sharded-agg":
        return Spec(
            name,
            agg,
            engine="fdb-parallel",
            engine_options={"shards": 2, "workers": 2},
        )
    raise KeyError(name)


WORKLOADS = ("agg", "ord", "ivm-mixed", "sharded-agg")


@dataclass
class Deployment:
    """One set-up: database, open session, prepared and warmed queries."""

    database: object
    session: object
    prepared: dict
    warm: dict  # query name -> Result of the warm run


def set_up(spec: Spec, seed: int) -> "tuple[Deployment, float]":
    """Generate, factorise, open, prepare and warm; returns the seconds.

    The warm run matters: ``FDBEngine.compile`` runs at a prepared
    query's first ``run``, not at ``prepare``, so without it compile
    time would land in the first timed samples.
    """
    started = perf_counter()
    database = build_workload_database(scale=SCALE, seed=seed)
    session = connect(
        database, engine=spec.engine, cache=spec.cache, **spec.engine_options
    )
    prepared = {name: session.prepare(q) for name, q in spec.queries.items()}
    warm = {}
    for name, handle in prepared.items():
        result = handle.run()
        result.rows
        warm[name] = result
    return Deployment(database, session, prepared, warm), perf_counter() - started


def write_candidates(database, seed: int) -> list:
    """Seeded ``Orders`` rows absent from the data (insertable)."""
    orders = database.flat("Orders")
    present = set(orders.rows)
    columns = [sorted({row[i] for row in orders.rows}) for i in range(len(orders.schema))]
    rng = random.Random(f"perfbench-writes/{seed}")
    chosen: list = []
    while len(chosen) < IVM_CANDIDATES:
        row = tuple(rng.choice(values) for values in columns)
        if row not in present and row not in chosen:
            chosen.append(row)
    return chosen


def rounds(spec: Spec, seed: int, candidates: list):
    """The seeded operation stream, one round per item.

    An operation is ``("read", name)``, ``("insert", row)`` or
    ``("delete", row)``.
    """
    rng = random.Random(f"perfbench-stream/{spec.name}/{seed}")
    live = None
    while True:
        ops = []
        if spec.writes:
            if live is None:
                live = rng.choice(candidates)
                ops.append(("insert", live))
            else:
                ops.append(("delete", live))
                live = None
        reads = [name for name in spec.queries for _ in range(spec.repeats.get(name, 1))]
        rng.shuffle(reads)
        ops.extend(("read", name) for name in reads)
        yield ops
