"""Beyond f-trees: DAG compression of factorisations (Section 8).

The paper's conclusion points at "more succinct representations such as
decision diagrams" as future work.  The first step beyond tree-shaped
factorisations is sharing *equal* fragments: when two contexts hold
structurally identical unions (e.g. many packages with the same item
list, or the pizzeria's shared topping lists), a single copy can serve
both — turning the parse tree of the representation into a DAG, in the
spirit of the d-representations later developed in this line of work.

Because unions are immutable, the sharing is transparent to every
consumer: enumeration, aggregation and the operators keep working
unchanged on a compressed factorisation.  Sharing happens at union
granularity — a union's value array and child columns are one unit —
so the DAG size counts each structurally distinct union once.  This
module provides

- :func:`hash_cons` — rebuild a factorisation with maximal sharing;
- :func:`dag_size` — the number of singletons when every structurally
  distinct union is stored once, i.e. the size of the DAG
  representation (``Factorisation.size`` keeps counting the tree size);
- :func:`sharing_report` — tree-vs-DAG size accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.core.frep import CUnion, Factorisation


@dataclass(frozen=True)
class SharingReport:
    """Tree-vs-DAG size accounting for one factorisation."""

    tree_singletons: int
    dag_singletons: int
    shared_fragments: int

    @property
    def ratio(self) -> float:
        """Compression ratio (≥ 1; higher means more sharing)."""
        if self.dag_singletons == 0:
            return 1.0
        return self.tree_singletons / self.dag_singletons


class _Interner:
    """Numbers structurally distinct unions bottom-up.

    A union's signature is its value tuple plus the numbers of its
    child fragments, so signatures stay flat and hashing is linear in
    the representation size.
    """

    def __init__(self) -> None:
        self.numbers: dict[tuple, int] = {}
        self.unions: list[CUnion] = []

    def intern(self, union: CUnion) -> int:
        columns = [[self.intern(sub) for sub in col] for col in union.children]
        key = (tuple(union.values), tuple(map(tuple, columns)))
        number = self.numbers.get(key)
        if number is None:
            number = self.numbers[key] = len(self.unions)
            self.unions.append(
                CUnion(
                    list(union.values),
                    tuple([self.unions[i] for i in col] for col in columns),
                )
            )
        return number


def hash_cons(fact: Factorisation) -> Factorisation:
    """Maximal sharing: structurally equal unions become one object.

    Runs bottom-up with memoisation on a structural signature; the
    result represents the same relation over the same f-tree, but equal
    fragments are physically shared, so the in-memory footprint matches
    :func:`dag_size` rather than ``size()``.
    """
    interner = _Interner()
    roots = [interner.unions[interner.intern(union)] for union in fact.roots]
    return Factorisation(fact.ftree, roots)


def dag_size(fact: Factorisation) -> int:
    """Number of singletons under maximal sharing.

    Counts the values of each structurally distinct union once — the
    size of the DAG (decision-diagram-style) representation of the
    same data.
    """
    interner = _Interner()
    for union in fact.roots:
        interner.intern(union)
    return sum(len(union.values) for union in interner.unions)


def physical_singletons(fact: Factorisation) -> int:
    """Singletons counted per union object (measures actual sharing)."""
    seen: set[int] = set()
    total = 0
    stack = list(fact.roots)
    while stack:
        union = stack.pop()
        if id(union) in seen:
            continue
        seen.add(id(union))
        total += len(union.values)
        for col in union.children:
            stack.extend(col)
    return total


def sharing_report(fact: Factorisation) -> SharingReport:
    """Compare the tree size with the DAG size of a factorisation."""
    tree = fact.size()
    dag = dag_size(fact)
    return SharingReport(
        tree_singletons=tree,
        dag_singletons=dag,
        shared_fragments=tree - dag,
    )
