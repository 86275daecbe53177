"""Factorised representations over f-trees (Definition 1).

A factorisation over an f-tree is, at each node, a union of singleton
values, each carrying one fragment per child node — i.e. the normal
form ``⋃_a ⟨A:a⟩ × E_child1(a) × ... × E_childk(a)`` with products
across the forest's roots.  Values within every union are kept sorted
ascending (Section 4.1); all operators preserve this invariant, which
is what makes merges linear and ordered enumeration constant-delay.

Two kinds of singleton values occur:

- atomic nodes hold plain values;
- aggregate nodes hold *tuples* of component values aligned with their
  :class:`repro.core.ftree.AggregateAttribute.functions`.

Each union is a :class:`CUnion`: one contiguous, strictly ascending
value array plus one column of sub-unions per f-tree child, aligned
with the values (struct-of-arrays).  Operators and aggregate evaluators
make one Python-level pass per union instead of one per value.

The container :class:`Factorisation` pairs an f-tree with one union per
root and provides size accounting, flattening, and validation.  The
structures are treated as immutable: operators build new spines and
share unchanged fragments, so registered views can serve many queries.
"""

from __future__ import annotations

from sys import getsizeof
from typing import Any, Callable, Iterator, Sequence

from repro.core.ftree import FNode, FTree
from repro.relational.relation import Relation


class FactorisationError(ValueError):
    """Raised for malformed factorisations (misalignment, bad order)."""


class CUnion:
    """One union: sorted singleton values plus aligned child columns.

    ``values`` is the flat, strictly-ascending array of singleton values;
    ``children`` is one column per f-tree child, each a list of
    :class:`CUnion` aligned with ``values`` (``children[c][i]`` is the
    child-``c`` fragment of entry ``i``).  An empty union still carries
    the correct number of (empty) child columns so arity survives edits.

    The class deliberately does not implement ``__iter__`` or
    ``__getitem__``: hot paths read the columns directly, and
    :func:`iter_entries` serves cold entry-at-a-time traversal.
    """

    __slots__ = ("values", "children")

    def __init__(
        self, values: list, children: Sequence[list["CUnion"]] = ()
    ) -> None:
        self.values = values
        self.children: tuple[list[CUnion], ...] = tuple(children)

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)

    def __reduce__(self):
        return (CUnion, (self.values, self.children))

    def __repr__(self) -> str:
        return f"CUnion({len(self.values)} values, {len(self.children)} cols)"


# Fixed per-container sizes used by the arithmetic ``size_info`` walk:
# variable-length containers contribute one pointer slot per element on
# top of their empty-container header.
_PTR = 8
_LIST_BYTES = getsizeof([])
_TUPLE_BYTES = getsizeof(())
_CUNION_BYTES = getsizeof(CUnion([], ()))


def empty_cunion(arity: int) -> CUnion:
    """The empty union with ``arity`` child columns."""
    return CUnion([], tuple([] for _ in range(arity)))


def singleton_cunion(value: Any, children: Sequence[CUnion] = ()) -> CUnion:
    """A one-entry union."""
    return CUnion([value], tuple([child] for child in children))


def iter_entries(union: CUnion) -> Iterator[tuple[Any, tuple]]:
    """Yield ``(value, child_fragments)`` per entry of ``union``.

    The entry-at-a-time view for cold paths (expression machinery, IVM
    walks); hot paths read the columns directly instead.
    """
    values = union.values
    cols = union.children
    if not cols:
        for value in values:
            yield value, ()
    else:
        for i, value in enumerate(values):
            yield value, tuple(col[i] for col in cols)


def _value_tuple(node: FNode, value: Any) -> tuple:
    """The output values one entry contributes (class attrs repeated)."""
    if node.is_aggregate:
        return (value,)
    return (value,) * len(node.attributes)


class Factorisation:
    """A factorised relation: an f-tree plus one :class:`CUnion` per root."""

    __slots__ = ("ftree", "roots")

    def __init__(self, ftree: FTree, roots: Sequence[CUnion]) -> None:
        if len(ftree.roots) != len(roots):
            raise FactorisationError(
                f"{len(roots)} root fragments for {len(ftree.roots)} f-tree roots"
            )
        self.ftree = ftree
        self.roots: tuple[CUnion, ...] = tuple(roots)

    def to_columnar(self) -> "Factorisation":
        # Kept only so perfbench's layer tracer, which patches this name,
        # still resolves; nothing in the program calls it.
        return self

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def schema(self) -> list[str]:
        """Attribute names of the represented relation, in pre-order.

        Aggregate nodes contribute their (single) name; their tuple
        values are kept as one attribute until the engine finalises them.
        """
        return self.ftree.attribute_names()

    # ------------------------------------------------------------------
    # Size accounting (the paper's succinctness measure: #singletons)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of singletons in the representation (shared fragments
        count once per occurrence)."""
        total = 0
        stack = list(self.roots)
        while stack:
            union = stack.pop()
            total += len(union.values)
            for col in union.children:
                stack.extend(col)
        return total

    def size_info(self) -> tuple[int, int]:
        """``(singletons, resident_bytes)`` in one walk.

        ``resident_bytes`` estimates the representation's *container*
        structure (unions, value arrays, child columns) arithmetically
        from container lengths and the fixed per-object sizes —
        pointer-slot counting rather than ``sys.getsizeof`` per
        container, so the walk stays cheap enough for per-step traces.
        The singleton value objects themselves are excluded.  Fragments
        shared by reference are counted once per occurrence, matching
        ``size()``.
        """
        singles = 0
        nbytes = 0
        stack = list(self.roots)
        while stack:
            union = stack.pop()
            count = len(union.values)
            cols = union.children
            singles += count
            nbytes += (
                _CUNION_BYTES
                + _LIST_BYTES
                + _PTR * count
                + _TUPLE_BYTES
                + _PTR * len(cols)
            )
            for col in cols:
                nbytes += _LIST_BYTES + _PTR * len(col)
                stack.extend(col)
        return singles, nbytes

    def byte_size(self) -> int:
        """Resident bytes of the container structure (see size_info)."""
        return self.size_info()[1]

    def tuple_count(self) -> int:
        """Cardinality of the represented relation |⟦E⟧|.

        Unlike :meth:`size`, this multiplies across products, so it can
        be exponentially larger than the representation.  Aggregate
        singletons count as one tuple each (their relational reading is
        used only by the aggregation algorithms).
        """

        def count_union(union: CUnion) -> int:
            cols = union.children
            if not cols:
                return len(union.values)
            total = 0
            for i in range(len(union.values)):
                entry_total = 1
                for col in cols:
                    entry_total *= count_union(col[i])
                total += entry_total
            return total

        product = 1
        for union in self.roots:
            product *= count_union(union)
        return product

    def is_empty(self) -> bool:
        """Whether the represented relation is empty."""
        return (
            any(not union.values for union in self.roots)
            if self.roots
            else False
        )

    # ------------------------------------------------------------------
    # Flattening
    # ------------------------------------------------------------------
    def iter_tuples(self) -> Iterator[tuple]:
        """Enumerate the represented tuples (no particular order).

        The delay between consecutive tuples is constant in data size:
        the iterator hierarchy mirrors the f-tree (Section 4.1).
        """
        nodes = self.ftree.roots

        def iter_forest(
            items: Sequence[tuple[FNode, CUnion]]
        ) -> Iterator[tuple]:
            if not items:
                yield ()
                return
            (node, union), rest = items[0], items[1:]
            cols = union.children
            child_nodes = node.children
            span = range(len(cols))
            for i, value in enumerate(union.values):
                prefix_values = _value_tuple(node, value)
                children = [(child_nodes[c], cols[c][i]) for c in span]
                for mid in iter_forest(children):
                    for suffix in iter_forest(rest):
                        yield prefix_values + mid + suffix

        yield from iter_forest(list(zip(nodes, self.roots)))

    def to_relation(self, name: str = "") -> Relation:
        """Materialise the represented relation (flat output)."""
        return Relation(self.schema(), list(self.iter_tuples()), name=name or "⟦E⟧")

    # ------------------------------------------------------------------
    # Validation (used by tests and debug paths)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural alignment and the sortedness invariant."""

        def check_union(node: FNode, union: CUnion) -> None:
            if type(union) is not CUnion:
                raise FactorisationError(
                    f"node {node.label()!r} holds a non-union fragment "
                    f"{union!r}"
                )
            if len(union.children) != len(node.children):
                raise FactorisationError(
                    f"union of node {node.label()!r} has "
                    f"{len(union.children)} child columns for "
                    f"{len(node.children)} f-tree children"
                )
            previous = None
            for value in union.values:
                if previous is not None and not previous < value:
                    raise FactorisationError(
                        f"union of node {node.label()!r} is not strictly "
                        f"ascending: {previous!r} then {value!r}"
                    )
                previous = value
                if node.is_aggregate and not isinstance(value, tuple):
                    raise FactorisationError(
                        f"aggregate node {node.label()!r} holds non-tuple "
                        f"value {value!r}"
                    )
            for child_node, col in zip(node.children, union.children):
                if len(col) != len(union.values):
                    raise FactorisationError(
                        f"child column of node {node.label()!r} has "
                        f"{len(col)} fragments for {len(union.values)} values"
                    )
                for sub in col:
                    check_union(child_node, sub)

        for node, union in zip(self.ftree.roots, self.roots):
            check_union(node, union)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def pretty(self, limit: int = 40) -> str:
        """Nested rendering like the paper's ⟨value⟩ × (...) ∪ ... form."""
        budget = [limit]

        def render_union(node: FNode, union: CUnion, indent: int) -> list[str]:
            lines: list[str] = []
            cols = union.children
            span = range(len(cols))
            for i, value in enumerate(union.values):
                if budget[0] <= 0:
                    lines.append("  " * indent + "...")
                    break
                budget[0] -= 1
                lines.append("  " * indent + f"⟨{node.label()}:{value!r}⟩")
                for c in span:
                    lines.extend(
                        render_union(node.children[c], cols[c][i], indent + 1)
                    )
            return lines

        lines: list[str] = []
        for node, union in zip(self.ftree.roots, self.roots):
            lines.extend(render_union(node, union, 0))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Factorisation(schema={self.schema()!r}, size={self.size()}, "
            f"tuples={self.tuple_count()})"
        )


# Kept only so perfbench's layer tracer, which patches this name, still
# resolves; it is the same class.
ColumnarFactorisation = Factorisation


def empty_factorisation(ftree: FTree) -> Factorisation:
    """The empty relation over ``ftree`` (∅)."""
    return Factorisation(
        ftree, [empty_cunion(len(node.children)) for node in ftree.roots]
    )


def map_cunion_at(
    fact: Factorisation,
    root_index: int,
    steps: Sequence[int],
    transform: Callable[[FNode, CUnion], CUnion],
    new_ftree: FTree,
) -> Factorisation:
    """Rebuild a factorisation with ``transform`` applied at one position.

    ``steps`` is the child-index path from the root (as produced by
    :meth:`repro.core.ftree.FTree.path_to`); the transform runs once per
    fragment instance at that position (once per ancestor context) and
    must return a :class:`CUnion` with the child-column arity of the
    (possibly reshaped) target node.  Entries whose transformed fragment
    becomes empty are filtered out of the parent's value array *and
    every sibling column*, and the pruning propagates upwards (an empty
    union kills its parent entry, matching ∅ absorption through
    products).
    """

    def rebuild(node: FNode, union: CUnion, remaining: Sequence[int]) -> CUnion:
        if not remaining:
            return transform(node, union)
        step, rest = remaining[0], remaining[1:]
        cols = union.children
        child_node = node.children[step]
        new_col: list[CUnion] = []
        keep: list[int] = []
        for i, sub in enumerate(cols[step]):
            new_child = rebuild(child_node, sub, rest)
            if not new_child.values:
                continue  # empty fragment: the entry represents ∅, prune it
            keep.append(i)
            new_col.append(new_child)
        if len(keep) == len(union.values):
            values = union.values
            children = cols[:step] + (new_col,) + cols[step + 1 :]
        else:
            values = [union.values[i] for i in keep]
            children = tuple(
                new_col if c == step else [cols[c][i] for i in keep]
                for c in range(len(cols))
            )
        return CUnion(values, children)

    new_roots = list(fact.roots)
    new_roots[root_index] = rebuild(
        fact.ftree.roots[root_index], fact.roots[root_index], list(steps)
    )
    return Factorisation(new_ftree, new_roots)
