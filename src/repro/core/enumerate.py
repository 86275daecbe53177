"""Enumeration of factorised query results (Section 4).

Constant-delay enumeration uses a hierarchy of iterators mirroring the
f-tree; because every union is kept sorted (Section 4.1), *ordered*
enumeration comes for free whenever the order-by list is compatible
with the tree in the sense of Theorem 2, and descending directions are
served by iterating unions backwards.

Public surface:

- :func:`supports_grouping` / :func:`supports_order` — the Theorem 1 and
  Theorem 2 characterisations of f-trees;
- :func:`iter_tuples` — enumeration in an order satisfying Theorem 2
  (or no particular order), with optional limit;
- :func:`iter_group_contexts` — enumeration of group-by assignments
  together with the leftover fragments hanging below each group, which
  the engine folds with the Section 3.2 evaluators ("executing partial
  aggregates on the other attributes on the fly", Example 1, case 3);
- :func:`restructure_for_order` / :func:`restructure_for_grouping` —
  the swap sequences of Section 4.2 that make an arbitrary f-tree
  enumerable for a given order/grouping.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, Sequence

from repro.core.frep import CUnion, Factorisation
from repro.core.ftree import FNode, FTree
from repro.relational.sort import normalise_order


class EnumerationError(ValueError):
    """Raised when enumeration prerequisites (Thm 1/2) are not met."""


# ---------------------------------------------------------------------------
# Characterisations
# ---------------------------------------------------------------------------
def supports_grouping(ftree: FTree, group: Sequence[str]) -> bool:
    """Theorem 1: every group attribute is a root or a child of another.

    Tuples within each group of ⟦E⟧ can be enumerated with constant
    delay iff each attribute of G labels a root node or a node whose
    parent holds another attribute of G.
    """
    group_set = set(group)
    for attribute in group:
        node = ftree.node(attribute)
        parent = ftree.parent(node)
        if parent is None:
            continue
        if not (set(parent.all_names) & group_set):
            return False
    return True


def supports_order(ftree: FTree, order: Sequence) -> bool:
    """Theorem 2: each order attribute is a root or a child of an
    attribute appearing *before* it in the order list."""
    keys = normalise_order(order)
    seen: set[str] = set()
    for key in keys:
        node = ftree.node(key.attribute)
        parent = ftree.parent(node)
        if parent is not None and not (set(parent.all_names) & seen):
            return False
        seen.update(node.all_names)
    return True


# ---------------------------------------------------------------------------
# Restructuring (Section 4.2)
# ---------------------------------------------------------------------------
def restructure_for_grouping(ftree: FTree, group: Sequence[str]) -> list[str]:
    """Swap sequence (child names, in order) establishing Theorem 1.

    Pushes every group attribute above all non-group attributes; each
    entry of the returned list is an argument for one swap χ.  The input
    tree is not modified; callers replay the swaps on the factorisation.
    """
    swaps: list[str] = []
    group_set = set(group)
    current = ftree
    changed = True
    while changed:
        changed = False
        for attribute in group:
            node = current.node(attribute)
            parent = current.parent(node)
            if parent is None or (set(parent.all_names) & group_set):
                continue
            from repro.core.operators import swap_tree

            current = swap_tree(current, node.name)
            swaps.append(node.name)
            changed = True
            break
    return swaps


def restructure_for_order(ftree: FTree, order: Sequence) -> list[str]:
    """Swap sequence establishing Theorem 2 for the given order list."""
    keys = normalise_order(order)
    swaps: list[str] = []
    current = ftree
    changed = True
    while changed:
        changed = False
        seen: set[str] = set()
        for key in keys:
            node = current.node(key.attribute)
            parent = current.parent(node)
            if parent is not None and not (set(parent.all_names) & seen):
                from repro.core.operators import swap_tree

                current = swap_tree(current, node.name)
                swaps.append(node.name)
                changed = True
                break
            seen.update(node.all_names)
    return swaps


# ---------------------------------------------------------------------------
# Tuple enumeration
# ---------------------------------------------------------------------------
def _iter_union_entries(
    union: CUnion, descending: bool
) -> Iterator[tuple[Any, tuple]]:
    """``(value, child_fragments)`` per entry, forwards or back.

    Descending directions iterate the sorted arrays backwards
    (Section 4.1), so both directions stay constant-delay.
    """
    values = union.values
    cols = union.children
    indices = (
        range(len(values) - 1, -1, -1) if descending else range(len(values))
    )
    if not cols:
        for i in indices:
            yield values[i], ()
    else:
        for i in indices:
            yield values[i], tuple(col[i] for col in cols)


def iter_tuples(
    fact: Factorisation,
    order: Sequence = (),
    limit: int | None = None,
) -> Iterator[tuple]:
    """Enumerate ⟦E⟧, optionally ordered (Theorem 2) and limited (λ_k).

    The output schema is ``fact.schema()``.  With an order list, the
    factorisation must satisfy Theorem 2 — use
    :func:`restructure_for_order` first otherwise.
    """
    keys = normalise_order(order)
    if keys and not supports_order(fact.ftree, keys):
        raise EnumerationError(
            f"f-tree does not support constant-delay enumeration in order "
            f"{[str(k) for k in keys]}; restructure first (Theorem 2)"
        )
    schema = fact.schema()
    positions = {name: index for index, name in enumerate(schema)}
    row: list[Any] = [None] * len(schema)
    direction = {key.attribute: key.descending for key in keys}
    priority = {key.attribute: rank for rank, key in enumerate(keys)}

    def node_slots(node: FNode) -> list[int]:
        return [positions[name] for name in node.all_names]

    def generate(
        items: list[tuple[FNode, CUnion]]
    ) -> Iterator[tuple]:
        if not items:
            yield tuple(row)
            return
        index = _pick_next(items, priority)
        node, union = items[index]
        rest = items[:index] + items[index + 1 :]
        slots = node_slots(node)
        descending = direction.get(node.name, False) or any(
            direction.get(name, False) for name in node.all_names
        )
        for value, entry_children in _iter_union_entries(union, descending):
            for slot in slots:
                row[slot] = value
            children = list(zip(node.children, entry_children))
            yield from generate(rest + children)

    iterator = generate(list(zip(fact.ftree.roots, fact.roots)))
    if limit is not None:
        iterator = islice(iterator, limit)
    return iterator


def _pick_next(
    items: list[tuple[FNode, CUnion]], priority: dict[str, int]
) -> int:
    """Next fragment to expand: pending order attributes come first."""
    best = None
    best_rank = None
    for index, (node, _) in enumerate(items):
        ranks = [priority[name] for name in node.all_names if name in priority]
        if ranks:
            rank = min(ranks)
            if best_rank is None or rank < best_rank:
                best, best_rank = index, rank
    return best if best is not None else 0


# ---------------------------------------------------------------------------
# Grouped enumeration with leftover fragments
# ---------------------------------------------------------------------------
def iter_group_contexts(
    fact: Factorisation,
    group: Sequence[str],
    order: Sequence = (),
) -> Iterator[tuple[dict[str, Any], list[tuple[FNode, CUnion]]]]:
    """Enumerate assignments to the group attributes (Theorem 1).

    Yields ``(assignment, leftovers)`` pairs where ``assignment`` maps
    each group attribute to its value and ``leftovers`` is the list of
    fragments (node, union) hanging below the assignment — the partial
    aggregates the engine combines on the fly.  With an ``order`` list
    over group attributes, assignments come out in that order (Thm 2).

    The group region must be upward-closed (every group node is a root
    or has a group parent) — exactly the Theorem 1 condition.
    """
    group_set = set(group)
    if not supports_grouping(fact.ftree, group):
        raise EnumerationError(
            f"f-tree does not support grouping by {sorted(group_set)}; "
            "restructure first (Theorem 1)"
        )
    keys = normalise_order(order)
    for key in keys:
        if key.attribute not in group_set:
            raise EnumerationError(
                f"order attribute {key.attribute!r} is not in the group"
            )
    if keys and not supports_order(fact.ftree, keys):
        raise EnumerationError(
            f"f-tree does not support enumeration in order "
            f"{[str(k) for k in keys]}; restructure first (Theorem 2)"
        )
    direction = {key.attribute: key.descending for key in keys}
    priority = {key.attribute: rank for rank, key in enumerate(keys)}
    assignment: dict[str, Any] = {}

    def is_group_node(node: FNode) -> bool:
        return bool(set(node.all_names) & group_set)

    def generate(
        items: list[tuple[FNode, CUnion]],
        leftovers: list[tuple[FNode, CUnion]],
    ) -> Iterator[tuple[dict[str, Any], list[tuple[FNode, CUnion]]]]:
        pending = [
            (index, node) for index, (node, _) in enumerate(items)
        ]
        group_items = [
            index for index, node in pending if is_group_node(node)
        ]
        if not group_items:
            yield dict(assignment), leftovers + items
            return
        index = _pick_next(
            [items[i] for i in group_items], priority
        )
        index = group_items[index]
        node, union = items[index]
        rest = items[:index] + items[index + 1 :]
        descending = any(
            direction.get(name, False) for name in node.all_names
        )
        for value, entry_children in _iter_union_entries(union, descending):
            for name in node.all_names:
                if name in group_set:
                    assignment[name] = value
            children = list(zip(node.children, entry_children))
            yield from generate(rest + children, leftovers)
            for name in node.all_names:
                if name in group_set:
                    del assignment[name]

    yield from generate(list(zip(fact.ftree.roots, fact.roots)), [])
