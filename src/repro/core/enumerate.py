"""Enumeration of factorised query results (Section 4).

Which fragment a constant-delay enumerator expands next depends only on
the f-tree and the order list, never on the data.  Every call therefore
computes that expansion order once, as a static list of levels, and one
lazy nested loop (:func:`_walk`) runs it: each level walks one union —
backwards for a descending key, which keeps the delay constant because
every union is sorted (Section 4.1) — and fills its output slots and the
registers of its child fragments.  Ordered enumeration comes for free
whenever the order list satisfies Theorem 2.

Public surface:

- :func:`supports_grouping` / :func:`supports_order` — the Theorem 1 and
  Theorem 2 characterisations of f-trees;
- :func:`iter_tuples` — the loop over every level: enumeration in an
  order satisfying Theorem 2 (or no particular order), with optional
  limit;
- :func:`iter_group_contexts` — the loop over the group levels only:
  group-by assignments together with the leftover fragments hanging
  below each, which the engine folds with the Section 3.2 evaluators
  ("executing partial aggregates on the other attributes on the fly",
  Example 1, case 3);
- :func:`restructure_for_order` / :func:`restructure_for_grouping` —
  the swap sequences of Section 4.2 that make an arbitrary f-tree
  enumerable for a given order/grouping.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

from repro.core.ftree import FNode, FTree
from repro.core.operators import swap_tree
from repro.relational.sort import SortKey, normalise_order

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.frep import CUnion, Factorisation


class EnumerationError(ValueError):
    """Raised when enumeration prerequisites (Thm 1/2) are not met."""


# ---------------------------------------------------------------------------
# Characterisations
# ---------------------------------------------------------------------------
def _first_violation(
    ftree: FTree, attributes: Sequence[str], ordered: bool
) -> FNode | None:
    """The first node breaking Theorem 1 (Theorem 2 when ``ordered``).

    Each listed attribute must label a root or a node whose parent holds
    another listed attribute — for Theorem 2, one listed *before* it.
    """
    allowed = set() if ordered else set(attributes)
    for attribute in attributes:
        node = ftree.node(attribute)
        parent = ftree.parent(node)
        if parent is not None and allowed.isdisjoint(parent.all_names):
            return node
        if ordered:
            allowed.update(node.all_names)
    return None


def _order_attributes(order: Sequence) -> list[str]:
    return [key.attribute for key in normalise_order(order)]


def supports_grouping(ftree: FTree, group: Sequence[str]) -> bool:
    """Theorem 1: every group attribute is a root or a child of another.

    Tuples within each group of ⟦E⟧ can be enumerated with constant
    delay iff each attribute of G labels a root node or a node whose
    parent holds another attribute of G.
    """
    return _first_violation(ftree, group, ordered=False) is None


def supports_order(ftree: FTree, order: Sequence) -> bool:
    """Theorem 2: each order attribute is a root or a child of an
    attribute appearing *before* it in the order list."""
    return _first_violation(ftree, _order_attributes(order), ordered=True) is None


# ---------------------------------------------------------------------------
# Restructuring (Section 4.2)
# ---------------------------------------------------------------------------
def _restructure(
    ftree: FTree, attributes: Sequence[str], ordered: bool
) -> list[str]:
    """Swap each first violating node above its parent until none is left."""
    swaps: list[str] = []
    node = _first_violation(ftree, attributes, ordered)
    while node is not None:
        ftree = swap_tree(ftree, node.name)
        swaps.append(node.name)
        node = _first_violation(ftree, attributes, ordered)
    return swaps


def restructure_for_grouping(ftree: FTree, group: Sequence[str]) -> list[str]:
    """Swap sequence (child names, in order) establishing Theorem 1.

    Pushes every group attribute above all non-group attributes; each
    entry of the returned list is an argument for one swap χ.  The input
    tree is not modified; callers replay the swaps on the factorisation.
    """
    return _restructure(ftree, group, ordered=False)


def restructure_for_order(ftree: FTree, order: Sequence) -> list[str]:
    """Swap sequence establishing Theorem 2 for the given order list."""
    return _restructure(ftree, _order_attributes(order), ordered=True)


# ---------------------------------------------------------------------------
# The static expansion order and the one loop
# ---------------------------------------------------------------------------
class _Level(NamedTuple):
    """One step of a static expansion order (see :func:`_walk`)."""

    register: int  # where the level's union is found
    slots: tuple[int, ...]  # row positions its value fills
    children: tuple[tuple[int, int], ...]  # (child column, register) pairs
    descending: bool


def _expansion_order(
    ftree: FTree,
    keys: Sequence[SortKey],
    slots: Callable[[FNode], tuple[int, ...]],
    expand: Callable[[FNode], bool] = lambda node: True,
) -> tuple[list[_Level], list[tuple[FNode, int]]]:
    """The levels one enumeration walks, computed once from the f-tree.

    Registers ``0..len(roots)-1`` hold the root unions; every other
    pending fragment gets the next free register.  Among the pending
    fragments whose node satisfies ``expand``, the one holding the
    earliest order key is expanded first, otherwise the oldest; a node
    runs in the direction of its earliest key.  Returns the levels and
    the ``(node, register)`` fragments never expanded (the leftovers).
    """
    first: dict[str, tuple[int, bool]] = {}
    for index, key in enumerate(keys):
        first.setdefault(key.attribute, (index, key.descending))
    unranked = (len(keys), False)

    def earliest_key(node: FNode) -> tuple[int, bool]:
        return min(
            (first[name] for name in node.all_names if name in first),
            default=unranked,
        )

    pending = [(root, index) for index, root in enumerate(ftree.roots)]
    registers = len(pending)
    levels: list[_Level] = []
    while True:
        candidates = [i for i, (node, _) in enumerate(pending) if expand(node)]
        if not candidates:
            return levels, pending
        node, register = pending.pop(
            min(candidates, key=lambda i: earliest_key(pending[i][0])[0])
        )
        children = tuple(
            (column, registers + column) for column in range(len(node.children))
        )
        pending.extend(
            (child, registers + column)
            for column, child in enumerate(node.children)
        )
        registers += len(children)
        levels.append(
            _Level(register, slots(node), children, earliest_key(node)[1])
        )


def _walk(levels: Sequence[_Level], frags: dict, row: list) -> Iterator[list]:
    """The one enumerator: a lazy nested loop over a static expansion order.

    Level ``k`` walks the union in ``frags[register]``, forwards or
    backwards.  Entering entry ``i`` writes the entry's value into the
    level's ``row`` slots and its child fragments into their registers,
    then opens level ``k + 1``.  The same ``row`` list is yielded once
    per entry of the innermost level (callers copy what they keep).  As
    no union below a root is empty, the delay between two yields is
    bounded by the number of levels.
    """
    if not levels:
        yield row
        return
    last = len(levels) - 1
    unions: list = [None] * len(levels)
    cursors: list = [None] * len(levels)
    k = 0
    while k >= 0:
        register, slots, children, descending = levels[k]
        cursor = cursors[k]
        if cursor is None:
            # Open level k on the fragment its source entry registered.
            unions[k] = union = frags[register]
            indices = range(len(union.values))
            cursors[k] = cursor = iter(reversed(indices) if descending else indices)
        i = next(cursor, -1)
        if i < 0:
            cursors[k] = None
            k -= 1
            continue
        union = unions[k]
        value = union.values[i]
        for slot in slots:
            row[slot] = value
        columns = union.children
        for column, target in children:
            frags[target] = columns[column][i]
        if k == last:
            yield row
        else:
            k += 1


def iter_tuples(
    fact: Factorisation,
    order: Sequence = (),
    limit: int | None = None,
) -> Iterator[tuple]:
    """Enumerate ⟦E⟧, optionally ordered (Theorem 2) and limited (λ_k).

    The output schema is ``fact.schema()``.  With an order list, the
    factorisation must satisfy Theorem 2 — use
    :func:`restructure_for_order` first otherwise.  Without one, the
    rows come in no promised order.
    """
    keys = normalise_order(order)
    if keys and not supports_order(fact.ftree, keys):
        raise EnumerationError(
            f"f-tree does not support constant-delay enumeration in order "
            f"{[str(k) for k in keys]}; restructure first (Theorem 2)"
        )
    schema = fact.schema()
    positions = {name: index for index, name in enumerate(schema)}
    levels, _ = _expansion_order(
        fact.ftree,
        keys,
        lambda node: tuple(positions[name] for name in node.all_names),
    )
    frags = dict(enumerate(fact.roots))
    rows = map(tuple, _walk(levels, frags, [None] * len(schema)))
    return rows if limit is None else islice(rows, limit)


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
    names = list(dict.fromkeys(group))
    positions = {name: index for index, name in enumerate(names)}
    levels, leftovers = _expansion_order(
        fact.ftree,
        keys,
        lambda node: tuple(
            positions[name] for name in node.all_names if name in positions
        ),
        expand=lambda node: not group_set.isdisjoint(node.all_names),
    )
    frags = dict(enumerate(fact.roots))
    for row in _walk(levels, frags, [None] * len(names)):
        yield (
            dict(zip(names, row)),
            [(node, frags[register]) for node, register in leftovers],
        )
