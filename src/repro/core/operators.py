"""F-plan operators: mappings between factorisations (Sections 2.1, 3, 4.2).

Every operator is implemented in two layers:

- a pure *tree-level* transform (``*_tree``) producing the output f-tree,
  used by the optimiser to explore plans without touching data; and
- the full transform on a :class:`repro.core.frep.Factorisation`,
  rebuilding only the affected spine of the representation.  The data
  transforms are batch kernels: they read each :class:`CUnion`'s value
  array and child columns whole, one Python-level pass per union
  rather than one per value.

Operators preserve the two global invariants: values within each union
are sorted ascending, and no entry has an empty child union (∅ absorbs
through products, so emptiness is pruned upward on the spot).

Implemented operators:

====================  =====================================================
``swap``              χ_{A,B}: exchange a node with its parent (Section 4.2)
``merge_siblings``    selection A=B for sibling nodes (sorted intersection)
``absorb``            selection A=B when one node is the other's descendant
``select_constant``   selection Aθc (or exprθc over one path) in one traversal
``remove_leaf``       projection step: drop a leaf node
``rename``            rename an attribute or aggregate (constant time)
``product``           cross product: concatenate forests
``apply_aggregation`` the new γ_F(U) operator of Section 3
====================  =====================================================

Kernel wall time is recorded in the ``repro_kernel_seconds`` histogram
(one label per operator) so the cost is observable in server mode.  An
optional numpy fast path (``REPRO_NUMPY=1``) accelerates sorted
intersection of large numeric value arrays; it is off by default and
every operator is complete without it.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import wraps
from typing import Any, Sequence

from repro.core import aggregates as agg
from repro.core.frep import CUnion, Factorisation, empty_cunion, map_cunion_at
from repro.core.ftree import (
    AggregateAttribute,
    FNode,
    FTree,
    fresh_aggregate_name,
)
from repro.expr import Expr
from repro.obs import clock
from repro.obs.metrics import metrics
from repro.obs.state import STATE
from repro.query import Comparison

#: When True, swap verifies that fragments independent of the swapped
#: node really are identical across contexts (costly; used in tests).
STRICT_SWAP_CHECKS = False

_NUMPY = None
if os.environ.get("REPRO_NUMPY", "").strip().lower() in {"1", "true", "yes", "on"}:
    try:  # pragma: no cover - environment-dependent
        import numpy as _NUMPY  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover
        _NUMPY = None

#: Minimum union length before the numpy intersection path engages
#: (below this the conversion overhead dominates).
_NUMPY_MIN_LENGTH = 64

_KERNEL_SECONDS = metrics().histogram(
    "repro_kernel_seconds",
    "Wall time of one columnar kernel invocation",
    ("kernel",),
)


def _timed(name: str):
    child = _KERNEL_SECONDS.labels(name)

    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not STATE.enabled:
                return fn(*args, **kwargs)
            started = clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                child.observe(clock.now() - started)

        return wrapper

    return decorate


_dep_counter = [0]


def _fresh_dependency_key() -> str:
    _dep_counter[0] += 1
    return f"__dep_{_dep_counter[0]}"


class OperatorError(ValueError):
    """Raised when an operator's applicability conditions fail."""


# ---------------------------------------------------------------------------
# swap χ_{A,B}
# ---------------------------------------------------------------------------
def swap_tree(ftree: FTree, child_name: str) -> FTree:
    """Tree-level effect of χ: promote the named node above its parent.

    Children of the promoted node B that depend on the old parent A stay
    below A (the T_AB of Section 4.2); independent children move up with
    B (T_B).  Dependency keys are untouched — a swap never changes the
    represented relation.
    """
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    if node_a is None:
        raise OperatorError(f"node {child_name!r} is a root; nothing to swap")
    new_b, _, _ = _swapped_nodes(node_a, node_b)
    return ftree.replace_node(node_a.name, lambda _: [new_b])


def _swapped_nodes(
    node_a: FNode, node_b: FNode
) -> tuple[FNode, list[int], list[int]]:
    """New top node plus the T_B / T_AB child index partition of B."""
    j = next(i for i, child in enumerate(node_a.children) if child is node_b)
    tb_idx: list[int] = []
    tab_idx: list[int] = []
    for i, child in enumerate(node_b.children):
        if child.subtree_keys() & node_a.keys:
            tab_idx.append(i)
        else:
            tb_idx.append(i)
    a_rest = [child for i, child in enumerate(node_a.children) if i != j]
    new_a = node_a.with_children(
        a_rest + [node_b.children[i] for i in tab_idx]
    )
    new_b = node_b.with_children([node_b.children[i] for i in tb_idx] + [new_a])
    return new_b, tb_idx, tab_idx


@_timed("swap")
def swap(fact: Factorisation, child_name: str) -> Factorisation:
    """χ_{A,B} on a factorisation: regroup by B before A (Section 4.2).

    Linear in the size of the affected fragments: each (a, b) pair is
    visited once; the union over B is assembled sorted.
    """
    ftree = fact.ftree
    node_b = ftree.node(child_name)
    node_a = ftree.parent(node_b)
    if node_a is None:
        raise OperatorError(f"node {child_name!r} is a root; nothing to swap")
    j = next(i for i, child in enumerate(node_a.children) if child is node_b)
    new_b, tb_idx, tab_idx = _swapped_nodes(node_a, node_b)
    new_ftree = ftree.replace_node(node_a.name, lambda _: [new_b])

    rest_idx = [i for i in range(len(node_a.children)) if i != j]
    strict = STRICT_SWAP_CHECKS

    if not tb_idx and not tab_idx and not rest_idx:
        # Pure two-level inversion: A has no other children and B keeps
        # nothing above or below, so the pivot is b -> [a, ...] with no
        # per-pair bookkeeping.  Ascending a-iteration keeps each
        # regrouped union sorted without a per-union sort.
        def invert(_: FNode, union_a: CUnion) -> CUnion:
            b_col = union_a.children[j]
            collected: dict[Any, list] = {}
            collected_get = collected.get
            for ai, a_value in enumerate(union_a.values):  # repro: allow[kernel-scalar-loop] -- regrouping pivot: each (a, b) pair moves once
                for b_value in b_col[ai].values:  # repro: allow[kernel-scalar-loop] -- see above
                    got = collected_get(b_value)
                    if got is None:
                        collected[b_value] = [a_value]
                    else:
                        got.append(a_value)
            values = sorted(collected)
            return CUnion(
                values, ([CUnion(collected[v], ()) for v in values],)
            )

        root_index, steps = ftree.path_to(node_a.name)
        return map_cunion_at(fact, root_index, steps, invert, new_ftree)

    def transform(_: FNode, union_a: CUnion) -> CUnion:
        a_values = union_a.values
        a_cols = union_a.children
        b_col = a_cols[j]
        # b_value -> (T_B fragments, [(a_value, ai, b_cols, bi), ...]);
        # the pivot records each (a, b) pair once, and the under-union
        # columns are materialised per b-value with one comprehension
        # per column instead of per-pair appends.
        collected: dict[Any, tuple] = {}
        collected_get = collected.get
        for ai, a_value in enumerate(a_values):  # repro: allow[kernel-scalar-loop] -- regrouping pivot: each (a, b) pair moves once
            b_union = b_col[ai]
            b_cols = b_union.children
            for bi, b_value in enumerate(b_union.values):  # repro: allow[kernel-scalar-loop] -- see above
                record = collected_get(b_value)
                if record is None:
                    collected[b_value] = (
                        [b_cols[i][bi] for i in tb_idx],
                        [(a_value, ai, b_cols, bi)],
                    )
                    continue
                if strict:
                    _check_independent_fragments(
                        record[0], [b_cols[i][bi] for i in tb_idx]
                    )
                record[1].append((a_value, ai, b_cols, bi))
        values = sorted(collected)
        tb_out = tuple(
            [collected[value][0][t] for value in values]
            for t in range(len(tb_idx))
        )
        under_col = []
        for value in values:  # repro: allow[kernel-scalar-loop] -- one union object built per b-value
            pairs = collected[value][1]
            under_cols = [
                [a_cols[i][p[1]] for p in pairs] for i in rest_idx
            ] + [[p[2][i][p[3]] for p in pairs] for i in tab_idx]
            under_col.append(
                CUnion([p[0] for p in pairs], tuple(under_cols))
            )
        return CUnion(values, tb_out + (under_col,))

    root_index, steps = ftree.path_to(node_a.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def _check_independent_fragments(first: list, second: list) -> None:
    """Debug check: T_B fragments must match across co-occurring A values."""
    if _fragments_signature(first) != _fragments_signature(second):
        raise OperatorError(
            "swap invariant violated: fragments declared independent of the "
            "old parent differ across its values (path constraint broken?)"
        )


def _fragments_signature(fragments: Sequence[CUnion]) -> tuple:
    def sig(union: CUnion) -> tuple:
        return (
            tuple(union.values),
            tuple(tuple(sig(sub) for sub in col) for col in union.children),
        )

    return tuple(sig(union) for union in fragments)


# ---------------------------------------------------------------------------
# merge (selection A=B on sibling nodes)
# ---------------------------------------------------------------------------
def merge_tree(ftree: FTree, name_a: str, name_b: str) -> FTree:
    """Tree-level merge: one node with the united class, keys, children."""
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    _require_siblings(ftree, node_a, node_b)
    merged = _merged_node(node_a, node_b)
    without_b = ftree.replace_node(node_b.name, lambda _: [])
    return without_b.replace_node(node_a.name, lambda _: [merged])


def _require_siblings(ftree: FTree, node_a: FNode, node_b: FNode) -> None:
    if node_a is node_b:
        raise OperatorError("cannot merge a node with itself")
    if ftree.parent(node_a) is not ftree.parent(node_b):
        raise OperatorError(
            f"merge requires sibling nodes; {node_a.label()!r} and "
            f"{node_b.label()!r} have different parents"
        )


def _merged_node(node_a: FNode, node_b: FNode) -> FNode:
    if node_a.is_aggregate or node_b.is_aggregate:
        raise OperatorError("cannot merge aggregate nodes")
    return FNode(
        node_a.attributes + node_b.attributes,
        node_a.children + node_b.children,
        node_a.keys | node_b.keys,
    )


def _intersect_unions(left: CUnion, right: CUnion) -> CUnion:
    """Sorted intersection; matched entries concatenate child columns."""
    left_values = left.values
    right_values = right.values
    if (
        _NUMPY is not None
        and len(left_values) >= _NUMPY_MIN_LENGTH
        and len(right_values) >= _NUMPY_MIN_LENGTH
    ):
        fast = _numpy_intersect(left_values, right_values)
        if fast is not None:
            values, keep_left, keep_right = fast
            return CUnion(
                values,
                tuple([col[i] for i in keep_left] for col in left.children)
                + tuple([col[i] for i in keep_right] for col in right.children),
            )
    values = []
    keep_left: list[int] = []
    keep_right: list[int] = []
    i = j = 0
    end_left = len(left_values)
    end_right = len(right_values)
    while i < end_left and j < end_right:
        lv = left_values[i]
        rv = right_values[j]
        if lv < rv:
            i += 1
        elif rv < lv:
            j += 1
        else:
            values.append(lv)
            keep_left.append(i)
            keep_right.append(j)
            i += 1
            j += 1
    return CUnion(
        values,
        tuple([col[i] for i in keep_left] for col in left.children)
        + tuple([col[j] for j in keep_right] for col in right.children),
    )


def _numpy_intersect(left_values: list, right_values: list):
    """np.intersect1d over numeric arrays; None when not applicable."""
    try:
        left_arr = _NUMPY.asarray(left_values)
        right_arr = _NUMPY.asarray(right_values)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return None
    if left_arr.dtype == object or right_arr.dtype == object:
        return None
    values, keep_left, keep_right = _NUMPY.intersect1d(
        left_arr, right_arr, assume_unique=True, return_indices=True
    )
    # Back to plain Python objects: numpy scalars must never leak into
    # value arrays (they are not JSON-serialisable and surprise pickles).
    return values.tolist(), keep_left.tolist(), keep_right.tolist()


@_timed("merge")
def merge_siblings(fact: Factorisation, name_a: str, name_b: str) -> Factorisation:
    """σ_{A=B} for siblings: intersect the two sorted unions (linear)."""
    ftree = fact.ftree
    node_a, node_b = ftree.node(name_a), ftree.node(name_b)
    _require_siblings(ftree, node_a, node_b)
    parent = ftree.parent(node_a)
    new_ftree = merge_tree(ftree, name_a, name_b)

    if parent is None:
        ia = next(i for i, n in enumerate(ftree.roots) if n is node_a)
        ib = next(i for i, n in enumerate(ftree.roots) if n is node_b)
        merged = _intersect_unions(fact.roots[ia], fact.roots[ib])
        roots = _reposition_roots(fact.roots, ia, ib, merged)
        return Factorisation(new_ftree, roots)

    ia = next(i for i, n in enumerate(parent.children) if n is node_a)
    ib = next(i for i, n in enumerate(parent.children) if n is node_b)
    slot = _merged_slot(ia, ib)

    def transform(_: FNode, union: CUnion) -> CUnion:
        values = union.values
        cols = union.children
        col_a = cols[ia]
        col_b = cols[ib]
        merged_col: list[CUnion] = []
        keep: list[int] = []
        for i in range(len(values)):
            merged = _intersect_unions(col_a[i], col_b[i])
            if not merged.values:
                continue  # the selection empties this context: prune
            keep.append(i)
            merged_col.append(merged)
        rest = [c for c in range(len(cols)) if c != ia and c != ib]
        out_cols = [[cols[c][i] for i in keep] for c in rest]
        out_cols.insert(slot, merged_col)
        return CUnion([values[i] for i in keep], tuple(out_cols))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


def _merged_slot(ia: int, ib: int) -> int:
    """Slot of the merged child after removing both originals.

    ``replace_node`` keeps the merged node in A's position, minus one if
    B preceded A in the child list.
    """
    return ia - 1 if ib < ia else ia


def _reposition_roots(
    roots: Sequence[CUnion], ia: int, ib: int, merged: CUnion
) -> list[CUnion]:
    remaining = [u for i, u in enumerate(roots) if i != ia and i != ib]
    remaining.insert(_merged_slot(ia, ib), merged)
    return remaining


# ---------------------------------------------------------------------------
# absorb (selection A=B when one node is the other's descendant)
# ---------------------------------------------------------------------------
def absorb_tree(ftree: FTree, ancestor_name: str, descendant_name: str) -> FTree:
    """Tree-level absorb: the descendant's class joins the ancestor's."""
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    if not ftree.is_ancestor(node_anc, node_desc):
        raise OperatorError(
            f"{ancestor_name!r} is not an ancestor of {descendant_name!r}"
        )
    if node_anc.is_aggregate or node_desc.is_aggregate:
        raise OperatorError("cannot absorb aggregate nodes")
    hoisted = ftree.replace_node(
        node_desc.name, lambda node: list(node.children)
    )
    merged = FNode(
        node_anc.attributes + node_desc.attributes,
        hoisted.node(node_anc.name).children,
        node_anc.keys | node_desc.keys,
    )
    return hoisted.replace_node(node_anc.name, lambda _: [merged])


@_timed("absorb")
def absorb(
    fact: Factorisation, ancestor_name: str, descendant_name: str
) -> Factorisation:
    """σ_{A=B} with B below A: filter B's unions to A's context value.

    For every value ``a`` of the ancestor, the descendant union in each
    context below it is filtered to the single entry with value ``a``
    (binary search in the sorted value array) and its child columns are
    spliced in place; contexts with no match are pruned.
    """
    ftree = fact.ftree
    node_anc = ftree.node(ancestor_name)
    node_desc = ftree.node(descendant_name)
    if not ftree.is_ancestor(node_anc, node_desc):
        raise OperatorError(
            f"{ancestor_name!r} is not an ancestor of {descendant_name!r}"
        )
    new_ftree = absorb_tree(ftree, ancestor_name, descendant_name)

    spine = [node_desc]
    current = ftree.parent(node_desc)
    while current is not node_anc:
        spine.append(current)
        current = ftree.parent(current)
    spine.append(node_anc)
    spine.reverse()  # ancestor ... descendant
    rel_steps = [
        next(i for i, child in enumerate(upper.children) if child is lower)
        for upper, lower in zip(spine, spine[1:])
    ]
    direct = len(rel_steps) == 1
    out_arity = (
        len(node_anc.children) - 1 + len(node_desc.children)
        if direct
        else len(node_anc.children)
    )

    def filter_union(node: FNode, union: CUnion, steps: Sequence[int], value: Any) -> CUnion:
        """Keep entries whose descendant (at ``steps``) holds ``value``."""
        step = steps[0]
        cols = union.children
        col = cols[step]
        if len(steps) == 1:
            k_desc = len(node.children[step].children)
            matched_cols: list[list[CUnion]] = [[] for _ in range(k_desc)]
            keep: list[int] = []
            for i, sub in enumerate(col):
                sub_values = sub.values
                index = bisect_left(sub_values, value)
                if index == len(sub_values) or sub_values[index] != value:
                    continue
                keep.append(i)
                for c in range(k_desc):
                    matched_cols[c].append(sub.children[c][index])
            out_cols: list[list[CUnion]] = []
            for c in range(len(cols)):
                if c == step:
                    out_cols.extend(matched_cols)
                else:
                    out_cols.append([cols[c][i] for i in keep])
            return CUnion([union.values[i] for i in keep], tuple(out_cols))
        new_col: list[CUnion] = []
        keep = []
        for i, sub in enumerate(col):
            filtered = filter_union(node.children[step], sub, steps[1:], value)
            if not filtered.values:
                continue
            keep.append(i)
            new_col.append(filtered)
        return CUnion(
            [union.values[i] for i in keep],
            tuple(
                new_col if c == step else [cols[c][i] for i in keep]
                for c in range(len(cols))
            ),
        )

    def transform(node: FNode, union: CUnion) -> CUnion:
        values = union.values
        cols = union.children
        step = rel_steps[0]
        keep: list[int] = []
        entry_children: list[tuple] = []
        for i, value in enumerate(values):  # repro: allow[kernel-scalar-loop] -- each context filters by its own value
            sub = cols[step][i]
            if direct:
                sub_values = sub.values
                index = bisect_left(sub_values, value)
                if index == len(sub_values) or sub_values[index] != value:
                    continue
                matched = tuple(col[index] for col in sub.children)
                children = (
                    tuple(cols[c][i] for c in range(step))
                    + matched
                    + tuple(cols[c][i] for c in range(step + 1, len(cols)))
                )
            else:
                filtered = filter_union(
                    node.children[step], sub, rel_steps[1:], value
                )
                if not filtered.values:
                    continue
                children = tuple(
                    cols[c][i] if c != step else filtered
                    for c in range(len(cols))
                )
            keep.append(i)
            entry_children.append(children)
        out_cols = tuple(
            [entry[c] for entry in entry_children] for c in range(out_arity)
        )
        if not entry_children:
            out_cols = tuple([] for _ in range(out_arity))
        return CUnion([values[i] for i in keep], out_cols)

    root_index, steps = ftree.path_to(node_anc.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# constant selection
# ---------------------------------------------------------------------------
@_timed("select")
def select_constant(fact: Factorisation, condition: Comparison) -> Factorisation:
    """σ_{φθC}: one filter pass over the unions of one node.

    An attribute condition AθC tests the value array of A's unions.  An
    expression condition (``price * qty > 100``) filters the unions of
    the deepest node its attributes reach (:func:`selection_node`); the
    ancestors' values are bound by the same traversal that reaches those
    unions, so each entry is tested once, in its own context.  Entries
    whose fragments become empty are pruned upward.
    """
    ftree = fact.ftree
    node = selection_node(ftree, condition)
    test = condition.test
    expression = condition.attribute if condition.is_expression else None
    component: int | None = None
    own: list[str] = []  # expression attributes held by ``node``
    bound: list[tuple[str, int]] = []  # (attribute, ancestor depth)
    if expression is not None:
        spine = [id(n) for n in reversed(ftree.ancestors(node))]
        for name in expression.attributes():
            holder = ftree.node(name)
            if holder.is_aggregate:
                raise OperatorError(
                    f"selection {condition} reads aggregate {name!r}"
                )
            if holder is node:
                own.append(name)
            else:
                bound.append((name, spine.index(id(holder))))
    elif node.is_aggregate:
        component = _scalar_component(node.aggregate)

    def transform(_: FNode, union: CUnion, path: tuple = ()) -> CUnion:
        values = union.values
        if expression is not None:
            binding = {name: path[depth] for name, depth in bound}
            keep = []
            for i, value in enumerate(values):  # repro: allow[kernel-scalar-loop] -- each entry binds its own value into the expression
                for name in own:
                    binding[name] = value
                if test(expression.evaluate(binding)):
                    keep.append(i)
        elif component is None:
            keep = [i for i, value in enumerate(values) if test(value)]
        else:
            keep = [
                i for i, value in enumerate(values) if test(value[component])
            ]
        if len(keep) == len(values):
            return union  # nothing filtered: share the fragment unchanged
        return CUnion(
            [values[i] for i in keep],
            tuple([col[i] for i in keep] for col in union.children),
        )

    root_index, steps = ftree.path_to(node.name)
    return map_cunion_at(
        fact, root_index, steps, transform, ftree, with_path=bool(bound)
    )


def selection_node(ftree: FTree, condition: Comparison) -> FNode:
    """The node whose unions :func:`select_constant` filters.

    An attribute condition filters at its attribute's node, an
    expression condition at the deepest node of its attributes, which
    must all lie on one root-to-leaf path (an attribute-free expression
    filters at the first root).
    """
    if not condition.is_expression:
        return ftree.node(condition.attribute)
    names = condition.attributes
    if not names:
        return ftree.roots[0]
    node = ftree.path_node(names)
    if node is None:
        raise OperatorError(
            f"selection {condition}: attributes {', '.join(names)} do not "
            "lie on one root-to-leaf path of the f-tree"
        )
    return node


def _scalar_component(aggregate: AggregateAttribute) -> int:
    if len(aggregate.functions) != 1:
        raise OperatorError(
            f"selection on composite aggregate {aggregate} is ambiguous"
        )
    return 0


# ---------------------------------------------------------------------------
# projection: remove a leaf
# ---------------------------------------------------------------------------
def remove_leaf_tree(ftree: FTree, name: str) -> FTree:
    """Drop a leaf node; dependents of it become mutually dependent."""
    node = ftree.node(name)
    if node.children:
        raise OperatorError(f"node {name!r} is not a leaf")
    if sum(len(list(root.walk())) for root in ftree.roots) == 1:
        raise OperatorError("cannot remove the only node of an f-tree")
    removed_keys = node.keys
    pruned = ftree.replace_node(name, lambda _: [])
    dependents = {
        n.name for n in pruned.nodes() if n.keys & removed_keys
    }
    if len(dependents) <= 1:
        return pruned
    fresh = _fresh_dependency_key()
    return pruned.map_nodes(
        lambda n: n.with_keys(n.keys | {fresh}) if n.name in dependents else n
    )


@_timed("remove_leaf")
def remove_leaf(fact: Factorisation, name: str) -> Factorisation:
    """Projection step: drop a leaf's column everywhere it occurs.

    No duplicate elimination is ever needed: distinct sibling structure
    is untouched, so the remaining representation stays a set.
    """
    ftree = fact.ftree
    node = ftree.node(name)
    if node.children:
        raise OperatorError(f"node {name!r} is not a leaf")
    new_ftree = remove_leaf_tree(ftree, name)
    parent = ftree.parent(node)

    if parent is None:
        index = next(i for i, n in enumerate(ftree.roots) if n is node)
        if not fact.roots[index]:
            # Removing an empty root would silently turn ∅ into non-empty.
            raise OperatorError(
                "cannot project away the only empty fragment of ∅"
            )
        roots = [u for i, u in enumerate(fact.roots) if i != index]
        return Factorisation(new_ftree, roots)

    index = next(i for i, n in enumerate(parent.children) if n is node)

    def transform(_: FNode, union: CUnion) -> CUnion:
        cols = union.children
        return CUnion(union.values, cols[:index] + cols[index + 1 :])

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# projection: drop one attribute of an equivalence class
# ---------------------------------------------------------------------------
def remove_class_attribute(fact: Factorisation, attribute: str) -> Factorisation:
    """Drop an attribute from a multi-attribute class (fragments untouched).

    After a selection A=B merged two nodes, projecting away one of the
    equal attributes only changes the label — every singleton already
    carries the shared value for the remaining attribute.
    """
    node = fact.ftree.node(attribute)
    if node.is_aggregate:
        raise OperatorError("aggregate attributes are removed via projection")
    if len(node.attributes) < 2:
        raise OperatorError(
            f"{attribute!r} is the only attribute of its node; "
            "use remove_leaf instead"
        )

    def relabel(current: FNode) -> FNode:
        if attribute not in current.attributes:
            return current
        return current.with_attributes(
            tuple(a for a in current.attributes if a != attribute)
        )

    return Factorisation(fact.ftree.map_nodes(relabel), fact.roots)


# ---------------------------------------------------------------------------
# rename
# ---------------------------------------------------------------------------
def rename(fact: Factorisation, old: str, new: str) -> Factorisation:
    """Rename an attribute (constant time: names live in the f-tree)."""
    if new in fact.ftree:
        raise OperatorError(f"attribute {new!r} already exists")
    node = fact.ftree.node(old)

    def relabel(current: FNode) -> FNode:
        if current.name != node.name and old not in current.attributes:
            return current
        if current.aggregate is not None:
            aggregate = AggregateAttribute(
                current.aggregate.functions, current.aggregate.over, new
            )
            return FNode(aggregate, current.children, current.keys)
        attributes = tuple(new if a == old else a for a in current.attributes)
        return current.with_attributes(attributes)

    return Factorisation(fact.ftree.map_nodes(relabel), fact.roots)


# ---------------------------------------------------------------------------
# nesting independent fragments (group-path linearisation)
# ---------------------------------------------------------------------------
@_timed("nest")
def nest_under(fact: Factorisation, name: str, target_sibling: str) -> Factorisation:
    """Move a subtree below an *independent sibling* subtree.

    Valid because distinct children of one node are conditionally
    independent: the moved fragment is simply shared (by reference)
    under every value of the new parent, so the represented relation is
    unchanged while the f-tree becomes more deeply nested.  Used to
    linearise branching group-by regions into a path, which the result
    factorisation of an aggregate query requires (the aggregate value
    depends on every group attribute).
    """
    ftree = fact.ftree
    node = ftree.node(name)
    target = ftree.node(target_sibling)
    parent = ftree.parent(node)
    if parent is None or ftree.parent(target) is not parent:
        raise OperatorError(
            f"{name!r} and {target_sibling!r} must be siblings to nest"
        )
    s_idx = next(i for i, c in enumerate(parent.children) if c is node)
    t_idx = next(i for i, c in enumerate(parent.children) if c is target)

    new_target = target.with_children(tuple(target.children) + (node,))
    new_children = [
        (new_target if i == t_idx else c)
        for i, c in enumerate(parent.children)
        if i != s_idx
    ]
    new_parent = parent.with_children(new_children)
    new_ftree = ftree.replace_node(parent.name, lambda _: [new_parent])

    new_t_slot = t_idx - 1 if s_idx < t_idx else t_idx

    def transform(_: FNode, union: CUnion) -> CUnion:
        cols = union.children
        moved_col = cols[s_idx]
        rest = [cols[c] for c in range(len(cols)) if c != s_idx]
        target_col = rest[new_t_slot]
        rest[new_t_slot] = [
            CUnion(
                t.values,
                t.children + ([moved_col[i]] * len(t.values),),
            )
            for i, t in enumerate(target_col)
        ]
        return CUnion(union.values, tuple(rest))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)


@_timed("nest")
def nest_root_under(fact: Factorisation, root_name: str, target: str) -> Factorisation:
    """Move a whole root tree below an arbitrary node of another tree.

    Roots of a forest are independent of everything else, so the moved
    fragment is context-free and can be shared under every value of the
    target node.
    """
    ftree = fact.ftree
    node = ftree.node(root_name)
    if ftree.parent(node) is not None:
        raise OperatorError(f"{root_name!r} is not a root")
    target_node = ftree.node(target)
    if target_node is node or ftree.is_ancestor(node, target_node):
        raise OperatorError("cannot nest a tree under its own subtree")
    r_idx = next(i for i, r in enumerate(ftree.roots) if r is node)
    moved_union = fact.roots[r_idx]

    new_target = target_node.with_children(
        tuple(target_node.children) + (node,)
    )
    pruned_roots = [r for i, r in enumerate(ftree.roots) if i != r_idx]
    pruned_fact_roots = [u for i, u in enumerate(fact.roots) if i != r_idx]
    pruned_tree = FTree(pruned_roots)
    new_ftree = pruned_tree.replace_node(target, lambda _: [new_target])

    def transform(_: FNode, union: CUnion) -> CUnion:
        return CUnion(
            union.values,
            union.children + ([moved_union] * len(union.values),),
        )

    pruned = Factorisation(pruned_tree, pruned_fact_roots)
    root_index, steps = pruned_tree.path_to(target)
    return map_cunion_at(pruned, root_index, steps, transform, new_ftree)


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------
def product(left: Factorisation, right: Factorisation) -> Factorisation:
    """E1 × E2: concatenate the forests (disjoint attribute names)."""
    ftree = FTree(left.ftree.roots + right.ftree.roots)
    return Factorisation(ftree, left.roots + right.roots)


# ---------------------------------------------------------------------------
# the γ aggregation operator (Section 3)
# ---------------------------------------------------------------------------
def aggregate_tree(
    ftree: FTree,
    parent_name: str | None,
    child_names: Sequence[str],
    functions: Sequence[tuple[str, str | None]],
    name: str | None = None,
) -> tuple[FTree, str]:
    """Tree-level γ_F(U): replace sibling subtrees U with one node F(U).

    Returns the new tree and the new node's name.  Dependency handling
    per Section 3: every remaining node that depended on a node of U
    receives a fresh shared key, which the new aggregate node also
    carries (it depends on each of them, and they on each other).
    """
    parent, indices = _resolve_subtrees(ftree, parent_name, child_names)
    subtrees = (
        [ftree.roots[i] for i in indices]
        if parent is None
        else [parent.children[i] for i in indices]
    )
    over: set[str] = set()
    removed_keys: set[str] = set()
    for subtree in subtrees:
        over |= subtree.subtree_atomic_attributes()
        removed_keys |= subtree.subtree_keys()
        for node in subtree.walk():
            if node.aggregate is not None:
                over |= set(node.aggregate.over)
    agg_name = name or fresh_aggregate_name()
    attribute = AggregateAttribute(tuple(functions), frozenset(over), agg_name)

    removed_names = set()
    for subtree in subtrees:
        removed_names |= subtree.subtree_names()
    dependents = {
        n.name
        for n in ftree.nodes()
        if n.name not in removed_names and (n.keys & removed_keys)
    }
    fresh = _fresh_dependency_key()
    new_node = FNode(attribute, (), {fresh})

    slot = indices[0]
    if parent is None:
        roots = [r for i, r in enumerate(ftree.roots) if i not in indices]
        roots.insert(_collapsed_slot(slot, indices), new_node)
        new_ftree = FTree(roots)
    else:
        children = [
            c for i, c in enumerate(parent.children) if i not in indices
        ]
        children.insert(_collapsed_slot(slot, indices), new_node)
        new_parent = parent.with_children(children)
        new_ftree = ftree.replace_node(parent.name, lambda _: [new_parent])
    if dependents:
        new_ftree = new_ftree.map_nodes(
            lambda n: n.with_keys(n.keys | {fresh})
            if n.name in dependents
            else n
        )
    return new_ftree, agg_name


def _collapsed_slot(first: int, indices: Sequence[int]) -> int:
    """Slot of the new node once the selected children are removed."""
    return first - sum(1 for i in indices if i < first)


def _resolve_subtrees(
    ftree: FTree, parent_name: str | None, child_names: Sequence[str]
) -> tuple[FNode | None, list[int]]:
    if not child_names:
        raise OperatorError("γ needs at least one subtree to aggregate")
    if parent_name is None:
        nodes = [ftree.node(name) for name in child_names]
        indices = []
        for node in nodes:
            matches = [i for i, root in enumerate(ftree.roots) if root is node]
            if not matches:
                raise OperatorError(
                    f"node {node.label()!r} is not a root of the f-tree"
                )
            indices.append(matches[0])
        return None, sorted(indices)
    parent = ftree.node(parent_name)
    indices = []
    for child_name in child_names:
        child = ftree.node(child_name)
        matches = [i for i, c in enumerate(parent.children) if c is child]
        if not matches:
            raise OperatorError(
                f"{child_name!r} is not a child of {parent_name!r}"
            )
        indices.append(matches[0])
    return parent, sorted(indices)


@_timed("aggregate")
def apply_aggregation(
    fact: Factorisation,
    parent_name: str | None,
    child_names: Sequence[str],
    functions: Sequence[tuple[str, "str | Expr | None"]],
    name: str | None = None,
) -> Factorisation:
    """γ_F(U): replace each expression over U with ⟨F(U): v⟩ (Section 3.2).

    The value ``v`` is computed by the linear-time recursive algorithms
    in :mod:`repro.core.aggregates`, once per context of U's parent, as
    a batch fold: the carrier is located once per union and the
    per-child count arrays are computed once and shared between the
    count and sum components.  γ of the empty relation is the empty
    pre-aggregated relation, and a context holding zero tuples of U is
    pruned (SQL drops empty groups).
    """
    ftree = fact.ftree
    parent, indices = _resolve_subtrees(ftree, parent_name, child_names)
    new_ftree, agg_name = aggregate_tree(
        ftree, parent_name, child_names, functions, name
    )
    index_set = set(indices)
    functions = tuple(functions)
    slot = _collapsed_slot(indices[0], indices)

    if parent is None:
        items = [(ftree.roots[i], fact.roots[i]) for i in indices]
        roots = [u for i, u in enumerate(fact.roots) if i not in index_set]
        if agg.forest_is_empty(items):
            union = empty_cunion(0)
        else:
            union = CUnion([agg.evaluate_components(functions, items)], ())
        roots.insert(slot, union)
        return Factorisation(new_ftree, roots)

    child_nodes = [parent.children[i] for i in indices]
    scalar_fallback = any(
        isinstance(attribute, Expr) for _, attribute in functions
    )
    # One shared-fragment cache for the whole operator application:
    # restructured factorisations share subtrees across parent entries.
    memo: dict = {}

    def transform(_: FNode, union: CUnion) -> CUnion:
        values = union.values
        cols = union.children
        agg_cols = [cols[i] for i in indices]
        # Emptiness mask first: dropped contexts must never be evaluated
        # (extrema over ∅ raise; SQL drops empty groups).  Computed per
        # column so leaf and aggregate-leaf children fuse; when no entry
        # is dropped the input columns are reused without copying.
        dead = None
        for node, col in zip(child_nodes, agg_cols):
            mask = agg.empty_column(node, col, memo)
            dead = mask if dead is None else [d or m for d, m in zip(dead, mask)]
        if dead is not None and any(dead):
            keep = [i for i, d in enumerate(dead) if not d]
            values = [values[i] for i in keep]
            agg_cols = [[col[i] for i in keep] for col in agg_cols]
        else:
            keep = None
        if scalar_fallback:
            agg_values = [
                agg.evaluate_components(  # repro: allow[kernel-scalar-loop] -- expression aggregates stay per-entry
                    functions,
                    [
                        (node, col[i])
                        for node, col in zip(child_nodes, agg_cols)
                    ],
                )
                for i in range(len(values))
            ]
        else:
            agg_values = agg.batch_components(
                functions, child_nodes, agg_cols, len(values), memo
            )
        agg_col = [CUnion([value], ()) for value in agg_values]
        if keep is None:
            out_cols = [cols[c] for c in range(len(cols)) if c not in index_set]
        else:
            out_cols = [
                [cols[c][i] for i in keep]
                for c in range(len(cols))
                if c not in index_set
            ]
        out_cols.insert(slot, agg_col)
        return CUnion(values, tuple(out_cols))

    root_index, steps = ftree.path_to(parent.name)
    return map_cunion_at(fact, root_index, steps, transform, new_ftree)
