"""Computation trees grown one (node, joint action) extension at a time.

Nodes are identified structurally by the sequence of edge labels from
the root, so a node id is a tuple of joint actions and the tree is a
mapping from node ids to state labels.  This gives canonical equality:
two trees built by the same extensions in any order are equal values.

Levels can be ordered left-to-right.  The ordering is generated by two
rules: nodes carrying a designated "rightmost" label sort after every
other node of their level, and order is inherited from ancestors.  On
levels where the rules leave nodes incomparable (or force a cycle) the
ordering query raises instead of inventing a tie-break.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Iterable, Mapping

from .cgs import Cgs, History, JointAction, successor
from .strategies import TeamStrategy, compatible_in_order, compatible_tuples

NodeId = tuple[JointAction, ...]


class TreeError(Exception):
    pass


class DuplicateAction(TreeError):
    pass


class IncompatibleAction(TreeError):
    pass


class UndefinedSuccessor(TreeError):
    pass


class OrderingNotTotal(TreeError):
    pass


class ComputationTree:
    """An immutable rooted tree of states with joint-action edge labels."""

    def __init__(self, root_label: str, labels: Mapping[NodeId, str] | None = None):
        lab = {(): root_label}
        if labels:
            lab.update(labels)
            lab[()] = root_label
        for v in lab:
            if v and v[:-1] not in lab:
                raise TreeError(f"node {v!r} has no parent in the tree")
        by_depth: dict[int, list[NodeId]] = {}
        for v in sorted(lab):
            by_depth.setdefault(len(v), []).append(v)
        self._index(lab, by_depth)

    @classmethod
    def _from_levels(
        cls, labels: dict[NodeId, str], levels: list[list[NodeId]]
    ) -> ComputationTree:
        """The tree of ``labels``, whose levels 0, 1, .. are ``levels``, each
        already in sorted order and none empty."""
        t = cls.__new__(cls)
        t._index(labels, dict(enumerate(levels)))
        return t

    def _index(self, labels: dict[NodeId, str], by_depth: dict[int, list[NodeId]]) -> None:
        self._labels = labels
        self._by_depth = by_depth
        self._children: dict[NodeId, list[NodeId]] = {v: [] for v in labels}
        # levels are sorted, so each child list comes out sorted
        for n in range(1, len(by_depth)):
            for v in by_depth[n]:
                self._children[v[:-1]].append(v)
        # per last_labels: the bit rows of levels 0, 1, .. (see _level_relation)
        self._order_cache: dict[frozenset[str], list[list[int]]] = {}

    @property
    def root_label(self) -> str:
        return self._labels[()]

    @property
    def max_depth(self) -> int:
        return max(self._by_depth)

    def nodes(self) -> Iterable[NodeId]:
        return self._labels.keys()

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, v: NodeId) -> bool:
        return tuple(v) in self._labels

    def label(self, v: NodeId) -> str:
        try:
            return self._labels[tuple(v)]
        except KeyError:
            raise TreeError(f"node {v!r} not in the tree") from None

    def labels(self) -> Mapping[NodeId, str]:
        return dict(self._labels)

    def children(self, v: NodeId) -> list[NodeId]:
        return list(self._children.get(tuple(v), ()))

    def nodes_at_depth(self, n: int) -> list[NodeId]:
        return list(self._by_depth.get(n, ()))

    def history(self, v: NodeId) -> History:
        """State labels along the path from the root to ``v``, inclusive."""
        v = tuple(v)
        return tuple(self._labels[v[:k]] for k in range(len(v) + 1))

    def __eq__(self, other):
        if not isinstance(other, ComputationTree):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self):
        return f"ComputationTree({self.root_label!r}, {len(self._labels)} nodes)"


def single_node(s: str) -> ComputationTree:
    return ComputationTree(s)


def extend(
    g: Cgs, team: TeamStrategy, t: ComputationTree, v: NodeId, a: JointAction
) -> ComputationTree:
    """One extension step: add the ``a``-successor of node ``v``.

    The action must be compatible with the team strategy on the path to
    ``v``, must lead somewhere, and must not duplicate an existing edge
    label at ``v``.
    """
    v = tuple(v)
    a = tuple(a)
    if v not in t:
        raise TreeError(f"node {v!r} not in the tree")
    child = v + (a,)
    if child in t:
        raise DuplicateAction(f"node {v!r} already has an edge labeled {a!r}")
    h = t.history(v)
    if a not in compatible_tuples(g, team, h):
        raise IncompatibleAction(f"{a!r} is not compatible with the team strategy at {v!r}")
    s2 = successor(g, t.label(v), a)
    if s2 is None:
        raise UndefinedSuccessor(f"no transition from {t.label(v)!r} under {a!r}")
    labels = t.labels()
    labels[child] = s2
    return ComputationTree(t.root_label, labels)


def saturate(g: Cgs, s: str, team: TeamStrategy, depth: int) -> ComputationTree:
    """The maximal tree of extension steps with paths of at most depth+1 nodes.

    Extensions at distinct (node, action) pairs commute, so the result
    does not depend on the order in which they are applied.

    The joint actions at a node are those of :func:`compatible_tuples`:
    each member's choice on the node's history, every available action
    of the others.  They are generated in sorted order, so each level
    comes out sorted and is handed to the tree as its depth index.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    g.check_state(s)
    labels: dict[NodeId, str] = {(): s}
    levels: list[list[NodeId]] = [[()]]
    frontier: list[tuple[NodeId, History]] = [((), (s,))]
    for _ in range(depth):
        nxt: list[tuple[NodeId, History]] = []
        for v, h in frontier:
            last = h[-1]
            for a in compatible_in_order(g, team, h):
                s2 = g.delta.get((last, a))
                if s2 is None:
                    continue
                child = v + (a,)
                labels[child] = s2
                nxt.append((child, h + (s2,)))
        if not nxt:
            break
        levels.append([v for v, _ in nxt])
        frontier = nxt
    return ComputationTree._from_levels(labels, levels)


def is_complete_level(t: ComputationTree, n: int) -> bool:
    """Whether level ``n`` holds the maximum of n+1 nodes."""
    if n < 0:
        raise ValueError("level index must be non-negative")
    return len(t.nodes_at_depth(n)) == n + 1


def _level_relation(
    t: ComputationTree, last_labels: frozenset[str], n: int
) -> list[int]:
    """The left-of relation on level ``n``, closed under transitivity.

    Row ``i`` is a bitset over the level's nodes (in ``nodes_at_depth``
    order): bit ``j`` is set when node ``i`` precedes node ``j``.  Each
    level is built once per ``last_labels`` from the level above and
    cached on the tree.  Base edges: every node precedes each other node
    whose label is in ``last_labels``, and a node whose parent precedes
    a different parent precedes all of that parent's children.
    """
    rels = t._order_cache.setdefault(last_labels, [[0]])
    for k in range(len(rels), n + 1):
        above = t._by_depth[k - 1]
        parent_pos = {v: i for i, v in enumerate(above)}
        nodes = t._by_depth[k]
        parents = [parent_pos[v[:-1]] for v in nodes]
        child_mask = [0] * len(above)
        last_mask = 0
        for j, (v, p) in enumerate(zip(nodes, parents)):
            child_mask[p] |= 1 << j
            if t._labels[v] in last_labels:
                last_mask |= 1 << j
        inherited = []
        for p, row in enumerate(rels[k - 1]):
            row &= ~(1 << p)
            got = 0
            while row:
                low = row & -row
                got |= child_mask[low.bit_length() - 1]
                row ^= low
            inherited.append(got)
        rows = [(last_mask & ~(1 << j)) | inherited[p] for j, p in enumerate(parents)]
        # Warshall: for each j, OR row j into each row that has bit j set
        for j, row_j in enumerate(rows):
            bit = 1 << j
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | row_j
        rels.append(rows)
    return rels[n]


def level(
    t: ComputationTree, n: int, last_labels: AbstractSet[str] = frozenset()
) -> list[NodeId]:
    """Nodes at depth ``n`` sorted left to right.

    Nodes whose label is in ``last_labels`` sort after all others of the
    level; otherwise order is inherited from ancestors.  Raises
    :class:`OrderingNotTotal` when the rules leave two nodes unordered or
    order them both ways.
    """
    if n < 0:
        raise ValueError("level index must be non-negative")
    nodes = t.nodes_at_depth(n)
    if len(nodes) <= 1:
        return nodes
    rows = _level_relation(t, frozenset(last_labels), n)
    size = len(nodes)
    # The rows are transitively closed, so with no node preceding itself
    # they form a strict partial order, which is total exactly when it
    # holds all size*(size-1)/2 pairs.  Only a failing level is scanned
    # pair by pair, to name the first pair left unordered.
    if any(row >> i & 1 for i, row in enumerate(rows)) or (
        sum(map(int.bit_count, rows)) != size * (size - 1) // 2
    ):
        for (i, v), (j, w) in itertools.combinations(enumerate(nodes), 2):
            fwd, bwd = rows[i] >> j & 1, rows[j] >> i & 1
            if fwd and bwd:
                raise OrderingNotTotal(
                    f"level {n}: nodes labeled {t.label(v)!r} and {t.label(w)!r} "
                    f"are ordered both ways"
                )
            if not fwd and not bwd:
                raise OrderingNotTotal(
                    f"level {n}: nodes labeled {t.label(v)!r} and {t.label(w)!r} "
                    f"are incomparable"
                )
    # in a total order, a node with k successors has size-1-k predecessors
    ordered = [()] * size
    for v, row in zip(nodes, rows):
        ordered[size - 1 - row.bit_count()] = v
    return ordered


# -- exports -----------------------------------------------------------------


def to_dot(g: Cgs, t: ComputationTree) -> str:
    """GraphViz rendering: nodes as ``state | props``, edges as tuples."""
    ids = {v: f"n{k}" for k, v in enumerate(sorted(t.nodes(), key=lambda v: (len(v), v)))}
    lines = ["digraph computation_tree {", "  rankdir=TB;"]
    for v, name in ids.items():
        props = ",".join(sorted(g.label.get(t.label(v), ()))) or "-"
        lines.append(f'  {name} [label="{t.label(v)} | {props}"];')
    for v, name in ids.items():
        for c in t.children(v):
            tup = "(" + ",".join(c[-1]) + ")"
            lines.append(f'  {name} -> {ids[c]} [label="{tup}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def levels_to_json(
    t: ComputationTree, last_labels: AbstractSet[str] = frozenset()
) -> dict[str, list[str]]:
    """Level-annotated export: state ids per level, left to right."""
    return {
        f"level_{n}": [t.label(v) for v in level(t, n, last_labels)]
        for n in range(t.max_depth + 1)
    }
