"""Computation trees grown one (node, joint action) extension at a time.

A node is a dense integer id.  Ids run level by level from the root's
0, and within a level in the sorted order of the nodes' paths, the
sequences of joint actions on the edges from the root.  So the ids, and
every export numbered by them, are a function of the tree alone: two
trees built by the same extensions in any order are equal values, with
equal ids.  ``path`` and ``node`` convert between a node's id and its
path; the constructor and ``labels`` take and give the mapping from
paths to state labels.

Levels can be ordered left-to-right.  The ordering is generated by two
rules: nodes carrying a designated "rightmost" label sort after every
other node of their level, and order is inherited from ancestors.  On
levels where the rules leave nodes incomparable (or force a cycle) the
ordering query raises instead of inventing a tie-break.
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from typing import AbstractSet, Iterable, Mapping

from .cgs import Cgs, History, JointAction, successor
from .strategies import TeamStrategy, agent_factor, compatible_in_order, team_members

NodeId = int
Path = tuple[JointAction, ...]


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
    """An immutable rooted tree of states with joint-action edge labels.

    The root is node 0.  Every method that takes a node raises
    :class:`TreeError` for a value that is not a node id of this tree.
    """

    def __init__(self, root_label: str, labels: Mapping[Path, str] | None = None):
        lab = {(): root_label}
        if labels:
            lab.update(labels)
            lab[()] = root_label
        for v in lab:
            if v and v[:-1] not in lab:
                raise TreeError(f"node {v!r} has no parent in the tree")
        paths = sorted(lab, key=lambda v: (len(v), v))
        ids = {v: i for i, v in enumerate(paths)}
        starts = [0]
        for i, v in enumerate(paths):
            if len(v) == len(starts):
                starts.append(i)
        starts.append(len(paths))
        self._index(
            [ids[v[:-1]] if v else -1 for v in paths],
            [v[-1] if v else None for v in paths],
            [lab[v] for v in paths],
            starts,
        )

    @classmethod
    def _from_arrays(
        cls,
        parent: list[NodeId],
        action: list[JointAction | None],
        label: list[str],
        starts: list[int],
    ) -> ComputationTree:
        """The tree whose node ``v`` hangs below ``parent[v]`` by the edge
        ``action[v]`` and carries ``label[v]``; level ``n`` holds the ids
        from ``starts[n]`` up to ``starts[n + 1]``.  The ids must already
        run in the order of the module docstring."""
        t = cls.__new__(cls)
        t._index(parent, action, label, starts)
        return t

    def _index(self, parent, action, label, starts) -> None:
        self._parent = parent
        self._action = action
        self._label = label
        self._starts = starts
        # Parents never decrease along the ids, so the children of v are
        # the ids from first_child[v] up to first_child[v + 1].
        counts = [0] * (len(parent) + 1)
        for p in parent[1:]:
            counts[p] += 1
        self._first_child = list(itertools.accumulate(counts, initial=1))[:-1]
        # per last_labels: the (rows, rank array) of levels 0, 1, .. (see _level_relation)
        self._order_cache: dict[frozenset[str], list[tuple[list[int], array | None]]] = {}

    def _check(self, v) -> NodeId:
        if v in self:
            return v
        raise TreeError(f"node {v!r} not in the tree")

    @property
    def root_label(self) -> str:
        return self._label[0]

    @property
    def max_depth(self) -> int:
        return len(self._starts) - 2

    def nodes(self) -> Iterable[NodeId]:
        return range(len(self._label))

    def __len__(self) -> int:
        return len(self._label)

    def __contains__(self, v) -> bool:
        # a bool is an int to Python, but not a node
        return type(v) is int and 0 <= v < len(self._label)

    def label(self, v: NodeId) -> str:
        # the test of __contains__, inlined: labels are read once per node
        if type(v) is int and 0 <= v < len(self._label):
            return self._label[v]
        raise TreeError(f"node {v!r} not in the tree")

    def labels(self) -> Mapping[Path, str]:
        """The tree as a mapping from each node's path to its label."""
        paths: list[Path] = [()]
        for a, p in zip(self._action[1:], self._parent[1:]):
            paths.append(paths[p] + (a,))
        return dict(zip(paths, self._label))

    def path(self, v: NodeId) -> Path:
        """The joint actions on the edges from the root down to ``v``."""
        v = self._check(v)
        out = []
        while v:
            out.append(self._action[v])
            v = self._parent[v]
        return tuple(reversed(out))

    def node(self, path: Path) -> NodeId:
        """The node reached from the root along ``path``."""
        v = 0
        for a in path:
            lo, hi = self._first_child[v], self._first_child[v + 1]
            # a node's children run in the order of their edge labels
            v = bisect.bisect_left(self._action, a, lo, hi)
            if v == hi or self._action[v] != a:
                raise TreeError(f"path {tuple(path)!r} not in the tree")
        return v

    def children(self, v: NodeId) -> list[NodeId]:
        v = self._check(v)
        return list(range(self._first_child[v], self._first_child[v + 1]))

    def nodes_at_depth(self, n: int) -> list[NodeId]:
        if not 0 <= n <= self.max_depth:
            return []
        return list(range(self._starts[n], self._starts[n + 1]))

    def parents_at_depth(self, n: int) -> list[NodeId]:
        """The parents of :meth:`nodes_at_depth`, in order; the root's is -1."""
        if not 0 <= n <= self.max_depth:
            return []
        return self._parent[self._starts[n] : self._starts[n + 1]]

    def history(self, v: NodeId) -> History:
        """State labels along the path from the root to ``v``, inclusive."""
        v = self._check(v)
        out = [self._label[v]]
        while v:
            v = self._parent[v]
            out.append(self._label[v])
        return tuple(reversed(out))

    def __eq__(self, other):
        if not isinstance(other, ComputationTree):
            return NotImplemented
        # ids are canonical, so equal arrays mean equal path-to-label maps
        return (self._label, self._parent, self._action) == (
            other._label,
            other._parent,
            other._action,
        )

    def __repr__(self):
        return f"ComputationTree({self.root_label!r}, {len(self._label)} nodes)"


def single_node(s: str) -> ComputationTree:
    return ComputationTree(s)


def extend(
    g: Cgs, team: TeamStrategy, t: ComputationTree, v: NodeId, a: JointAction
) -> ComputationTree:
    """One extension step: add the ``a``-successor of node ``v``.

    The action must be compatible with the team strategy on the path to
    ``v``, must lead somewhere, and must not duplicate an existing edge
    label at ``v``.  Ids of ``t`` name the same nodes in the new tree up
    to ``v``'s depth; deeper ones may shift, as ids follow path order.
    """
    a = tuple(a)
    h = t.history(v)
    if any(t._action[c] == a for c in t.children(v)):
        raise DuplicateAction(f"node {v!r} already has an edge labeled {a!r}")
    if a not in compatible_in_order(g, team, h):
        raise IncompatibleAction(f"{a!r} is not compatible with the team strategy at {v!r}")
    s2 = successor(g, h[-1], a)
    if s2 is None:
        raise UndefinedSuccessor(f"no transition from {h[-1]!r} under {a!r}")
    labels = t.labels()
    labels[t.path(v) + (a,)] = s2
    return ComputationTree(t.root_label, labels)


def saturate(g: Cgs, s: str, team: TeamStrategy, depth: int) -> ComputationTree:
    """The maximal tree of extension steps with paths of at most depth+1 nodes.

    Extensions at distinct (node, action) pairs commute, so the result
    does not depend on the order in which they are applied.

    The joint actions at a node are those of :func:`compatible_in_order`
    on its history, but no history is built: the members update their
    parent's memories by the node's state and play from them.  The joint
    actions and successors are generated once per (state, members'
    actions), in sorted order, so each level comes out in path order and
    its nodes take their ids as they come.  Errors are those of the
    histories, at the same node.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    g.check_state(s)
    members = team_members(g, team)
    updates = [team.strategies[i].update for i in members]
    plays = [team.strategies[i].act for i in members]
    parent: list[NodeId] = [-1]
    action: list[JointAction | None] = [None]
    label = [s]
    starts = [0, 1]
    # per (state, members' actions): the joint actions and their successors
    moves: dict[tuple[str, ...], list[tuple[JointAction, str]]] = {}
    # per member: the memories of the parents of the level's nodes
    ups = [[team.strategies[i].start] for i in members]
    for _ in range(depth):
        lo, hi = starts[-2], starts[-1]
        last = label[lo:hi]
        try:
            memory = [list(map(u, itertools.repeat(g), m, last)) for u, m in zip(updates, ups)]
            acts = [list(map(f, m)) for f, m in zip(plays, memory)]
        except Exception:
            # raise what compatible_in_order raises first, node by node
            for j, x in enumerate(last):
                for i, u, f, m in zip(members, updates, plays, ups):
                    agent_factor(g, i, x, f(u(g, m[j], x)))
            raise
        for v, key in enumerate(zip(last, *acts), lo):
            kids = moves.get(key)
            if kids is None:
                x, played = key[0], dict(zip(members, key[1:]))
                factors = [agent_factor(g, i, x, played.get(i)) for i in range(1, g.agents + 1)]
                moves[key] = kids = [
                    (a, s2)
                    for a in itertools.product(*factors)
                    if (s2 := g.delta.get((x, a))) is not None
                ]
            for a, s2 in kids:
                parent.append(v)
                action.append(a)
                label.append(s2)
        if len(label) == hi:
            break
        starts.append(len(label))
        ups = [[m[p - lo] for p in parent[hi:]] for m in memory]
    return ComputationTree._from_arrays(parent, action, label, starts)


def outcomes(g: Cgs, s: str, team: TeamStrategy, depth: int) -> set[History]:
    """All histories of length depth+1 from ``s`` consistent with the team.

    These are exactly the bounded prefixes of the team's outcome plays:
    the histories of the nodes at ``depth`` of the saturated tree.
    """
    t = saturate(g, s, team, depth)
    return {t.history(v) for v in t.nodes_at_depth(depth)}


def is_complete_level(t: ComputationTree, n: int) -> bool:
    """Whether level ``n`` holds the maximum of n+1 nodes."""
    if n < 0:
        raise ValueError("level index must be non-negative")
    return len(t.nodes_at_depth(n)) == n + 1


def _is_total(rows: list[int]) -> bool:
    """Whether transitively closed rows are a strict total order.

    With no node preceding itself they form a strict partial order,
    which is total exactly when it holds all L*(L-1)/2 pairs of its L
    nodes.
    """
    size = len(rows)
    # row i & (1 << i) is node i preceding itself
    return not any(map(int.__and__, rows, map((1).__lshift__, range(size)))) and (
        sum(map(int.bit_count, rows)) == size * (size - 1) // 2
    )


def _level_relation(
    t: ComputationTree, last_labels: frozenset[str], n: int
) -> tuple[list[int], array | None]:
    """The left-of relation on level ``n``, closed under transitivity.

    Returns the level's closed rows and, when they are a strict total
    order, each node's rank in it (None otherwise).  Row ``i`` is a bitset
    over the level's nodes (in ``nodes_at_depth`` order): bit ``j`` is set
    when node ``i`` precedes node ``j``.  Each level is built once per
    ``last_labels`` from the level above and cached on the tree.  Base
    edges: every node precedes each other node whose label is in
    ``last_labels``, and a node whose parent precedes a different parent
    precedes all of that parent's children.

    Under a totally ordered level the closed rows come in closed form
    from the parents' ranks.  Let C(r) be the children of the parents
    ranked after r, L the nodes with a last label, and m the lowest rank
    of their parents.  A node whose parent ranks r reaches C(r) by
    inheritance, and from there only nodes of L and children of parents
    ranked higher still.  Once it reaches a node of L it reaches all of
    L and C(m).  It reaches a node of L unless it is L's only node and
    C(r) is empty.  Under any other level the base edges are closed by
    Warshall's algorithm.
    """
    records = t._order_cache.setdefault(last_labels, [([0], array("I", [0]))])
    for k in range(len(records), n + 1):
        above, rank = records[k - 1]
        lo, hi = t._starts[k], t._starts[k + 1]
        parents = [p - t._starts[k - 1] for p in t._parent[lo:hi]]
        child_mask = [0] * len(above)
        last_mask = 0
        for j, (p, s) in enumerate(zip(parents, t._label[lo:hi])):
            child_mask[p] |= 1 << j
            if s in last_labels:
                last_mask |= 1 << j
        if rank is not None:
            by_rank = [0] * len(above)
            for p, r in enumerate(rank):
                by_rank[r] = child_mask[p]
            later, acc = [0] * len(above), 0  # later[r] is C(r)
            for r in range(len(above) - 1, -1, -1):
                later[r] = acc
                acc |= by_rank[r]
            via_last = 0
            if last_mask:
                m = min(rank[p] for j, p in enumerate(parents) if last_mask >> j & 1)
                via_last = last_mask | later[m]
            rows = []
            for j, p in enumerate(parents):
                inherited = later[rank[p]]
                alone = last_mask == 1 << j and not inherited
                rows.append(0 if alone else inherited | via_last)
        else:
            inherited = []
            for p, row in enumerate(above):
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
        # in a total order, a node with k successors has size-1-k predecessors
        size = len(rows)
        ranks = array("I", [size - 1 - r.bit_count() for r in rows]) if _is_total(rows) else None
        records.append((rows, ranks))
    return records[n]


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
    rows, rank = _level_relation(t, frozenset(last_labels), n)
    if rank is None:
        # name the first pair left unordered
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
    ordered = [0] * len(nodes)
    for v, r in zip(nodes, rank):
        ordered[r] = v
    return ordered


# -- exports -----------------------------------------------------------------


def to_dot(g: Cgs, t: ComputationTree) -> str:
    """GraphViz rendering: nodes as ``state | props``, edges as tuples."""
    lines = ["digraph computation_tree {", "  rankdir=TB;"]
    for v in t.nodes():
        props = ",".join(sorted(g.label.get(t.label(v), ()))) or "-"
        lines.append(f'  n{v} [label="{t.label(v)} | {props}"];')
    for v in t.nodes():
        for c in t.children(v):
            tup = "(" + ",".join(t._action[c]) + ")"
            lines.append(f'  n{v} -> n{c} [label="{tup}"];')
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
