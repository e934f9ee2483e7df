"""Independent oracles and generators for the differential tests.

Nothing here touches the strategy-search code paths under test: the
safety oracle is a plain set fixpoint on the state graph, the reference
checker enumerates whole strategy tables per depth, the tree twin grows
explicit computation trees, and the generator builds structures
directly.  The reference level ordering closes explicit pair sets, level
by level from the root, on every call, and the reference validator tests
every transition row against the availability sets, as the reference
row check tests every row against the declared names.  The reference
construction checks rescan whole histories: the simulating strategy for
its spawn positions, and the claim checks for branch shapes and for
every pair of nodes on a level; the decoding check decodes a level
afresh for each claim that reads it.  The reference command line builds
a new parser for every call.  The reference outcomes grow a set of
histories with no computation tree, and the reference transition fill
of the compiled games walks every available joint action one at a time.
"""

import contextlib
import io
import itertools
import random
import re
import sys
from typing import NamedTuple

from atlir.cgs import Cgs, CgsError, History, UnknownAction, UnknownState, Violation
from atlir.cli import _Failure, build_parser
from atlir.comptree import (
    ComputationTree,
    OrderingNotTotal,
    Path,
    extend,
    level,
    outcomes,
    single_node,
)
from atlir.formulas import And, Atom, Globally, Next, Not, Until
from atlir.mc import BoundTooSmall, Truth, UnknownProposition, Verdict
from atlir.reduction import (
    BR1,
    BR2,
    IDLE,
    OTHER,
    P1,
    P2,
    RIGHTMOST_LABELS,
    ROOT,
    S_ERR,
    S_GEN,
    S_INIT,
    S_INIT2,
    S_LB,
    S_LB2,
    S_TR,
    S_TR2,
    TYPE1,
    ClaimEntry,
    ClaimReport,
    HistoryType,
    _check_form_succession,
    _check_level_anatomy,
    _precedes,
    decode_level,
    type2_closed,
    type2_open,
)
from atlir.strategies import AgentStrategy, TeamStrategy, compatible_in_order
from atlir.turing import (
    LEFT,
    RIGHT,
    Configuration,
    head_cell,
    parse_configuration,
    split_configuration,
    step,
)


def backward_induction_safe(g: Cgs, members, p: str) -> set[str]:
    """States from which the members can keep ``p`` forever, assuming
    everyone sees everything.

    Greatest fixpoint: start from the p-states and repeatedly drop any
    state where every member action choice lets the other agents escape
    the current set.  Memoryless reasoning is enough for safety under
    perfect information.
    """
    members = sorted(members)
    free = [i for i in range(1, g.agents + 1) if i not in members]
    safe = {s for s in g.states if p in g.label[s]}
    while True:
        keep = set()
        for s in safe:
            member_opts = [g.available_sorted(i, s) for i in members]
            for combo in itertools.product(*member_opts):
                by_agent = dict(zip(members, combo))
                ok = True
                for free_acts in itertools.product(
                    *[g.available_sorted(i, s) for i in free]
                ):
                    by_agent.update(zip(free, free_acts))
                    joint = tuple(by_agent[i] for i in range(1, g.agents + 1))
                    t = g.delta.get((s, joint))
                    if t is None or t not in safe:
                        ok = False
                        break
                if ok:
                    keep.add(s)
                    break
        if keep == safe:
            return safe
        safe = keep


def enumerate_uniform_tables(g: Cgs, members, s: str, depth: int, cap: int = 20000):
    """All uniform tables on the observation classes reachable from ``s``.

    Tables are per-member maps from observation history to action,
    covering every class that can arise within ``depth`` steps under the
    table itself.  No pruning: this is the raw search space.  Returns
    None when the space exceeds ``cap``.
    """
    members = sorted(members)
    results = []

    def rec(frontier, depth_left, tables):
        if len(results) > cap:
            return
        if depth_left == 0:
            results.append(tables)
            return
        slots = []
        for h in frontier:
            for m in members:
                key = (m, g.obs_key(m, h))
                if key not in [k for k, _ in slots]:
                    slots.append((key, h[-1]))
        options = [g.available_sorted(m, last) for (m, _), last in slots]
        for combo in itertools.product(*options):
            assign = dict(zip((k for k, _ in slots), combo))
            new_tables = {
                m: {**tables[m], **{k[1]: a for k, a in assign.items() if k[0] == m}}
                for m in members
            }
            nxt = []
            for h in frontier:
                acts = {m: assign[(m, g.obs_key(m, h))] for m in members}
                free = [i for i in range(1, g.agents + 1) if i not in members]
                for free_acts in itertools.product(
                    *[g.available_sorted(i, h[-1]) for i in free]
                ):
                    acts.update(zip(free, free_acts))
                    joint = tuple(acts[i] for i in range(1, g.agents + 1))
                    t = g.delta.get((h[-1], joint))
                    if t is not None and h + (t,) not in nxt:
                        nxt.append(h + (t,))
            rec(nxt, depth_left - 1, new_tables)

    rec([(s,)], depth, {m: {} for m in members})
    if len(results) > cap:
        return None
    return results


def brute_force_safety_refuted(g: Cgs, members, p: str, s: str, depth: int):
    """Whether every uniform table admits a non-p state within ``depth``.

    Each enumerated table is replayed through the outcome machinery of
    the comptree module, so this shares no code with either checker.
    Returns None when the table space is too large to enumerate.
    """
    if p not in g.label[s]:
        return True
    tables = enumerate_uniform_tables(g, members, s, depth)
    if tables is None:
        return None
    for per_member in tables:
        team = TeamStrategy.of(
            *(AgentStrategy.from_table(m, t) for m, t in per_member.items())
        )
        plays = outcomes(g, s, team, depth)
        if all(p in g.label[state] for h in plays for state in h):
            return False
    return True


def reference_outcomes(g: Cgs, s: str, team, depth: int) -> set[History]:
    """atlir.comptree.outcomes as first written: a frontier of histories
    grown one step per depth, with no computation tree."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    g.check_state(s)
    frontier: set[History] = {(s,)}
    for _ in range(depth):
        nxt: set[History] = set()
        for h in frontier:
            last = h[-1]
            for a in set(compatible_in_order(g, team, h)):
                t = g.delta.get((last, a))
                if t is not None:
                    nxt.add(h + (t,))
        frontier = nxt
    return frontier


def random_cgs(
    rng: random.Random,
    max_states: int = 5,
    max_actions: int = 3,
    identity_obs: bool = False,
) -> Cgs:
    """A random valid two-agent structure within the given caps.

    Availability is drawn per observation block so it is uniform across
    indistinguishable states by construction; the transition map is
    total on available tuples.
    """
    n_states = rng.randint(1, max_states)
    n_actions = rng.randint(1, max_actions)
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"a{i}" for i in range(n_actions)]
    props = ["p"]
    label = {s: (["p"] if rng.random() < 0.6 else []) for s in states}

    def partition():
        if identity_obs:
            return [[s] for s in states]
        blocks = []
        for s in states:
            if blocks and rng.random() < 0.5:
                rng.choice(blocks).append(s)
            else:
                blocks.append([s])
        return blocks

    obs = {1: partition(), 2: partition()}
    avail = {1: {}, 2: {}}
    for agent in (1, 2):
        for block in obs[agent]:
            acts = rng.sample(actions, rng.randint(1, n_actions))
            for s in block:
                avail[agent][s] = sorted(acts)
    delta = {}
    for s in states:
        for a1 in avail[1][s]:
            for a2 in avail[2][s]:
                delta[(s, (a1, a2))] = rng.choice(states)
    return Cgs(2, states, props, label, obs, actions, avail, delta)


# -- reference checker -------------------------------------------------------
#
# The bounded checker as first written: at each depth the full product
# of per-class actions is enumerated, and each complete table is tested
# against the whole frontier.  Exponentially slower than atlir.mc.check
# and meant to return the very same verdicts and evidence.


class _ReferenceSearch:
    def __init__(self, g: Cgs, members):
        self.g = g
        self.members = members
        self.free = [i for i in range(1, g.agents + 1) if i not in members]
        self._succ = {}

    def successors(self, state, member_acts):
        key = (state, member_acts)
        got = self._succ.get(key)
        if got is None:
            free_opts = [self.g.available_sorted(i, state) for i in self.free]
            by_agent = dict(zip(self.members, member_acts))
            seen = []
            for free_acts in itertools.product(*free_opts):
                by_agent.update(zip(self.free, free_acts))
                joint = tuple(by_agent[i] for i in range(1, self.g.agents + 1))
                t = self.g.delta.get((state, joint))
                if t is not None and t not in seen:
                    seen.append(t)
            got = tuple(seen)
            self._succ[key] = got
        return got

    def assignments(self, frontier):
        """All per-class action assignments for one step, in order."""
        slots = []
        rep = {}
        for m in self.members:
            for h in frontier:
                key = (m, self.g.obs_key(m, h))
                if key not in rep:
                    rep[key] = h[-1]
                    slots.append(key)
        slots.sort(key=lambda mk: (mk[0], len(mk[1]), mk[1]))
        options = [self.g.available_sorted(m, rep[(m, k)]) for m, k in slots]
        for combo in itertools.product(*options):
            yield dict(zip(slots, combo))

    def member_acts(self, assignment, h):
        return tuple(assignment[(m, self.g.obs_key(m, h))] for m in self.members)


def reference_check(g: Cgs, s: str, f, bound: int) -> Verdict:
    """``atlir.mc.check`` by whole-table enumeration, on valid inputs."""
    return _ref_eval(g, s, f, bound, {})


def _ref_eval(g, s, f, bound, memo):
    key = (s, f)
    if key not in memo:
        memo[key] = _ref_eval_raw(g, s, f, bound, memo)
    return memo[key]


def _ref_eval_raw(g, s, f, bound, memo):
    if isinstance(f, Atom):
        if f.name in g.label[s]:
            return Verdict(Truth.TRUE, bound, witness=[s])
        return Verdict(Truth.FALSE, bound, counterexample=[s])
    if isinstance(f, Not):
        v = _ref_eval(g, s, f.operand, bound, memo)
        if v.value is Truth.TRUE:
            return Verdict(Truth.FALSE, bound, counterexample=v.witness)
        if v.value is Truth.FALSE:
            return Verdict(Truth.TRUE, bound, witness=v.counterexample)
        return Verdict(Truth.UNKNOWN, bound)
    if isinstance(f, And):
        left = _ref_eval(g, s, f.left, bound, memo)
        if left.value is Truth.FALSE:
            return Verdict(Truth.FALSE, bound, counterexample=left.counterexample)
        right = _ref_eval(g, s, f.right, bound, memo)
        if right.value is Truth.FALSE:
            return Verdict(Truth.FALSE, bound, counterexample=right.counterexample)
        if left.value is Truth.TRUE and right.value is Truth.TRUE:
            return Verdict(
                Truth.TRUE, bound, witness={"left": left.witness, "right": right.witness}
            )
        return Verdict(Truth.UNKNOWN, bound)
    if isinstance(f, Next):
        return _ref_next(g, s, f, bound, memo)
    if isinstance(f, Globally):
        return _ref_box(g, s, f, bound, memo)
    if isinstance(f, Until):
        return _ref_until(g, s, f, bound, memo)
    raise TypeError(f"not a formula: {f!r}")


def _ref_next(g, s, f, bound, memo):
    members = sorted(f.agents)
    search = _ReferenceSearch(g, members)
    failures = []
    saw_undecided = False
    for combo in itertools.product(*[g.available_sorted(m, s) for m in members]):
        succs = search.successors(s, combo)
        verdicts = [_ref_eval(g, t, f.operand, bound, memo) for t in succs]
        actions = dict(zip(members, combo))
        if all(v.value is Truth.TRUE for v in verdicts):
            return Verdict(Truth.TRUE, bound, witness={"actions": actions})
        bad = next((t for t, v in zip(succs, verdicts) if v.value is Truth.FALSE), None)
        if bad is None:
            saw_undecided = True
        else:
            failures.append({"actions": actions, "path": [s, bad]})
    if saw_undecided:
        return Verdict(Truth.UNKNOWN, bound)
    return Verdict(Truth.FALSE, bound, counterexample={"per_assignment": failures})


def _ref_box(g, s, f, bound, memo):
    if _ref_eval(g, s, f.operand, bound, memo).value is Truth.FALSE:
        return Verdict(Truth.FALSE, bound, counterexample=[s])
    search = _ReferenceSearch(g, sorted(f.agents))
    first_bad = []

    def survives(frontier, depth_left):
        if depth_left == 0:
            return True
        for assignment in search.assignments(frontier):
            nxt = {}
            bad = None
            for h in frontier:
                acts = search.member_acts(assignment, h)
                for t in search.successors(h[-1], acts):
                    if _ref_eval(g, t, f.operand, bound, memo).value is Truth.FALSE:
                        bad = list(h) + [t]
                        break
                    nxt[h + (t,)] = None
                if bad is not None:
                    break
            if bad is not None:
                if not first_bad:
                    first_bad.append(bad)
                continue
            if survives(tuple(nxt), depth_left - 1):
                return True
        return False

    if survives(((s,),), bound):
        return Verdict(Truth.UNKNOWN, bound)
    return Verdict(Truth.FALSE, bound, counterexample=first_bad[0] if first_bad else [s])


def _ref_until(g, s, f, bound, memo):
    if _ref_eval(g, s, f.right, bound, memo).value is Truth.TRUE:
        return Verdict(Truth.TRUE, bound, witness={"satisfied_at": [s], "table": []})
    if _ref_eval(g, s, f.left, bound, memo).value is not Truth.TRUE:
        return Verdict(Truth.UNKNOWN, bound)
    search = _ReferenceSearch(g, sorted(f.agents))

    def force(frontier, depth_left, table):
        if not frontier:
            return table
        if depth_left == 0:
            return None
        for assignment in search.assignments(frontier):
            nxt = {}
            stuck = False
            for h in frontier:
                acts = search.member_acts(assignment, h)
                for t in search.successors(h[-1], acts):
                    if _ref_eval(g, t, f.right, bound, memo).value is Truth.TRUE:
                        continue
                    if _ref_eval(g, t, f.left, bound, memo).value is not Truth.TRUE:
                        stuck = True
                        break
                    nxt[h + (t,)] = None
                if stuck:
                    break
            if stuck:
                continue
            got = force(tuple(nxt), depth_left - 1, {**table, **assignment})
            if got is not None:
                return got
        return None

    table = force(((s,),), bound, {})
    if table is None:
        return Verdict(Truth.UNKNOWN, bound)
    rows = [
        {"agent": m, "obs_history": list(k), "action": a}
        for (m, k), a in sorted(table.items())
    ]
    return Verdict(Truth.TRUE, bound, witness={"table": rows})


# -- tree twin ---------------------------------------------------------------


def check_box_atomic(g: Cgs, s: str, team, p: str, bound: int) -> Verdict:
    """Safety check specialised to an atomic objective.

    Same verdict contract as ``atlir.mc.check`` on ``<<team>> G p``, but
    implemented through explicit computation trees: candidate tables are
    grown alongside the tree they induce, one extension step at a time,
    and a table is refuted as soon as a node's label misses ``p``.
    """
    if bound < 1:
        raise BoundTooSmall(f"bound {bound} is below the minimal horizon 1")
    g.check_state(s)
    if p not in g.props:
        raise UnknownProposition(f"undeclared proposition {p!r}")
    members = sorted(set(int(i) for i in team))
    if not members:
        raise ValueError("team must be non-empty")
    for i in members:
        g.check_agent(i)
    if p not in g.label[s]:
        return Verdict(Truth.FALSE, bound, counterexample=[s])
    first_bad = []

    def class_assignments(frontier):
        slots = []
        for h in frontier:
            for m in members:
                key = (m, g.obs_key(m, h))
                if key not in [k for k, _ in slots]:
                    slots.append((key, h[-1]))
        slots.sort(key=lambda item: (item[0][0], item[0][1]))
        options = [g.available_sorted(m, last) for (m, _), last in slots]
        for combo in itertools.product(*options):
            yield dict(zip((key for key, _ in slots), combo))

    def survives(tree, tables, depth_left):
        if depth_left == 0:
            return True
        leaves = tree.nodes_at_depth(tree.max_depth)
        frontier = [tree.history(v) for v in leaves]
        for assignment in class_assignments(frontier):
            new_tables = {m: dict(tables[m]) for m in members}
            for (m, key), act in assignment.items():
                new_tables[m][key] = act
            team_strategy = TeamStrategy.of(
                *(AgentStrategy.from_table(m, new_tables[m]) for m in members)
            )
            grown = tree
            bad = None
            for v in leaves:
                h = grown.history(v)
                for a in sorted(set(compatible_in_order(g, team_strategy, h))):
                    grown = extend(g, team_strategy, grown, v, a)
                    t = grown.label(grown.node(grown.path(v) + (a,)))
                    if p not in g.label[t]:
                        bad = list(h) + [t]
                        break
                if bad is not None:
                    break
            if bad is not None:
                if not first_bad:
                    first_bad.append(bad)
                continue
            if survives(grown, new_tables, depth_left - 1):
                return True
        return False

    if survives(single_node(s), {m: {} for m in members}, bound):
        return Verdict(Truth.UNKNOWN, bound)
    return Verdict(Truth.FALSE, bound, counterexample=first_bad[0] if first_bad else [s])


# -- reference level ordering --------------------------------------------------
#
# The left-to-right order as first written: each level's relation is a
# set of node pairs, closed by a fixpoint, and every query rebuilds the
# relations of all levels above it.  atlir.comptree.level must return
# the same list or raise OrderingNotTotal with the same message, and
# atlir.comptree._level_relation the same bit rows as the Warshall
# closure it used on every level before its closed form.


def _transitive_closure(pairs: set, items: list) -> set:
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c in items:
                if (b, c) in closed and (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return closed


def _orderings(t: ComputationTree, last_labels, upto: int) -> dict[int, set]:
    rels: dict[int, set] = {0: set()}
    for n in range(1, upto + 1):
        nodes = t.nodes_at_depth(n)
        up = {v: t.node(t.path(v)[:-1]) for v in nodes}
        rel: set = set()
        prev = rels[n - 1]
        for v, w in itertools.permutations(nodes, 2):
            if t.label(w) in last_labels:
                rel.add((v, w))
            if up[v] != up[w] and (up[v], up[w]) in prev:
                rel.add((v, w))
        rels[n] = _transitive_closure(rel, nodes)
    return rels


def reference_level_relation(t: ComputationTree, last_labels: frozenset, n: int) -> list:
    """The closed bit rows of levels 0..n, as ``atlir.comptree._level_relation``
    built them before its closed form: every level's base edges closed by
    Warshall's algorithm, afresh on every call."""
    rels = [[0]]
    for k in range(len(rels), n + 1):
        above = t.nodes_at_depth(k - 1)
        parent_pos = {t.path(v): i for i, v in enumerate(above)}
        nodes = t.nodes_at_depth(k)
        parents = [parent_pos[t.path(v)[:-1]] for v in nodes]
        child_mask = [0] * len(above)
        last_mask = 0
        for j, (v, p) in enumerate(zip(nodes, parents)):
            child_mask[p] |= 1 << j
            if t.label(v) in last_labels:
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
    return rels


def reference_level(t: ComputationTree, n: int, last_labels=frozenset()) -> list:
    """``atlir.comptree.level`` by explicit pair sets and their closure."""
    nodes = t.nodes_at_depth(n)
    if len(nodes) <= 1:
        return nodes
    rel = _orderings(t, frozenset(last_labels), n)[n]
    for v, w in itertools.combinations(nodes, 2):
        fwd, bwd = (v, w) in rel, (w, v) in rel
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
    return sorted(nodes, key=lambda v: sum(1 for w in nodes if (w, v) in rel))


def random_label_tree(rng: random.Random, alphabet: str, max_depth: int):
    """A random tree with 0..3 children per node and labels from ``alphabet``."""
    labels = {}
    frontier = [()]
    for _ in range(max_depth):
        nxt = []
        for v in frontier:
            for k in range(rng.randint(0, 3)):
                child = v + ((str(k),),)
                labels[child] = rng.choice(alphabet)
                nxt.append(child)
        frontier = nxt
    return ComputationTree(rng.choice(alphabet), labels)


# -- reference validation -----------------------------------------------------
#
# atlir.cgs.validate_cgs as first written: every delta row is tested
# against the availability sets, in sorted order, on every call.  The
# current validator must return the very same violations in the same
# order.  The constructor's row checks as first written walk every row;
# the constructor must raise the same error or keep the same rows.


def reference_delta(agents: int, states, actions, rows) -> dict:
    """The transition rows of a structure, checked as first written.

    Each row is walked in turn, its joint action made a tuple; the
    first row with an undeclared source, target or action, or with the
    wrong arity, raises what the constructor raises.
    """
    states, actions = frozenset(states), frozenset(actions)
    delta = {}
    for (s, a), t in rows.items():
        a = tuple(a)
        if s not in states:
            raise UnknownState(f"transition from undeclared state {s!r}")
        if t not in states:
            raise UnknownState(f"transition into undeclared state {t!r}")
        if len(a) != agents:
            raise CgsError(f"joint action {a!r} has length {len(a)}, expected {agents}")
        for x in a:
            if x not in actions:
                raise UnknownAction(f"transition at {s!r} uses undeclared action {x!r}")
        delta[(s, a)] = t
    return delta


def reference_validate(g: Cgs) -> list[Violation]:
    """Check the semantic well-formedness conditions of a structure.

    Returns one :class:`Violation` per broken condition, each naming the
    state/agent/tuple involved.  An empty list means the structure is
    well-formed.
    """
    out: list[Violation] = []

    for i in range(1, g.agents + 1):
        blocks = g.obs.get(i, ())
        covered: dict[str, int] = {}
        dup = False
        for bi, b in enumerate(blocks):
            for s in b:
                if s in covered:
                    dup = True
                    out.append(
                        Violation(
                            "BadPartition",
                            (i, s),
                            f"agent {i}: state {s!r} appears in more than one observation block",
                        )
                    )
                covered[s] = bi
        missing = sorted(g.states - covered.keys())
        for s in missing:
            out.append(
                Violation(
                    "BadPartition",
                    (i, s),
                    f"agent {i}: state {s!r} missing from the observation partition",
                )
            )
        if dup or missing:
            continue
        # availability must be uniform on each block
        for bi, b in enumerate(blocks):
            first = b[0]
            base = g.avail.get((i, first), frozenset())
            for s in b[1:]:
                if g.avail.get((i, s), frozenset()) != base:
                    out.append(
                        Violation(
                            "AvailNotUniform",
                            (i, first, s),
                            f"agent {i}: availability differs between "
                            f"indistinguishable states {first!r} and {s!r}",
                        )
                    )

    for i in range(1, g.agents + 1):
        for s in sorted(g.states):
            if not g.avail.get((i, s)):
                out.append(
                    Violation(
                        "EmptyAvail",
                        (i, s),
                        f"agent {i} has no available action at state {s!r}",
                    )
                )

    for s in sorted(g.states):
        for a in g.joint_choices(s):
            if (s, a) not in g.delta:
                out.append(
                    Violation(
                        "PartialOnAvailableTuple",
                        (s, a),
                        f"transition undefined at {s!r} for available joint action {a!r}",
                    )
                )
    for (s, a) in sorted(g.delta):
        if any(x not in g.avail.get((i, s), frozenset()) for i, x in enumerate(a, start=1)):
            out.append(
                Violation(
                    "DeltaOnUnavailableTuple",
                    (s, a),
                    f"transition defined at {s!r} for unavailable joint action {a!r}",
                )
            )
    return out


# -- reference construction checks --------------------------------------------
#
# atlir.reduction's transition fill, simulation tree and claim checks as
# first written: the fill walks every available tuple one at a time,
# the simulating strategy lists each history's proposition positions,
# saturation sorts the set of compatible joint actions, every node's
# branch shape is reference_classify_history of its whole history, and claims 1
# and 2.4 test every pair of nodes on a level.  The library must build
# equal trees and report the same entries.


def reference_reduction_delta(rc) -> dict:
    """The transition map of ``build_cgs`` filled one tuple at a time, as
    first written.

    The arrows the construction lists are the game's transitions into
    states other than s_err; every other available joint action leads to
    s_err.  States run in the order ``build_cgs`` declares them.
    """
    g = rc.cgs
    states = [S_INIT, S_INIT2, S_LB, S_LB2, S_GEN, S_TR, S_TR2, S_ERR]
    states += [*rc.cell_states.values(), *rc.head_states.values(), *rc.carrier_states.values()]
    acts12 = sorted(g.actions - {BR1, BR2})
    listed = {k: t for k, t in g.delta.items() if t != S_ERR}
    delta = {}
    for s in states:
        for a1 in acts12:
            for a2 in acts12:
                for a3 in sorted(g.available(3, s)):
                    tup = (a1, a2, a3)
                    delta[(s, tup)] = listed.get((s, tup), S_ERR)
    return delta


def reference_simulating_strategy(rc):
    """The strategy of agents 1 and 2 that tracks the machine.

    Each agent's choice is a function of what it observes: the history's
    length and the positions where its proposition held.  On histories
    observing the spawn pattern (p1 at positions 1, 3, .., 2i-1 for
    agent 1; p2 at 2, 4, .., 2i for agent 2) the agent replays the
    machine: it simulates enough steps to know the configuration the
    next move acts on and, when the scanned cell sits where that
    history's branch needs it, plays the matching move action.  Agent 2
    additionally plays the set-up action on every three-state history
    observing no p2, which covers both branches that write the initial
    head.  Everything else idles.

    Agent 1 initiates right moves (even history length) and discharges
    left-move carriers (odd length); agent 2 discharges right-move
    carriers (odd length) and initiates left moves (even length).

    Both strategies are functions of the observation class alone, hence
    uniform on all histories, and they are compatible with availability
    since agents 1 and 2 may play every non-branching action anywhere.
    """
    m = rc.machine
    g = rc.cgs
    configs: list[Configuration | None] = [parse_configuration(m, (m.q0, m.blank))]

    def config_after(t: int) -> Configuration | None:
        while len(configs) <= t:
            prev = configs[-1]
            if prev is None:
                configs.append(None)
                continue
            nxt = step(m, prev)
            configs.append(nxt if isinstance(nxt, Configuration) else None)
        return configs[t]

    def move_if(j: int, head_at: int, direction: str) -> str | None:
        c = config_after(j - 1)
        if c is None or head_cell(m, c) != head_at:
            return None
        _, q, right = split_configuration(m, c)
        rule = m.delta.get((q, right[0]))
        if rule is None or rule[2] != direction:
            return None
        return rc.move_actions[(q, rule[0], direction)]

    def positions(h: History, prop: str) -> list[int]:
        return [t for t, s in enumerate(h) if prop in g.label.get(s, frozenset())]

    def play1(h: History) -> str:
        pos = positions(h, P1)
        if pos and pos == list(range(1, 2 * len(pos), 2)):
            i = len(pos)
            n = len(h)
            if n >= 4 and n % 2 == 0:
                act = move_if((n - 2) // 2, head_at=i, direction=RIGHT)
                if act:
                    return act
            if n >= 5 and n % 2 == 1:
                act = move_if((n - 3) // 2, head_at=i + 1, direction=LEFT)
                if act:
                    return act
        return IDLE

    def play2(h: History) -> str:
        pos = positions(h, P2)
        if not pos:
            return rc.init_action if len(h) == 3 else IDLE
        if pos == list(range(2, 2 + 2 * len(pos), 2)):
            i = len(pos)
            n = len(h)
            if n >= 5 and n % 2 == 1:
                act = move_if((n - 3) // 2, head_at=i, direction=RIGHT)
                if act:
                    return act
            if n >= 4 and n % 2 == 0:
                act = move_if((n - 2) // 2, head_at=i + 1, direction=LEFT)
                if act:
                    return act
        return IDLE

    return TeamStrategy.of(
        AgentStrategy.from_procedure(1, play1),
        AgentStrategy.from_procedure(2, play2),
    )


def reference_saturate(g, s, team, depth):
    """The maximal tree of extension steps with paths of at most depth+1 nodes.

    Extensions at distinct (node, action) pairs commute, so the result
    does not depend on the order in which they are applied.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    g.check_state(s)
    labels: dict[Path, str] = {(): s}
    histories: dict[Path, History] = {(): (s,)}
    frontier: list[Path] = [()]
    for _ in range(depth):
        nxt: list[Path] = []
        for v in frontier:
            h = histories[v]
            for a in sorted(set(compatible_in_order(g, team, h))):
                s2 = g.delta.get((h[-1], a))
                if s2 is None:
                    continue
                child = v + (a,)
                labels[child] = s2
                histories[child] = h + (s2,)
                nxt.append(child)
        frontier = nxt
    return ComputationTree(s, labels)


def starts_generator_branch(h: History) -> bool:
    """Whether the history enters the generator branch at step one."""
    return len(h) >= 2 and h[0] == S_INIT and h[1] == S_GEN


def reference_classify_history(h: History) -> HistoryType:
    """Which branch shape a history has, from one walk over all of it.

    ``type1`` histories enter the reference branch.  ``type2_open(i)``
    histories saw i cell spawns and i-1 separator spawns: they follow
    the branch of cell i.  ``type2_closed(i)`` histories saw i of each:
    they follow the branch of separator i.  The single-state root
    history and everything unmatched are reported apart.
    """
    h = tuple(h)
    if not h:
        raise ValueError("histories must be non-empty")
    if h == (S_INIT,):
        return ROOT
    if h[0] != S_INIT:
        return OTHER
    if h[1] == S_INIT2:
        return TYPE1
    if h[1] != S_GEN:
        return OTHER
    gens = 0
    trs = 0
    pos = 1
    while pos < len(h):
        want = S_GEN if pos % 2 == 1 else S_TR
        if h[pos] != want:
            break
        if want == S_GEN:
            gens += 1
        else:
            trs += 1
        pos += 1
    rest = h[pos:]
    if any(s in (S_GEN, S_TR) for s in rest):
        return OTHER
    if gens == trs + 1:
        return type2_open(gens)
    if gens == trs and gens >= 1:
        return type2_closed(gens)
    return OTHER


class _ReferenceFacts(NamedTuple):
    """What the claim groups read of one tree node, computed once.

    ``key1`` and ``key2`` are ``Cgs.obs_key`` of the history for agents 1
    and 2.  Histories of one level have equal length, so two of them look
    alike to agent i exactly when their keys for i are equal.
    """

    history: History
    shape: HistoryType
    key1: tuple[int, ...]
    key2: tuple[int, ...]


def reference_node_facts(g, t, limit):
    facts: dict[int, _ReferenceFacts] = {}
    for n in range(limit + 1):
        for v in t.nodes_at_depth(n):
            s = t.label(v)
            path = t.path(v)
            up = facts[t.node(path[:-1])] if path else _ReferenceFacts((), ROOT, (), ())
            h = up.history + (s,)
            # observation keys are pointwise, so each extends its parent's
            facts[v] = _ReferenceFacts(
                h,
                reference_classify_history(h),
                up.key1 + (g.block_of(1, s),),
                up.key2 + (g.block_of(2, s),),
            )
    return facts


def reference_verify_construction(rc, depth):
    """Machine-check the structural and simulation laws of the compiled game.

    Saturates the tree under the simulating strategy and verifies, per
    level, four groups of properties:

    1. history-pair equivalences: which branch shapes may look alike to
       which agent;
    2. level structure: cardinality bound, branch-shape census, and a
       total left-to-right order matching the branch shapes;
    3. complete-level anatomy: downward completeness, the position-to-
       shape map, the equivalence chain between neighbouring branches,
       and the level-form grammar with its succession;
    4. level decoding: every complete odd level from 3 on reads as a
       configuration, and two levels later reads as its successor.

    Failures become report entries naming the offending level, never
    exceptions.  If an error node appears, the checks cover the levels
    before it and the report says where it surfaced.
    """
    if depth < 3:
        raise ValueError("depth must be at least 3")
    m = rc.machine
    g = rc.cgs
    t = reference_saturate(g, S_INIT, reference_simulating_strategy(rc), depth)
    entries: list[ClaimEntry] = []

    err_level = None
    for n in range(depth + 1):
        if any(t.label(v) == S_ERR for v in t.nodes_at_depth(n)):
            err_level = n
            break
    limit = depth if err_level is None else err_level - 1
    entries.append(
        ClaimEntry(
            0,
            "ok-states",
            err_level,
            err_level is None,
            f"no error nodes to depth {depth}"
            if err_level is None
            else f"error state first reached at level {err_level}; "
            f"checks cover levels up to {limit}",
        )
    )

    facts = reference_node_facts(g, t, limit)
    orders: dict[int, list] = {}
    order_fail: dict[int, str] = {}
    for n in range(limit + 1):
        try:
            orders[n] = level(t, n, RIGHTMOST_LABELS)
        except OrderingNotTotal as exc:
            order_fail[n] = str(exc)

    reference_pair_equivalences(t, facts, limit, entries)
    reference_level_structure(t, facts, orders, order_fail, limit, entries)
    complete = {n for n in range(1, limit + 1) if len(t.nodes_at_depth(n)) == n + 1}
    forms = _check_level_anatomy(rc, t, facts, orders, order_fail, complete, entries)
    _check_form_succession(forms, complete, limit, entries)
    reference_check_decoding(rc, t, complete, order_fail, limit, entries)

    return ClaimReport(depth=depth, checked_levels=limit, entries=entries)


def reference_pair_equivalences(t, facts, limit, entries):
    for n in range(1, limit + 1):
        ok = {k: True for k in ("1.1", "1.2", "1.3", "1.4")}
        why = {k: "" for k in ok}
        rows = [
            (
                f.history,
                f.shape,
                f.key1,
                f.key2,
                starts_generator_branch(f.history),
                (f.history.count(S_GEN), f.history.count(S_TR)),
            )
            for f in map(facts.__getitem__, t.nodes_at_depth(n))
        ]
        for h1, c1, k11, k12, gen1, counts1 in rows:
            for h2, c2, k21, k22, gen2, counts2 in rows:
                if h1 == h2:
                    continue
                if c1.kind == "type1" and gen2:
                    if k11 == k21:
                        ok["1.1"], why["1.1"] = False, f"reference branch ~1 {c2}"
                    if k12 == k22 and c2 != type2_open(1):
                        ok["1.2"], why["1.2"] = False, f"reference branch ~2 {c2}"
                if gen1 and gen2:
                    if counts1 == counts2:
                        continue
                    if k11 == k21:
                        fine = (
                            c1.is_refined_type2
                            and c2.is_refined_type2
                            and c1.index == c2.index
                            and {c1.kind, c2.kind} == {"type2_open", "type2_closed"}
                        )
                        if not fine:
                            ok["1.3"], why["1.3"] = False, f"{c1} ~1 {c2}"
                    if k12 == k22:
                        fine = (
                            c1.kind == "type2_closed"
                            and c2.kind == "type2_open"
                            and c2.index == c1.index + 1
                        ) or (
                            c2.kind == "type2_closed"
                            and c1.kind == "type2_open"
                            and c1.index == c2.index + 1
                        )
                        if not fine:
                            ok["1.4"], why["1.4"] = False, f"{c1} ~2 {c2}"
        for k in ("1.1", "1.2", "1.3", "1.4"):
            entries.append(ClaimEntry(1, k, n, ok[k], why[k]))


def reference_level_structure(t, facts, orders, order_fail, limit, entries):
    for n in range(1, limit + 1):
        cs = [facts[v].shape for v in t.nodes_at_depth(n)]
        shapes_ok = len(cs) <= n + 1 and all(
            c.kind in ("type1", "type2_open", "type2_closed") for c in cs
        )
        entries.append(
            ClaimEntry(
                2,
                "2.1",
                n,
                shapes_ok,
                f"{len(cs)} nodes"
                if shapes_ok
                else f"{len(cs)} nodes, shapes {[str(c) for c in cs]}",
            )
        )
        n_ref = sum(1 for c in cs if c.kind == "type1")
        entries.append(ClaimEntry(2, "2.2", n, n_ref <= 1, f"{n_ref} reference nodes"))

        census_ok, detail = True, ""
        for kind, bound in (("type2_open", (n + 1) // 2), ("type2_closed", n // 2)):
            seen = [c.index for c in cs if c.kind == kind]
            if len(seen) != len(set(seen)) or any(i > bound for i in seen):
                census_ok, detail = False, f"{kind} census {sorted(seen)}"
        entries.append(ClaimEntry(2, "2.3", n, census_ok, detail))

        if n in order_fail:
            entries.append(ClaimEntry(2, "2.4", n, False, order_fail[n]))
            entries.append(ClaimEntry(2, "2.5", n, False, order_fail[n]))
            continue
        ordered = [facts[v].shape for v in orders[n]]
        char_ok, detail = True, ""
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                if not _precedes(ordered[a], ordered[b]) or _precedes(ordered[b], ordered[a]):
                    char_ok = False
                    detail = f"positions {a + 1},{b + 1}: {ordered[a]} vs {ordered[b]}"
                    break
            if not char_ok:
                break
        entries.append(ClaimEntry(2, "2.4", n, char_ok, detail))
        entries.append(ClaimEntry(2, "2.5", n, True, "total order"))


def reference_check_decoding(rc, t, complete, order_fail, limit, entries):
    m = rc.machine
    for n in sorted(complete):
        if n < 3 or n % 2 == 0 or n in order_fail:
            continue
        word = decode_level(rc, t, n)
        heads = [k for k, x in enumerate(word) if x in m.states]
        shape_ok = (
            len(heads) == 1
            and heads[0] < len(word) - 1
            and all(x in m.alphabet for k, x in enumerate(word) if k != heads[0])
        )
        entries.append(ClaimEntry(4, "4.1", n, shape_ok, "".join(word)))
        if n + 2 in complete and n + 2 <= limit and (n + 2) not in order_fail:
            nxt = step(m, parse_configuration(m, word))
            got = decode_level(rc, t, n + 2)
            ok = isinstance(nxt, Configuration) and nxt.word == got
            entries.append(
                ClaimEntry(
                    4,
                    "4.2",
                    n,
                    ok,
                    f"{''.join(word)} => {''.join(got)}"
                    if ok
                    else f"step({''.join(word)}) = "
                    f"{''.join(nxt.word) if isinstance(nxt, Configuration) else nxt}"
                    f", level {n + 2} decodes to {''.join(got)}",
                )
            )


def reference_main(argv) -> int:
    """``atlir.cli.main`` with a parser built for this call alone."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def run_cli(main, argv) -> tuple:
    """What a command-line call shows: its return code or ``SystemExit``
    code, standard output and standard error.  The ``elapsed:`` time that
    ``check`` prints is blanked, since it differs from run to run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ("return", main(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), re.sub(r"elapsed: [0-9.]+s", "elapsed: -", err.getvalue())
