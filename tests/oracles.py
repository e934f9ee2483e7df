"""Independent oracles and generators for the differential tests.

Nothing here touches the strategy-search code paths under test: the
safety oracle is a plain set fixpoint on the state graph, the reference
checker enumerates whole strategy tables per depth, the tree twin grows
explicit computation trees, and the generator builds structures
directly.  The reference level ordering closes explicit pair sets, level
by level from the root, on every call, and the reference validator tests
every transition row against the availability sets.
"""

import itertools
import random

from atlir.cgs import Cgs, Violation
from atlir.comptree import ComputationTree, OrderingNotTotal, extend, single_node
from atlir.formulas import And, Atom, Globally, Next, Not, Until
from atlir.mc import BoundTooSmall, Truth, UnknownProposition, Verdict
from atlir.strategies import AgentStrategy, TeamStrategy, compatible_tuples, outcomes


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
    the strategies module, so this shares no code with either checker.
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
                for a in sorted(compatible_tuples(g, team_strategy, h)):
                    grown = extend(g, team_strategy, grown, v, a)
                    t = grown.label(v + (a,))
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
# the same list or raise OrderingNotTotal with the same message.


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
        rel: set = set()
        prev = rels[n - 1]
        for v, w in itertools.permutations(nodes, 2):
            if t.label(w) in last_labels:
                rel.add((v, w))
            if v[:-1] != w[:-1] and (v[:-1], w[:-1]) in prev:
                rel.add((v, w))
        rels[n] = _transitive_closure(rel, nodes)
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
# order.


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
