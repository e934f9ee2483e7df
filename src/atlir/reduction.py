"""Compiling a deterministic Turing machine into a three-agent game.

The compiled structure encodes machine configurations horizontally: in a
computation tree of the game, the nodes of one tree level spell out one
tape, cell by cell, left to right.  State roles:

* ``s_init`` / ``s_init'``: the root and the entry to a reference branch
  that tracks the tape's left border.
* ``s_lb`` / ``s_lb'``: the left border cell and its steady state.
* ``s_gen``: spawns a fresh blank cell (the only state agent 1 observes).
* ``s_tr``: spawns a fresh cell separator (the only state agent 2 observes).
* ``s_tr'``: a cell separator; also the relay through which head moves
  travel between neighbouring branches.
* ``s_<a>``: a tape cell holding symbol ``a``.
* ``s_<q>,<a>``: the scanned cell: symbol ``a``, control state ``q``.
* ``s_<q>,<q'>,<L|R>``: a separator carrying a move of the machine from
  ``q`` to ``q'`` in the given direction.
* ``s_err``: absorbing sink for every deviation; the safety objective of
  agents 1 and 2 is to keep the play out of it.

Agents 1 and 2 may play anything but the branching actions; agent 3 only
branches (at ``s_init``, ``s_gen``, ``s_tr``) or idles.  Agent i in
{1, 2} observes exactly whether ``p_i`` holds, i.e. only distinguishes
``s_gen`` (respectively ``s_tr``) from everything else, so its uniform
strategies are functions of the history's ``p_i`` bit profile.

The machine halts on the empty word if and only if every joint strategy
of agents 1 and 2 eventually drops a reachable computation-tree node
into ``s_err``; the canonical simulating strategy below witnesses the
converse direction at any finite depth.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .cgs import Cgs, History
from .comptree import ComputationTree, OrderingNotTotal, is_complete_level, level, saturate
from .strategies import AgentStrategy, TeamStrategy
from .turing import (
    LEFT,
    RIGHT,
    Configuration,
    MalformedMachine,
    TuringMachine,
    head_cell,
    lint_initial_state_reentry,
    minimal_word,
    parse_configuration,
    split_configuration,
    step,
)

IDLE = "idle"
BR1 = "br1"
BR2 = "br2"

S_INIT = "s_init"
S_INIT2 = "s_init'"
S_LB = "s_lb"
S_LB2 = "s_lb'"
S_GEN = "s_gen"
S_TR = "s_tr"
S_TR2 = "s_tr'"
S_ERR = "s_err"

OK = "ok"
P1 = "p1"
P2 = "p2"

RIGHTMOST_LABELS = frozenset({S_GEN, S_TR})


class IncompleteLevel(Exception):
    pass


def cell_state(a: str) -> str:
    return f"s_{a}"


def head_state(q: str, a: str) -> str:
    return f"s_{q},{a}"


def carrier_state(q: str, q2: str, move: str) -> str:
    return f"s_{q},{q2},{move}"


def move_action(q: str, q2: str, move: str) -> str:
    return f"({q},{q2},{move})"


def init_action(q0: str) -> str:
    return f"({q0})"


@dataclass
class ReductionCgs:
    """The compiled game plus the name maps of the construction."""

    cgs: Cgs
    machine: TuringMachine
    cell_states: dict[str, str]
    head_states: dict[tuple[str, str], str]
    carrier_states: dict[tuple[str, str, str], str]
    move_actions: dict[tuple[str, str, str], str]
    init_action: str
    lint: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.cell_of = {name: a for a, name in self.cell_states.items()}
        self.head_of = {name: qa for qa, name in self.head_states.items()}


def build_cgs(m: TuringMachine) -> ReductionCgs:
    """Compile a machine into its three-agent game structure.

    Move carrier states and move actions exist only for the (q, q', X)
    triples realised by some rule of the machine.  Every available joint
    action not listed by the construction leads to ``s_err``, and
    ``s_err`` loops to itself under everything, which makes the
    transition map total exactly on the available tuples.

    Raises :class:`MalformedMachine` when a tape symbol's cell state
    would take the name of a bookkeeping state (symbols ``init``, ``lb``,
    ``gen``, ``tr`` and ``err``).
    """
    fixed = [S_INIT, S_INIT2, S_LB, S_LB2, S_GEN, S_TR, S_TR2, S_ERR]
    cells = {a: cell_state(a) for a in sorted(m.alphabet)}
    heads = {
        (q, a): head_state(q, a)
        for q in sorted(m.states)
        for a in sorted(m.alphabet)
    }
    moves = sorted({(q, q2, mv) for (q, _), (q2, _, mv) in m.delta.items()})
    carriers = {t: carrier_state(*t) for t in moves}
    states = fixed + list(cells.values()) + list(heads.values()) + list(carriers.values())
    if len(set(states)) != len(states):
        clash = sorted({s for s in states if states.count(s) > 1})
        raise MalformedMachine(f"generated state names collide: {', '.join(clash)}")

    movacts = {t: move_action(*t) for t in moves}
    q0act = init_action(m.q0)
    actions = [IDLE, q0act] + [movacts[t] for t in moves] + [BR1, BR2]

    label = {s: {OK} for s in states}
    label[S_GEN] = {P1, OK}
    label[S_TR] = {P2, OK}
    label[S_ERR] = set()

    def split_by(prop):
        inside = sorted(s for s in states if prop in label[s])
        outside = sorted(s for s in states if prop not in label[s])
        return [inside, outside]

    obs = {
        1: split_by(P1),
        2: split_by(P2),
        3: [[s] for s in sorted(states)],
    }

    acts12 = sorted(set(actions) - {BR1, BR2})
    avail = {
        1: {s: acts12 for s in states},
        2: {s: acts12 for s in states},
        3: {
            s: ([BR1, BR2] if s in (S_INIT, S_GEN, S_TR) else [IDLE])
            for s in states
        },
    }

    iii = (IDLE, IDLE, IDLE)
    listed: dict[tuple[str, tuple[str, str, str]], str] = {}

    def arrow(src, tup, dst):
        listed[(src, tuple(tup))] = dst

    arrow(S_INIT, (IDLE, IDLE, BR1), S_INIT2)
    arrow(S_INIT, (IDLE, IDLE, BR2), S_GEN)
    arrow(S_INIT2, iii, S_LB)
    arrow(S_LB, (IDLE, q0act, IDLE), S_LB2)
    arrow(S_LB2, iii, S_LB2)
    arrow(S_GEN, (IDLE, IDLE, BR1), cells[m.blank])
    arrow(S_GEN, (IDLE, IDLE, BR2), S_TR)
    arrow(S_TR, (IDLE, IDLE, BR1), S_TR2)
    arrow(S_TR, (IDLE, IDLE, BR2), S_GEN)

    for a, sa in cells.items():
        arrow(sa, iii, sa)
        for (q, q2, mv), act in movacts.items():
            # the head enters a neighbouring cell already in its new state
            if mv == RIGHT:
                arrow(sa, (IDLE, act, IDLE), heads[(q2, a)])
            else:
                arrow(sa, (act, IDLE, IDLE), heads[(q2, a)])
    arrow(cells[m.blank], (IDLE, q0act, IDLE), heads[(m.q0, m.blank)])

    for (q, a), sqa in heads.items():
        rule = m.delta.get((q, a))
        if rule is not None:
            q2, written, mv = rule
            act = movacts[(q, q2, mv)]
            if mv == RIGHT:
                arrow(sqa, (act, IDLE, IDLE), cells[written])
            else:
                arrow(sqa, (IDLE, act, IDLE), cells[written])

    arrow(S_TR2, iii, S_TR2)
    for (q, q2, mv), act in movacts.items():
        if mv == RIGHT:
            arrow(S_TR2, (act, IDLE, IDLE), carriers[(q, q2, mv)])
            arrow(carriers[(q, q2, mv)], (IDLE, act, IDLE), S_TR2)
        else:
            arrow(S_TR2, (IDLE, act, IDLE), carriers[(q, q2, mv)])
            arrow(carriers[(q, q2, mv)], (act, IDLE, IDLE), S_TR2)

    # every listed arrow is on an available tuple, so the update keeps
    # the keys, and their order, of the fill
    delta = dict.fromkeys(
        ((s, tup) for s in states for tup in itertools.product(acts12, acts12, avail[3][s])),
        S_ERR,
    )
    delta.update(listed)

    g = Cgs(
        agents=3,
        states=states,
        props=[P1, P2, OK],
        label=label,
        obs=obs,
        actions=actions,
        avail=avail,
        delta=delta,
    )
    return ReductionCgs(
        cgs=g,
        machine=m,
        cell_states=cells,
        head_states=heads,
        carrier_states=carriers,
        move_actions=movacts,
        init_action=q0act,
        lint=lint_initial_state_reentry(m),
    )


# -- history classification --------------------------------------------------


@dataclass(frozen=True)
class HistoryType:
    kind: str  # "root" | "type1" | "type2_open" | "type2_closed" | "other"
    index: int | None = None

    @property
    def is_refined_type2(self) -> bool:
        return self.kind in ("type2_open", "type2_closed")

    def __str__(self):
        if self.kind == "type2_open":
            return f"type2({self.index})({self.index - 1})"
        if self.kind == "type2_closed":
            return f"type2({self.index})({self.index})"
        return self.kind


ROOT = HistoryType("root")
TYPE1 = HistoryType("type1")
OTHER = HistoryType("other")


# shapes are immutable, so each is made once
@functools.cache
def type2_open(i: int) -> HistoryType:
    return HistoryType("type2_open", i)


@functools.cache
def type2_closed(i: int) -> HistoryType:
    return HistoryType("type2_closed", i)


def classify_history(h: History) -> HistoryType:
    """Which branch shape a history has.

    ``type1`` histories enter the reference branch.  ``type2_open(i)``
    histories saw i cell spawns and i-1 separator spawns: they follow
    the branch of cell i.  ``type2_closed(i)`` histories saw i of each:
    they follow the branch of separator i.  The single-state root
    history and everything unmatched are reported apart.
    """
    c = last = None
    for s in h:
        c, last = _next_shape(c, last, s), s
    if c is None:
        raise ValueError("histories must be non-empty")
    return c


def _next_shape(c: HistoryType | None, last: str | None, s: str) -> HistoryType:
    """``classify_history(h + (s,))`` from ``c = classify_history(h)`` and
    ``last = h[-1]``; ``c`` and ``last`` are None for the empty ``h``.

    A refined type-2 history whose last state spawns (``s_gen`` or
    ``s_tr``) is still inside its alternating spawn prefix; any other
    ends in a tail that must stay free of spawns.
    """
    if c is None:
        return ROOT if s == S_INIT else OTHER
    if c.kind == "root":
        return TYPE1 if s == S_INIT2 else type2_open(1) if s == S_GEN else OTHER
    if not c.is_refined_type2:
        return c
    if last == S_TR and s == S_GEN:
        return type2_open(c.index + 1)
    if last == S_GEN and s == S_TR:
        return type2_closed(c.index)
    return OTHER if s in (S_GEN, S_TR) else c


# -- the canonical simulating strategy ----------------------------------------


def simulating_strategy(rc: ReductionCgs) -> TeamStrategy:
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

    Exactly one state carries ``p1`` (``s_gen``) and exactly one carries
    ``p2`` (``s_tr``).  So an agent's memory is the history's length, its
    count of that state, and whether each occurrence so far fell on the
    pattern's next position.
    """
    m = rc.machine
    # moves[j - 1]: (scanned cell, direction, move action) of the rule that
    # machine step j applies; c is the configuration after len(moves)
    # steps, or None once the machine has halted
    moves: list[tuple[int, str, str]] = []
    c: Configuration | None = parse_configuration(m, (m.q0, m.blank))

    def move_if(j: int, head_at: int, direction: str) -> str | None:
        nonlocal c
        while len(moves) < j and c is not None:
            _, q, right = split_configuration(m, c)
            rule = m.delta.get((q, right[0]))
            if rule is None:
                c = None
                break
            moves.append((head_cell(m, c), rule[2], rc.move_actions[(q, rule[0], rule[2])]))
            nxt = step(m, c)
            c = nxt if isinstance(nxt, Configuration) else None
        if len(moves) < j:
            return None
        cell, d, act = moves[j - 1]
        return act if cell == head_at and d == direction else None

    def playing(agent: int, spawn: str) -> AgentStrategy:
        def update(g, memory, s):
            n, i, intact = memory
            if s == spawn:
                # the k-th spawn (from 0) belongs at position 2k + agent
                return n + 1, i + 1, intact and n == 2 * i + agent
            return n + 1, i, intact

        def play(memory) -> str:
            n, i, intact = memory
            if agent == 2 and not i:
                return rc.init_action if n == 3 else IDLE
            if i and intact and n >= 4:
                # agent 1 initiates right moves on even lengths, agent 2 on odd
                right = (n + agent) % 2 == 1
                act = move_if((n - 2) // 2, i if right else i + 1, RIGHT if right else LEFT)
                return act or IDLE
            return IDLE

        return AgentStrategy(agent, (0, 0, True), update, play)

    return TeamStrategy.of(playing(1, S_GEN), playing(2, S_TR))


def simulation_tree(rc: ReductionCgs, depth: int) -> ComputationTree:
    """Saturated tree from the initial state under the simulating strategy."""
    return saturate(rc.cgs, S_INIT, simulating_strategy(rc), depth)


def error_level(t: ComputationTree) -> int | None:
    """The first level of ``t`` that holds an ``s_err`` node, or None."""
    for n in range(t.max_depth + 1):
        if S_ERR in map(t.label, t.nodes_at_depth(n)):
            return n
    return None


def horizon(depth: int) -> int:
    """Machine steps that a depth-``depth`` tree keeps honest.

    If the machine runs this many steps without halting, the saturated
    simulation tree to ``depth`` contains no error node.
    """
    if depth < 3:
        return 0
    return -(-(depth - 3) // 2) + 1


# -- level decoding ------------------------------------------------------------


def _image(rc: ReductionCgs, state: str) -> tuple[str, ...]:
    sym = rc.cell_of.get(state)
    if sym is not None:
        return (sym,)
    qa = rc.head_of.get(state)
    if qa is not None:
        return qa
    return ()


def decode_level(rc: ReductionCgs, t: ComputationTree, n: int) -> tuple[str, ...]:
    """Read a tree level back as a configuration word.

    The level's nodes are taken left to right; cell states contribute
    their symbol, the scanned cell contributes state and symbol, and the
    bookkeeping states vanish.  Blank cells to the right of both the
    head and the last written symbol are generator padding and are
    stripped, so the odd levels of a simulation decode to exactly the
    machine's configurations.
    """
    if not is_complete_level(t, n):
        raise IncompleteLevel(
            f"level {n} has {len(t.nodes_at_depth(n))} nodes, needs {n + 1}"
        )
    return _read_word(rc, t, level(t, n, RIGHTMOST_LABELS))


def _read_word(rc: ReductionCgs, t: ComputationTree, ordered: list) -> tuple[str, ...]:
    """The word of a complete level's nodes, given left to right."""
    word: list[str] = []
    for v in ordered:
        word.extend(_image(rc, t.label(v)))
    if sum(x in rc.machine.states for x in word) == 1:
        return minimal_word(rc.machine, tuple(word))
    return tuple(word)


# -- construction checks ---------------------------------------------------------


@dataclass
class ClaimEntry:
    claim: int
    subclaim: str
    level: int | None
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "subclaim": self.subclaim,
            "level": self.level,
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass
class ClaimReport:
    depth: int
    checked_levels: int
    entries: list[ClaimEntry]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[ClaimEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


def _order_key(c: HistoryType):
    if c.kind == "type2_open":
        return (c.index, c.index - 1)
    if c.kind == "type2_closed":
        return (c.index, c.index)
    return None


def _precedes(c1: HistoryType, c2: HistoryType) -> bool:
    """The predicted strict order between two distinct level positions."""
    if c1.kind == "type1":
        return True
    k1, k2 = _order_key(c1), _order_key(c2)
    return k1 is not None and k2 is not None and k1 < k2


class _NodeFacts(NamedTuple):
    """What the claim groups read of one tree node, built from its parent's.

    ``key1`` and ``key2`` are ids that two nodes of one level share
    exactly when their histories' ``Cgs.obs_key`` for agent 1 (2) are
    equal, that is, when the histories look alike to that agent.
    ``gen`` says whether the history enters the generator branch at step
    one; ``spawns`` counts its ``s_gen`` and its ``s_tr`` states.
    """

    shape: HistoryType
    key1: int
    key2: int
    gen: bool
    spawns: tuple[int, int]


def verify_construction(rc: ReductionCgs, depth: int) -> ClaimReport:
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
    g = rc.cgs
    t = simulation_tree(rc, depth)
    entries: list[ClaimEntry] = []

    err_level = error_level(t)
    limit = depth if err_level is None else err_level - 1
    facts = _node_facts(g, t, limit)
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

    orders: dict[int, list] = {}
    order_fail: dict[int, str] = {}
    for n in range(limit + 1):
        try:
            orders[n] = level(t, n, RIGHTMOST_LABELS)
        except OrderingNotTotal as exc:
            order_fail[n] = str(exc)

    _check_pair_equivalences(t, facts, limit, entries)
    _check_level_structure(t, facts, orders, order_fail, limit, entries)
    complete = {n for n in range(1, limit + 1) if is_complete_level(t, n)}
    forms = _check_level_anatomy(rc, t, facts, orders, order_fail, complete, entries)
    _check_form_succession(forms, complete, limit, entries)
    _check_decoding(rc, t, complete, orders, limit, entries)

    return ClaimReport(depth=depth, checked_levels=limit, entries=entries)


_NO_FACTS = _NodeFacts(None, -1, -1, False, (0, 0))  # the empty history's
# _NodeFacts from a tuple of the fields, without the Python-level __new__
_facts_of = functools.partial(tuple.__new__, _NodeFacts)


def _facts_step(g: Cgs):
    """``step(up, up_label, s)``: the facts of a history extended by ``s``,
    from the history's (``up``) and its last state (None if empty)."""
    # key ids: the id of a parent's key extended by one block
    ids: dict[tuple[int, int], int] = {}
    blocks: dict[str, tuple[int, int]] = {}  # per state, for agents 1 and 2

    def step(up: _NodeFacts, up_label: str | None, s: str) -> _NodeFacts:
        shape, key1, key2, gen, spawns = up
        b1, b2 = blocks.get(s) or blocks.setdefault(s, (g.block_of(1, s), g.block_of(2, s)))
        # observation keys are pointwise, so each extends its parent's
        key1 = ids.setdefault((key1, b1), len(ids))
        key2 = ids.setdefault((key2, b2), len(ids))
        if s != S_GEN and s != S_TR and shape is not None and shape.kind != "root":
            # below the root, a state that spawns nothing keeps the shape
            # (see _next_shape), gen and the spawn counts
            return _facts_of((shape, key1, key2, gen, spawns))
        gens, trs = spawns
        shape2 = _next_shape(shape, up_label, s)
        gen = gen or (s == S_GEN and shape == ROOT)
        return _facts_of((shape2, key1, key2, gen, (gens + (s == S_GEN), trs + (s == S_TR))))

    return step


def _node_facts(g: Cgs, t: ComputationTree, limit: int) -> list[_NodeFacts]:
    """The facts of every node down to depth ``limit``, each from its
    parent's, indexed by node id (ids run level by level)."""
    step = _facts_step(g)
    labels = [t.label(0)]
    facts = [step(_NO_FACTS, None, labels[0])]
    for n in range(1, limit + 1):
        below, size = t.parents_at_depth(n), len(labels)
        labels.extend(map(t.label, t.nodes_at_depth(n)))
        ups = map(facts.__getitem__, below)
        facts.extend(map(step, ups, map(labels.__getitem__, below), labels[size:]))
    return facts


def _check_pair_equivalences(t, facts, limit, entries):
    """Claims 1.1-1.4: which branch shapes look alike to which agent.

    A pair of nodes can fail a claim only if their histories look alike
    to the claim's agent, so only pairs within one observation key are
    compared.  A pair with equal histories, a node with itself included,
    fails none: a type-1 history never enters the generator branch, and
    equal histories have equal spawn counts.  So a node is never paired
    with itself.  Each claim reports the last failing pair in the order
    of a row-major scan of the level's nodes against themselves.
    """
    for n in range(1, limit + 1):
        rows = [facts[v] for v in t.nodes_at_depth(n)]
        # per subclaim: the last failing pair (a, b) and its detail
        last: dict[str, tuple[tuple[int, int], str]] = {}

        def fail(sub, a, b, detail):
            if sub not in last or (a, b) > last[sub][0]:
                last[sub] = ((a, b), detail)

        for agent in (1, 2):
            groups: dict[int, list[int]] = {}
            for a, f in enumerate(rows):
                if f.gen or f.shape.kind == "type1":
                    groups.setdefault(f.key1 if agent == 1 else f.key2, []).append(a)
            for group in groups.values():
                for a, b in itertools.combinations(group, 2):
                    f1, f2 = rows[a], rows[b]
                    c1, c2 = f1.shape, f2.shape
                    for x, y, cx, fy in ((a, b, c1, f2), (b, a, c2, f1)):
                        if cx.kind == "type1" and fy.gen:
                            if agent == 1:
                                fail("1.1", x, y, f"reference branch ~1 {fy.shape}")
                            elif fy.shape != type2_open(1):
                                fail("1.2", x, y, f"reference branch ~2 {fy.shape}")
                    if not (f1.gen and f2.gen) or f1.spawns == f2.spawns:
                        continue
                    # 1.3 and 1.4 fail a pair both ways, and (b, a) comes later
                    if agent == 1 and not (
                        c1.is_refined_type2
                        and c2.is_refined_type2
                        and c1.index == c2.index
                        and c1.kind != c2.kind  # one open, one closed
                    ):
                        fail("1.3", b, a, f"{c2} ~1 {c1}")
                    if agent == 2 and not (
                        (
                            c1.kind == "type2_closed"
                            and c2.kind == "type2_open"
                            and c2.index == c1.index + 1
                        )
                        or (
                            c2.kind == "type2_closed"
                            and c1.kind == "type2_open"
                            and c1.index == c2.index + 1
                        )
                    ):
                        fail("1.4", b, a, f"{c2} ~2 {c1}")
        for k in ("1.1", "1.2", "1.3", "1.4"):
            entries.append(ClaimEntry(1, k, n, k not in last, last[k][1] if k in last else ""))


def _first_misordered(shapes: list[HistoryType]) -> tuple[int, int] | None:
    """The first pair of positions a < b, in row-major order, whose shapes
    :func:`_precedes` does not order strictly a before b.

    Position a fails with some later position exactly when: a is type 1
    and a later one is too; or a has no order key (other shapes); or a
    later position has no order key or a key no larger than a's.  A
    suffix minimum of the keys, with a missing key lowest, finds the
    first failing a in one pass from the right; its partner is the first
    failing b after it.
    """
    size = len(shapes)
    keys = [_order_key(c) for c in shapes]
    lowest = (-1, -1)  # below every order key
    suffix_min: list = [None] * size  # over positions after a
    suffix_type1 = [False] * size
    low, type1 = None, False
    for a in range(size - 1, -1, -1):
        suffix_min[a], suffix_type1[a] = low, type1
        k = lowest if keys[a] is None else keys[a]
        low = k if low is None or k < low else low
        type1 = type1 or shapes[a].kind == "type1"
    for a in range(size - 1):
        x = shapes[a]
        if x.kind == "type1":
            bad = suffix_type1[a]
        else:
            bad = keys[a] is None or suffix_min[a] <= keys[a]
        if bad:
            b = next(
                b
                for b in range(a + 1, size)
                if not _precedes(x, shapes[b]) or _precedes(shapes[b], x)
            )
            return a, b
    return None


def _check_level_structure(t, facts, orders, order_fail, limit, entries):
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
        pair = _first_misordered(ordered)
        if pair is not None:
            a, b = pair
            char_ok = False
            detail = f"positions {a + 1},{b + 1}: {ordered[a]} vs {ordered[b]}"
        entries.append(ClaimEntry(2, "2.4", n, char_ok, detail))
        entries.append(ClaimEntry(2, "2.5", n, True, "total order"))


def _check_level_anatomy(rc, t, facts, orders, order_fail, complete, entries):
    forms: dict[int, str] = {}
    for n in sorted(complete):
        if n in order_fail:
            continue
        labels = [t.label(v) for v in orders[n]]
        row = [facts[v] for v in orders[n]]

        down_ok = all(k in complete for k in range(1, n))
        entries.append(ClaimEntry(3, "3.1", n, down_ok, ""))

        pos_ok, detail = True, ""
        for k, f in enumerate(row, start=1):
            c = f.shape
            if k == 1:
                want = c.kind == "type1"
            elif k % 2 == 0:
                want = c == type2_open(k // 2)
            else:
                want = c == type2_closed(k // 2)
            if not want:
                pos_ok, detail = False, f"position {k} is {c}"
                break
        entries.append(ClaimEntry(3, "3.2", n, pos_ok, detail))

        adj_ok, detail = True, ""
        if len(row) >= 2 and row[0].key2 != row[1].key2:
            adj_ok, detail = False, "positions 1,2 not alike for agent 2"
        for i in range(1, (n + 1) // 2 + 1):
            a, b = 2 * i - 1, 2 * i  # 0-based: positions 2i and 2i+1
            if b < len(row) and row[a].key1 != row[b].key1:
                adj_ok, detail = False, f"positions {a + 1},{b + 1} not alike for agent 1"
            c, d = 2 * i, 2 * i + 1  # 0-based: positions 2i+1 and 2i+2
            if d < len(row) and row[c].key2 != row[d].key2:
                adj_ok, detail = False, f"positions {c + 1},{d + 1} not alike for agent 2"
        entries.append(ClaimEntry(3, "3.3", n, adj_ok, detail))

        form, why = _level_form(rc, n, labels)
        if form is not None:
            forms[n] = form
        entries.append(ClaimEntry(3, "3.4", n, form is not None, why))
    return forms


def _check_form_succession(forms, complete, limit, entries):
    succession = {"a": "b", "b": "c", "c": "d", "d": "c"}
    for n in sorted(complete):
        if n + 1 > limit:
            continue
        want = succession.get(forms.get(n))
        got = forms.get(n + 1)
        ok = (n + 1) in complete and want is not None and got == want
        entries.append(
            ClaimEntry(
                3,
                "3.5",
                n,
                ok,
                f"form {forms.get(n)} -> {got}"
                if ok
                else f"level {n + 1}: complete={(n + 1) in complete}, "
                f"form {forms.get(n)} -> {got}, wanted {want}",
            )
        )


def _check_decoding(rc, t, complete, orders, limit, entries):
    m = rc.machine
    # each eligible level's word is read once, from its order, for claims 4.1 and 4.2
    words = {
        n: _read_word(rc, t, orders[n])
        for n in sorted(complete)
        if n >= 3 and n % 2 == 1 and n in orders
    }
    for n, word in words.items():
        heads = [k for k, x in enumerate(word) if x in m.states]
        shape_ok = (
            len(heads) == 1
            and heads[0] < len(word) - 1
            and all(x in m.alphabet for k, x in enumerate(word) if k != heads[0])
        )
        entries.append(ClaimEntry(4, "4.1", n, shape_ok, "".join(word)))
        got = words.get(n + 2)
        if got is not None and n + 2 <= limit:
            nxt = step(m, parse_configuration(m, word))
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


def _level_form(rc: ReductionCgs, n: int, labels: list[str]):
    """Match an ordered complete level against the four level forms.

    Returns ``(form, detail)`` with form one of "a".."d" on a match and
    ``(None, why)`` otherwise.  Form "a" is the two branch entries, "b"
    the first full border/cell/spawner row, "c" a configuration row
    (cells and separators, one scanned cell, fresh cell spawner at the
    right), "d" a transfer row (one move carrier in a separator slot,
    fresh blank cell and separator spawner at the right).
    """
    m = rc.machine
    if n == 1:
        ok = labels == [S_INIT2, S_GEN]
        return ("a", "") if ok else (None, f"level 1 is {labels}")
    if n == 2:
        ok = labels == [S_LB, rc.cell_states[m.blank], S_TR]
        return ("b", "") if ok else (None, f"level 2 is {labels}")
    if n % 2 == 1:
        if labels[0] != S_LB2 or labels[-1] != S_GEN:
            return None, f"borders are {labels[0]}, {labels[-1]}"
        scanned = 0
        for k in range(1, n):
            if k % 2 == 1:
                if labels[k] in rc.head_of:
                    scanned += 1
                elif labels[k] not in rc.cell_of:
                    return None, f"position {k + 1} is {labels[k]}, not a cell"
            elif labels[k] != S_TR2:
                return None, f"position {k + 1} is {labels[k]}, not a separator"
        if scanned != 1:
            return None, f"{scanned} scanned cells, expected 1"
        return "c", f"{(n - 1) // 2} cells"
    if labels[0] != S_LB2 or labels[-1] != S_TR or labels[-2] != rc.cell_states[m.blank]:
        return None, f"border {labels[0]}, tail {labels[-2:]}"
    carriers = 0
    carrier_names = set(rc.carrier_states.values())
    for k in range(1, n - 1):
        if k % 2 == 1:
            if labels[k] not in rc.cell_of:
                return None, f"position {k + 1} is {labels[k]}, not a cell"
        else:
            if labels[k] in carrier_names:
                carriers += 1
            elif labels[k] != S_TR2:
                return None, f"position {k + 1} is {labels[k]}"
    if carriers != 1:
        return None, f"{carriers} move carriers, expected 1"
    return "d", ""
