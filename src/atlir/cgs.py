"""Concurrent game structures with per-agent observation equivalences.

States, actions and atomic propositions are plain strings; agents are the
integers ``1..k``.  A joint action is a length-k tuple with one action per
agent, in agent order.  Observation equivalences are stored as partitions
of the state set (one partition per agent), which makes equivalence
queries O(1) and transitivity structural.

The transition map ``delta`` is an explicit finite dictionary from
``(state, joint_action)`` to a state.  On a well-formed structure it is
defined exactly on the joint actions whose components are available to
every agent at the source state.

Structures are immutable after construction; every operation in this
module is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

JointAction = tuple[str, ...]
History = tuple[str, ...]


class CgsError(Exception):
    """Base class for structure and lookup errors."""


class UnknownState(CgsError):
    pass


class UnknownAgent(CgsError):
    pass


class UnknownAction(CgsError):
    pass


class InvalidCgs(CgsError):
    """Raised by the loader when a file fails validation."""

    def __init__(self, violations: Iterable["Violation"]):
        self.violations = list(violations)
        parts = [v.message for v in self.violations[:5]]
        if len(self.violations) > 5:
            parts.append(f"(+{len(self.violations) - 5} more)")
        super().__init__("invalid game structure: " + "; ".join(parts))


@dataclass(frozen=True)
class Violation:
    """One broken well-formedness condition, reported as data.

    ``kind`` is a stable identifier, ``subject`` names the offending
    state/agent/tuple, and ``message`` is human-readable.
    """

    kind: str
    subject: tuple
    message: str


class Cgs:
    """A k-agent game structure over finite state and action sets.

    Parameters
    ----------
    agents:
        The number of agents k; agents are addressed as 1..k.
    states, props, actions:
        Finite non-empty collections of identifiers.
    label:
        Mapping from state to the propositions holding there.  States
        missing from the mapping carry no propositions.
    obs:
        Mapping from agent to a partition of the states, given as an
        iterable of blocks.  Two states are indistinguishable for the
        agent exactly when they share a block.
    avail:
        Mapping ``{agent: {state: actions}}`` of available actions.
    delta:
        Mapping ``{(state, joint_action): state}``.

    The constructor rejects references to undeclared identifiers and
    malformed joint actions.  Semantic conditions (partition coverage,
    non-empty availability, availability uniform across observation
    blocks, delta total exactly on available tuples) are checked by
    :func:`validate_cgs`, which reports violations as data.
    """

    def __init__(self, agents, states, props, label, obs, actions, avail, delta):
        self.agents = int(agents)
        if self.agents < 1:
            raise CgsError("agent count must be at least 1")
        self.states = frozenset(states)
        self.props = frozenset(props)
        self.actions = frozenset(actions)
        if not self.states:
            raise CgsError("state set must be non-empty")
        if not self.actions:
            raise CgsError("action set must be non-empty")

        self.label: dict[str, frozenset[str]] = {}
        for s, ps in dict(label).items():
            if s not in self.states:
                raise UnknownState(f"labeling mentions undeclared state {s!r}")
            for p in ps:
                if p not in self.props:
                    raise CgsError(f"labeling of {s!r} uses undeclared proposition {p!r}")
            self.label[s] = frozenset(ps)
        for s in self.states:
            self.label.setdefault(s, frozenset())

        self.obs: dict[int, tuple[tuple[str, ...], ...]] = {}
        self._block: dict[tuple[int, str], int] = {}
        for i, blocks in dict(obs).items():
            i = int(i)
            if not 1 <= i <= self.agents:
                raise UnknownAgent(f"observation partition for undeclared agent {i}")
            canon = sorted(tuple(sorted(set(b))) for b in blocks if b)
            for b in canon:
                for s in b:
                    if s not in self.states:
                        raise UnknownState(f"observation partition of agent {i} mentions {s!r}")
            self.obs[i] = tuple(canon)
            for bi, b in enumerate(canon):
                for s in b:
                    self._block.setdefault((i, s), bi)

        self.avail: dict[tuple[int, str], frozenset[str]] = {}
        for i, per_state in dict(avail).items():
            i = int(i)
            if not 1 <= i <= self.agents:
                raise UnknownAgent(f"availability for undeclared agent {i}")
            for s, acts in dict(per_state).items():
                if s not in self.states:
                    raise UnknownState(f"availability of agent {i} mentions state {s!r}")
                for a in acts:
                    if a not in self.actions:
                        raise UnknownAction(f"availability of agent {i} at {s!r} uses {a!r}")
                self.avail[(i, s)] = frozenset(acts)

        self._avail_sorted = {k: tuple(sorted(v)) for k, v in self.avail.items()}
        self._succ: dict[str, tuple[str, ...]] = {}

        self.delta: dict[tuple[str, JointAction], str] = dict(delta)
        # only rows off the available (state, joint action) pairs, or into
        # undeclared states, are walked one by one to report the first bad one
        available = {(s, a) for s in self.states for a in self.joint_choices(s)}
        if available.issuperset(self.delta) and self.states.issuperset(self.delta.values()):
            self._rows_exact = len(self.delta) == len(available)
        else:
            rows, self.delta = self.delta, {}
            for (s, a), t in rows.items():
                a = tuple(a)
                if s not in self.states:
                    raise UnknownState(f"transition from undeclared state {s!r}")
                if t not in self.states:
                    raise UnknownState(f"transition into undeclared state {t!r}")
                if len(a) != self.agents:
                    raise CgsError(f"joint action {a!r} has length {len(a)}, expected {self.agents}")
                for x in a:
                    if x not in self.actions:
                        raise UnknownAction(f"transition at {s!r} uses undeclared action {x!r}")
                self.delta[(s, a)] = t
            self._rows_exact = self.delta.keys() == available

    # -- lookups ---------------------------------------------------------

    def check_agent(self, i: int) -> int:
        if not 1 <= i <= self.agents:
            raise UnknownAgent(f"agent {i} not in 1..{self.agents}")
        return i

    def check_state(self, s: str) -> str:
        if s not in self.states:
            raise UnknownState(f"undeclared state {s!r}")
        return s

    def available(self, i: int, s: str) -> frozenset[str]:
        self.check_agent(i)
        self.check_state(s)
        return self.avail.get((i, s), frozenset())

    def available_sorted(self, i: int, s: str) -> tuple[str, ...]:
        self.check_agent(i)
        self.check_state(s)
        return self._avail_sorted.get((i, s), ())

    def block_of(self, i: int, s: str) -> int:
        """Index of the observation block of ``s`` for agent ``i``."""
        self.check_agent(i)
        self.check_state(s)
        try:
            return self._block[(i, s)]
        except KeyError:
            raise UnknownState(
                f"state {s!r} not covered by the observation partition of agent {i}"
            ) from None

    def obs_key(self, i: int, history: History) -> tuple[int, ...]:
        """The observation class of a history for agent ``i``.

        Two histories are indistinguishable for the agent exactly when
        their keys are equal (same length, pointwise same block).
        """
        return tuple(self.block_of(i, s) for s in history)

    def joint_choices(self, s: str):
        """All joint actions available at ``s``, in sorted order."""
        per_agent = [self.available_sorted(i, s) for i in range(1, self.agents + 1)]
        return itertools.product(*per_agent)

    def successors(self, s: str) -> tuple[str, ...]:
        """Distinct successor states over all available joint actions."""
        got = self._succ.get(s)
        if got is None:
            self.check_state(s)
            seen: list[str] = []
            for a in self.joint_choices(s):
                t = self.delta.get((s, a))
                if t is not None and t not in seen:
                    seen.append(t)
            got = tuple(seen)
            self._succ[s] = got
        return got

    def __eq__(self, other):
        if not isinstance(other, Cgs):
            return NotImplemented
        return (
            self.agents == other.agents
            and self.states == other.states
            and self.props == other.props
            and self.actions == other.actions
            and self.label == other.label
            and self.obs == other.obs
            and self.avail == other.avail
            and self.delta == other.delta
        )

    def __repr__(self):
        return (
            f"Cgs(agents={self.agents}, |S|={len(self.states)}, "
            f"|Act|={len(self.actions)}, |delta|={len(self.delta)})"
        )


# -- operations ------------------------------------------------------------


def successor(g: Cgs, s: str, a: JointAction) -> str | None:
    """One-step successor of ``s`` under the joint action ``a``.

    Returns ``None`` when the transition is undefined, i.e. when some
    component of ``a`` is not available to its agent at ``s``.
    """
    g.check_state(s)
    a = tuple(a)
    if len(a) != g.agents:
        raise CgsError(f"joint action {a!r} has length {len(a)}, expected {g.agents}")
    for i, x in enumerate(a, start=1):
        if x not in g.actions:
            raise UnknownAction(f"undeclared action {x!r}")
        if x not in g.available(i, s):
            return None
    return g.delta.get((s, a))


def obs_equiv_states(g: Cgs, i: int, s: str, t: str) -> bool:
    """Whether agent ``i`` cannot distinguish states ``s`` and ``t``."""
    return g.block_of(i, s) == g.block_of(i, t)


def obs_equiv_histories(g: Cgs, i: int, h1: History, h2: History) -> bool:
    """Pointwise observational equivalence of two histories.

    Histories of different length are never equivalent.
    """
    if not h1 or not h2:
        raise ValueError("histories must be non-empty")
    if len(h1) != len(h2):
        return False
    return all(obs_equiv_states(g, i, a, b) for a, b in zip(h1, h2))


def validate_cgs(g: Cgs) -> list[Violation]:
    """Check the semantic well-formedness conditions of a structure.

    Returns one :class:`Violation` per broken condition, each naming the
    state/agent/tuple involved.  An empty list means the structure is
    well-formed.
    """
    out: list[Violation] = []
    agents = range(1, g.agents + 1)
    states = sorted(g.states)

    for i in agents:
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

    for i in agents:
        for s in states:
            if not g.avail.get((i, s)):
                out.append(
                    Violation(
                        "EmptyAvail",
                        (i, s),
                        f"agent {i} has no available action at state {s!r}",
                    )
                )

    if g._rows_exact:
        return out
    for s in states:
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


# -- file format -------------------------------------------------------------


def cgs_to_json(g: Cgs) -> dict:
    """Canonical JSON document for a structure.

    Everything is sorted, so serialising the same structure twice yields
    identical bytes.
    """
    return {
        "agents": g.agents,
        "states": sorted(g.states),
        "props": sorted(g.props),
        "label": {s: sorted(g.label[s]) for s in sorted(g.states)},
        "obs": {
            str(i): [list(b) for b in g.obs.get(i, ())] for i in range(1, g.agents + 1)
        },
        "actions": sorted(g.actions),
        "avail": {
            str(i): {
                s: list(g.available_sorted(i, s)) for s in sorted(g.states)
            }
            for i in range(1, g.agents + 1)
        },
        "delta": [
            [s, list(a), t] for (s, a), t in sorted(g.delta.items())
        ],
    }


def _malformed(what: str) -> CgsError:
    return CgsError(f"malformed game structure document: {what}")


# The field names below are format strings, filled in only on error, so
# a well-formed document costs no formatting.


def _list(value, field: str, *at) -> list:
    if not isinstance(value, (list, tuple)):
        raise _malformed(f"{field.format(*at)} must be a list, not {type(value).__name__}")
    return value


def _strings(value, field: str, *at) -> list[str]:
    for x in _list(value, field, *at):
        if not isinstance(x, str):
            raise _malformed(f"{field.format(*at)} holds {x!r}, which is not a string")
    return value


def _object(value, field: str, *at) -> Mapping:
    if not isinstance(value, Mapping):
        raise _malformed(f"{field.format(*at)} must be an object, not {type(value).__name__}")
    return value


def _per_agent(value, field: str) -> dict:
    out = {}
    for i, per in _object(value, field).items():
        try:
            out[int(i)] = per
        except (TypeError, ValueError):
            raise _malformed(f"{field} key {i!r} is not an agent number") from None
    return out


def cgs_from_json(doc: Mapping) -> Cgs:
    """Build a structure from its JSON document, in one pass over it.

    Raises :class:`CgsError` naming the field when a key is missing, a
    value has the wrong type, or two ``delta`` rows share a state and a
    joint action.  Names in ``delta`` rows are checked by the
    constructor against the declared states and actions, which are
    strings by then.
    """
    _object(doc, "the document")
    try:
        agents = doc["agents"]
        states = _strings(doc["states"], "states")
        props = _strings(doc["props"], "props")
        actions = _strings(doc["actions"], "actions")
        label = _object(doc["label"], "label")
        for s, ps in label.items():
            _strings(ps, "label of {!r}", s)
        obs = _per_agent(doc["obs"], "obs")
        for i, blocks in obs.items():
            for b in _list(blocks, "obs of agent {}", i):
                _strings(b, "obs block of agent {}", i)
        avail = _per_agent(doc["avail"], "avail")
        for i, per in avail.items():
            for s, acts in _object(per, "avail of agent {}", i).items():
                _strings(acts, "avail of agent {} at {!r}", i, s)
        rows = _list(doc["delta"], "delta")
    except KeyError as exc:
        raise _malformed(f"missing field {exc}") from None
    if not isinstance(agents, int) or isinstance(agents, bool):
        raise _malformed(f"agents must be an integer, not {type(agents).__name__}")
    try:
        delta = {
            (s, tuple(a)): t
            for s, a, t in rows
            if type(s) is str and type(a) is list and type(t) is str
        }
    except (TypeError, ValueError):
        delta = {}
    # every well-formed row makes exactly one transition
    if len(delta) != len(rows):
        raise _malformed(_delta_fault(rows))
    return Cgs(agents, states, props, label, obs, actions, avail, delta)


def _delta_fault(rows) -> str:
    """What is wrong with the first ``delta`` row that makes no new transition."""
    seen = set()
    for row in rows:
        if not (
            isinstance(row, (list, tuple))
            and len(row) == 3
            and type(row[0]) is str
            and type(row[1]) is list
            and type(row[2]) is str
        ):
            return f"delta row {row!r} must be [state, [actions], state]"
        key = (row[0], tuple(row[1]))
        try:
            if key in seen:
                return f"delta has two rows for ({row[0]!r}, {row[1]!r})"
        except TypeError:
            return f"delta row {row!r} names an action that is not a string"
        seen.add(key)
    raise AssertionError("every delta row is well-formed")


def save_cgs(g: Cgs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cgs_to_json(g), fh, indent=2)
        fh.write("\n")


def load_cgs(path, allow_invalid: bool = False) -> Cgs:
    """Load a structure from its JSON file format.

    Files that parse but fail :func:`validate_cgs` are rejected with
    :class:`InvalidCgs` unless ``allow_invalid`` is set.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes and over-deep nesting are not valid JSON either
            raise CgsError(f"not valid JSON: {exc}") from exc
    g = cgs_from_json(doc)
    if not allow_invalid:
        violations = validate_cgs(g)
        if violations:
            raise InvalidCgs(violations)
    return g
