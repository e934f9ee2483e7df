"""Uniform perfect-recall strategies and their joint actions.

An agent strategy maps histories (non-empty state sequences) to actions
and must be uniform: observationally indistinguishable histories get the
same action.  Each reads a history state by state into a memory and plays
from it.  Table strategies are finite maps keyed by the observation class
of the history, their memory, so uniformity is structural.  Procedure
strategies wrap a total function on histories, kept as their memory; for
those, uniformity is checked by enumeration (:func:`is_uniform`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from .cgs import Cgs, History, JointAction


class StrategyError(Exception):
    pass


class StrategyUndefined(StrategyError):
    """A table strategy was queried outside its domain."""


@dataclass(frozen=True)
class AgentStrategy:
    """``start`` is the empty history's memory, ``update(g, memory, s)`` the
    memory once ``s`` is appended, and ``act(memory)`` the action on a
    non-empty history.  ``table`` is a table strategy's map, else None."""

    agent: int
    start: Any
    update: Callable[[Cgs, Any, str], Any]
    act: Callable[[Any], str]
    table: Mapping[tuple[int, ...], str] | None = None

    @classmethod
    def from_table(cls, agent: int, table: Mapping[tuple[int, ...], str]) -> "AgentStrategy":
        table = {tuple(k): v for k, v in table.items()}

        def act(key: tuple[int, ...]) -> str:
            try:
                return table[key]
            except KeyError:
                raise StrategyUndefined(
                    f"agent {agent}: no table entry for observation history {key}"
                ) from None

        return cls(agent, (), lambda g, key, s: key + (g.block_of(agent, s),), act, table)

    @classmethod
    def from_procedure(cls, agent: int, fn: Callable[[History], str]) -> "AgentStrategy":
        return cls(agent, (), lambda g, h, s: h + (s,), fn)

    def action(self, g: Cgs, history: History) -> str:
        """The action this strategy plays on ``history``."""
        if not history:
            raise ValueError("histories must be non-empty")
        memory = self.start
        for s in history:
            memory = self.update(g, memory, s)
        return self.act(memory)


@dataclass(frozen=True)
class TeamStrategy:
    members: frozenset[int]
    strategies: Mapping[int, AgentStrategy]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        object.__setattr__(self, "strategies", dict(self.strategies))
        if not self.members:
            raise StrategyError("a team must have at least one member")
        if set(self.strategies) != set(self.members):
            raise StrategyError("strategies must cover exactly the team members")
        for i, st in self.strategies.items():
            if st.agent != i:
                raise StrategyError(f"strategy for member {i} belongs to agent {st.agent}")

    @classmethod
    def of(cls, *strategies: AgentStrategy) -> "TeamStrategy":
        return cls(
            members=frozenset(s.agent for s in strategies),
            strategies={s.agent: s for s in strategies},
        )


def compatible_in_order(g: Cgs, team: TeamStrategy, history: History) -> Iterator[JointAction]:
    """Joint actions compatible with the team strategy on ``history``, in sorted order.

    Team members play their strategy's action; the other agents range
    over everything available to them at the last state.  Each agent's
    factor is one action or a sorted, repeat-free tuple, so their
    product comes out sorted and repeat-free.
    """
    if not history:
        raise ValueError("histories must be non-empty")
    last = g.check_state(history[-1])
    choices = [g.available_sorted(i, last) for i in range(1, g.agents + 1)]
    for i in team_members(g, team):
        choices[i - 1] = agent_factor(g, i, last, team.strategies[i].action(g, history))
    return itertools.product(*choices)


def team_members(g: Cgs, team: TeamStrategy) -> list[int]:
    """The team's members in agent order; UnknownAgent for any not in ``g``."""
    return [g.check_agent(i) for i in sorted(team.members)]


def agent_factor(g: Cgs, i: int, last: str, act: str | None) -> tuple[str, ...]:
    """Agent ``i``'s factor of the joint actions at state ``last``: a member's
    action ``act``, or every action available to a non-member (None)."""
    if act is None:
        return g.available_sorted(i, last)
    if act not in g.avail.get((i, last), ()):
        raise StrategyError(
            f"agent {i} plays {act!r} on a history ending at {last!r}, "
            f"where it is not available"
        )
    return (act,)


def is_uniform(g: Cgs, strat: AgentStrategy, root: str, depth: int) -> bool:
    """Check uniformity over reachable histories.

    Quantifies over all transition-consistent histories from ``root``
    with at most ``depth+1`` states: any two that the agent cannot
    distinguish must get the same action.  Table strategies are uniform
    by construction and short-circuit to True.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if strat.table is not None:
        return True
    g.check_state(root)
    chosen: dict[tuple[int, ...], str] = {}
    stack: list[History] = [(root,)]
    while stack:
        h = stack.pop()
        key = g.obs_key(strat.agent, h)
        act = strat.action(g, h)
        prev = chosen.setdefault(key, act)
        if prev != act:
            return False
        if len(h) <= depth:
            for t in g.successors(h[-1]):
                stack.append(h + (t,))
    return True


def table_rows(table: Mapping[tuple[int, tuple[int, ...]], str]) -> list[dict]:
    """Rows {agent, obs_history, action} of an (agent, observation key) table, sorted by key."""
    return [
        {"agent": i, "obs_history": list(key), "action": act}
        for (i, key), act in sorted(table.items())
    ]


def table_dump(team: TeamStrategy) -> list[dict]:
    """Serialise table strategies as :func:`table_rows`."""
    table = {}
    for i, st in team.strategies.items():
        if st.table is None:
            raise StrategyError("procedure strategies have no finite table to dump")
        table.update(((i, key), act) for key, act in st.table.items())
    return table_rows(table)
