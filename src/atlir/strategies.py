"""Uniform perfect-recall strategies and their joint actions.

An agent strategy maps histories (non-empty state sequences) to actions
and must be uniform: observationally indistinguishable histories get the
same action.  Two forms exist.  Table strategies are finite maps keyed
by the observation class of the history, so uniformity is structural.
Procedure strategies wrap an arbitrary total function on histories; for
those, uniformity is checked by enumeration (:func:`is_uniform`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .cgs import Cgs, History, JointAction


class StrategyError(Exception):
    pass


class StrategyUndefined(StrategyError):
    """A table strategy was queried outside its domain."""


@dataclass(frozen=True)
class AgentStrategy:
    agent: int
    table: Mapping[tuple[int, ...], str] | None = None
    procedure: Callable[[History], str] | None = None

    def __post_init__(self):
        if (self.table is None) == (self.procedure is None):
            raise StrategyError("exactly one of table/procedure must be given")
        if self.table is not None:
            object.__setattr__(self, "table", dict(self.table))

    @classmethod
    def from_table(cls, agent: int, table: Mapping[tuple[int, ...], str]) -> "AgentStrategy":
        return cls(agent=agent, table={tuple(k): v for k, v in table.items()})

    @classmethod
    def from_procedure(cls, agent: int, fn: Callable[[History], str]) -> "AgentStrategy":
        return cls(agent=agent, procedure=fn)

    def action(self, g: Cgs, history: History) -> str:
        """The action this strategy plays on ``history``."""
        if not history:
            raise ValueError("histories must be non-empty")
        if self.table is not None:
            key = g.obs_key(self.agent, history)
            try:
                return self.table[key]
            except KeyError:
                raise StrategyUndefined(
                    f"agent {self.agent}: no table entry for observation history {key}"
                ) from None
        return self.procedure(tuple(history))


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
    choices = []
    for i in range(1, g.agents + 1):
        st = team.strategies.get(i)
        if st is None:
            choices.append(g.available_sorted(i, last))
            continue
        act = st.action(g, history)
        if act not in g.avail.get((i, last), ()):
            raise StrategyError(
                f"agent {i} plays {act!r} on a history ending at {last!r}, "
                f"where it is not available"
            )
        choices.append((act,))
    return itertools.product(*choices)


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
