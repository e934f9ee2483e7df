import random
from collections import Counter

import pytest

from oracles import random_cgs, reference_outcomes, reference_saturate

from atlir.cgs import Cgs, UnknownAgent
from atlir.comptree import extend, outcomes, saturate, single_node
from atlir.reduction import (
    BR1,
    BR2,
    IDLE,
    S_GEN,
    S_INIT,
    simulating_strategy,
)
from atlir.strategies import (
    AgentStrategy,
    StrategyError,
    StrategyUndefined,
    TeamStrategy,
    compatible_in_order,
    is_uniform,
    table_dump,
)


def chain(n):
    """Single-agent structure walking a line of n states."""
    states = [f"s{i}" for i in range(n)]
    return Cgs(
        agents=1,
        states=states,
        props=["p"],
        label={},
        obs={1: [[s] for s in states]},
        actions=["go"],
        avail={1: {s: ["go"] for s in states}},
        delta={(f"s{i}", ("go",)): f"s{min(i + 1, n - 1)}" for i in range(n)},
    )


def test_table_strategies_are_uniform():
    g = chain(3)
    st = AgentStrategy.from_table(1, {(0,): "go"})
    assert is_uniform(g, st, "s0", 5)


def test_simulating_strategy_is_uniform(rc5):
    team = simulating_strategy(rc5)
    assert is_uniform(rc5.cgs, team.strategies[1], S_INIT, 7)
    assert is_uniform(rc5.cgs, team.strategies[2], S_INIT, 7)


def test_nonuniform_procedure_is_caught(rc5):
    # plays differently on the two branches that agent 2 cannot tell apart
    def fickle(history):
        if len(history) == 3 and history[1] == S_GEN:
            return rc5.init_action
        return IDLE

    st = AgentStrategy.from_procedure(2, fickle)
    assert not is_uniform(rc5.cgs, st, S_INIT, 3)


def test_compatible_tuples_at_root(rc5):
    team = simulating_strategy(rc5)
    got = set(compatible_in_order(rc5.cgs, team, (S_INIT,)))
    assert got == {(IDLE, IDLE, BR1), (IDLE, IDLE, BR2)}


def test_compatible_tuples_cardinality(rc5):
    g = rc5.cgs
    team = simulating_strategy(rc5)
    for h in [(S_INIT,), (S_INIT, S_GEN), (S_INIT, S_GEN, "s_B")]:
        free_sizes = len(g.available(3, h[-1]))
        assert len(set(compatible_in_order(g, team, h))) == free_sizes


def test_compatible_tuples_full_team_singleton():
    g = chain(2)
    team = TeamStrategy.of(AgentStrategy.from_table(1, {(0,): "go"}))
    assert set(compatible_in_order(g, team, ("s0",))) == {("go",)}


def test_strategy_undefined_propagates():
    g = chain(2)
    team = TeamStrategy.of(AgentStrategy.from_table(1, {}))
    with pytest.raises(StrategyUndefined):
        set(compatible_in_order(g, team, ("s0",)))
    with pytest.raises(StrategyUndefined):
        outcomes(g, "s0", team, 1)


def test_unavailable_action_is_an_error():
    g = chain(2)
    team = TeamStrategy.of(AgentStrategy.from_procedure(1, lambda h: "stop"))
    with pytest.raises(StrategyError):
        set(compatible_in_order(g, team, ("s0",)))


@pytest.mark.parametrize("agent", [0, 3, 5])
def test_members_outside_the_agents_are_rejected(agent):
    # a member that is not an agent of the game is an error on every
    # route that reads the team, even beside a real member whose empty
    # table would raise, never an unconstrained extra agent
    g = random_cgs(random.Random(7))
    s = min(g.states)
    a = tuple(g.available_sorted(i, s)[0] for i in (1, 2))
    alone = TeamStrategy.of(AgentStrategy.from_table(agent, {}))
    beside = TeamStrategy.of(AgentStrategy.from_table(1, {}), AgentStrategy.from_table(agent, {}))
    for team in (alone, beside):
        for route in (
            lambda: outcomes(g, s, team, 3),
            lambda: saturate(g, s, team, 3),
            lambda: saturate(g, s, team, 0),
            lambda: compatible_in_order(g, team, (s,)),
            lambda: extend(g, team, single_node(s), 0, a),
        ):
            with pytest.raises(UnknownAgent, match=f"agent {agent} not in 1..2"):
                route()


def test_compatible_in_order_rejects_empty_history():
    g = chain(2)
    team = TeamStrategy.of(AgentStrategy.from_table(1, {(0,): "go"}))
    with pytest.raises(ValueError):
        compatible_in_order(g, team, ())


def test_outcomes_depth_zero(rc5):
    team = simulating_strategy(rc5)
    assert outcomes(rc5.cgs, S_INIT, team, 0) == {(S_INIT,)}


def test_outcomes_depth_two(rc5):
    team = simulating_strategy(rc5)
    got = outcomes(rc5.cgs, S_INIT, team, 2)
    assert got == {
        (S_INIT, "s_init'", "s_lb"),
        (S_INIT, S_GEN, "s_B"),
        (S_INIT, S_GEN, "s_tr"),
    }


def test_outcomes_deterministic_chain():
    g = chain(5)
    team = TeamStrategy.of(AgentStrategy.from_procedure(1, lambda h: "go"))
    for depth in range(5):
        got = outcomes(g, "s0", team, depth)
        assert len(got) == 1


def test_outcomes_prefix_closure(rc5):
    team = simulating_strategy(rc5)
    for depth in range(4):
        shallow = outcomes(rc5.cgs, S_INIT, team, depth)
        deeper = outcomes(rc5.cgs, S_INIT, team, depth + 1)
        assert {h[: depth + 1] for h in deeper} == shallow


def test_outcomes_respect_avail_and_delta(rc5):
    g = rc5.cgs
    team = simulating_strategy(rc5)
    for h in outcomes(g, S_INIT, team, 5):
        for k in range(len(h) - 1):
            assert h[k + 1] in g.successors(h[k])


def test_team_strategy_validation():
    with pytest.raises(StrategyError):
        TeamStrategy(members=frozenset(), strategies={})
    with pytest.raises(StrategyError):
        TeamStrategy(
            members=frozenset({1}),
            strategies={1: AgentStrategy.from_table(2, {})},
        )


def test_table_dump_format():
    team = TeamStrategy.of(
        AgentStrategy.from_table(1, {(0,): "go", (0, 0): "go"})
    )
    rows = table_dump(team)
    assert rows == [
        {"agent": 1, "obs_history": [0], "action": "go"},
        {"agent": 1, "obs_history": [0, 0], "action": "go"},
    ]
    proc = TeamStrategy.of(AgentStrategy.from_procedure(1, lambda h: "go"))
    with pytest.raises(StrategyError):
        table_dump(proc)


def random_member_strategy(rng, g, agent, s, depth, fault):
    """A uniform strategy of ``agent`` on the histories from ``s`` with at
    most ``depth`` states: a procedure of the observation key, or a table.

    A ``fault`` is put into the table: a "missing" entry, or an
    "unavailable" action.
    """
    if fault is None and rng.random() < 0.5:
        salt = rng.randrange(1, 7)

        def play(h):
            acts = g.available_sorted(agent, h[-1])
            return acts[(sum(g.obs_key(agent, h)) + salt * len(h)) % len(acts)]

        return AgentStrategy.from_procedure(agent, play)
    table = {}
    stack = [(s,)]
    while stack:
        h = stack.pop()
        key = g.obs_key(agent, h)
        if key not in table:
            table[key] = rng.choice(g.available_sorted(agent, h[-1]))
        if len(h) < depth:
            stack.extend(h + (t,) for t in g.successors(h[-1]))
    key = rng.choice(sorted(table))
    if fault == "missing":
        del table[key]
    elif fault == "unavailable":
        table[key] = "unavailable"
    return AgentStrategy.from_table(agent, table)


def outcomes_or_error(fn, g, s, team, depth):
    try:
        return fn(g, s, team, depth)
    except StrategyError as exc:
        return type(exc)


def test_outcomes_match_reference_on_random_structures():
    rng = random.Random(23)
    raised = Counter()
    for _ in range(300):
        g = random_cgs(rng, max_states=5, max_actions=3, identity_obs=rng.random() < 0.3)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        members = rng.choice([(1,), (2,), (1, 2)])
        # one kind of fault per team, so that the error raised does not
        # depend on which history either side reaches first
        fault = rng.choice([None, None, "missing", "unavailable"])
        team = TeamStrategy.of(
            *(random_member_strategy(rng, g, m, s, 4, fault) for m in members)
        )
        for depth in range(5):
            want = outcomes_or_error(reference_outcomes, g, s, team, depth)
            assert outcomes_or_error(outcomes, g, s, team, depth) == want
            if isinstance(want, type):
                raised[want] += 1
    assert raised[StrategyUndefined] and raised[StrategyError]


def saturate_or_error(fn, g, s, team, depth):
    try:
        return fn(g, s, team, depth)
    except StrategyError as exc:
        return type(exc), str(exc)


def test_saturate_matches_reference_on_random_structures():
    """The memory-driven saturation against the one that plays every
    strategy on whole histories: equal trees, or the same error."""
    rng = random.Random(29)
    raised = Counter()
    for _ in range(300):
        g = random_cgs(rng, max_states=5, max_actions=3, identity_obs=rng.random() < 0.3)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        members = rng.choice([(1,), (2,), (1, 2)])
        # a fault per member, so one team may hold both kinds: the error
        # raised first must still be the reference's
        team = TeamStrategy.of(
            *(
                random_member_strategy(
                    rng, g, m, s, 4, rng.choice([None, None, "missing", "unavailable"])
                )
                for m in members
            )
        )
        for depth in range(5):
            want = saturate_or_error(reference_saturate, g, s, team, depth)
            got = saturate_or_error(saturate, g, s, team, depth)
            assert got == want
            if isinstance(want, tuple):
                raised[want[0]] += 1
                continue
            assert [got.nodes_at_depth(n) for n in range(depth + 2)] == [
                want.nodes_at_depth(n) for n in range(depth + 2)
            ]
            assert all(got.children(v) == want.children(v) for v in want.nodes())
    assert raised[StrategyUndefined] and raised[StrategyError]
