import hashlib
import json
import random
from collections import Counter

import pytest

from machines import FIVE_MACHINES, LOOP3, SIX_MACHINES
from oracles import (
    random_label_tree,
    reference_check_decoding,
    reference_classify_history,
    reference_level_structure,
    reference_node_facts,
    reference_pair_equivalences,
    reference_reduction_delta,
    reference_saturate,
    reference_simulating_strategy,
    reference_verify_construction,
    starts_generator_branch,
)

from atlir import reduction
from atlir.cgs import validate_cgs
from atlir.comptree import ComputationTree, OrderingNotTotal, is_complete_level, level
from atlir.reduction import (
    BR1,
    BR2,
    IDLE,
    OTHER,
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
    IncompleteLevel,
    _check_decoding,
    _check_level_anatomy,
    _check_level_structure,
    _check_pair_equivalences,
    _first_misordered,
    _node_facts,
    _precedes,
    build_cgs,
    classify_history,
    decode_level,
    horizon,
    simulating_strategy,
    simulation_tree,
    type2_closed,
    type2_open,
    verify_construction,
)
from atlir.strategies import AgentStrategy, TeamStrategy, is_uniform
from atlir.turing import TuringMachine, halts_within


def test_build_counts(rc5):
    # 8 bookkeeping + 3 cells + 9 scanned-cell pairs + 2 realised moves
    assert len(rc5.cgs.states) == 22
    # idle, set-up, 2 moves, 2 branches
    assert len(rc5.cgs.actions) == 6
    assert validate_cgs(rc5.cgs) == []


def test_build_golden_transitions(rc5):
    g = rc5.cgs
    d = g.delta
    r_move = rc5.move_actions[("q0", "q1", "R")]
    l_move = rc5.move_actions[("q1", "q2", "L")]
    assert d[(S_INIT, (IDLE, IDLE, BR1))] == S_INIT2
    assert d[(S_INIT, (IDLE, IDLE, BR2))] == S_GEN
    assert d[(S_INIT2, (IDLE, IDLE, IDLE))] == S_LB
    assert d[(S_LB, (IDLE, rc5.init_action, IDLE))] == S_LB2
    assert d[(S_GEN, (IDLE, IDLE, BR1))] == "s_B"
    assert d[(S_GEN, (IDLE, IDLE, BR2))] == S_TR
    assert d[(S_TR, (IDLE, IDLE, BR1))] == S_TR2
    assert d[(S_TR, (IDLE, IDLE, BR2))] == S_GEN
    # separator picks up a move initiated by agent 1 (right) or 2 (left)
    assert d[(S_TR2, (r_move, IDLE, IDLE))] == "s_q0,q1,R"
    assert d[(S_TR2, (IDLE, l_move, IDLE))] == "s_q1,q2,L"
    assert d[("s_q0,q1,R", (IDLE, r_move, IDLE))] == S_TR2
    assert d[("s_q1,q2,L", (l_move, IDLE, IDLE))] == S_TR2
    # the scanned cell steps by the machine's rule
    assert d[("s_q0,B", (r_move, IDLE, IDLE))] == "s_a"
    assert d[("s_q1,B", (IDLE, l_move, IDLE))] == "s_b"
    # a neighbouring cell receives the head in the rule's target state
    assert d[("s_B", (IDLE, r_move, IDLE))] == "s_q1,B"
    assert d[("s_a", (l_move, IDLE, IDLE))] == "s_q2,a"
    assert d[("s_B", (IDLE, rc5.init_action, IDLE))] == "s_q0,B"
    # everything unlisted falls into the sink, which is absorbing
    assert d[("s_q0,B", (IDLE, IDLE, IDLE))] == S_ERR
    assert d[(S_ERR, (IDLE, IDLE, IDLE))] == S_ERR
    assert all(
        d[(S_ERR, a)] == S_ERR for a in g.joint_choices(S_ERR)
    )


def test_move_states_only_for_realised_rules(rc5):
    names = set(rc5.cgs.states)
    assert "s_q0,q1,R" in names and "s_q1,q2,L" in names
    assert "s_q0,q1,L" not in names and "s_q2,q1,R" not in names


def test_observation_structure(rc5):
    g = rc5.cgs
    assert g.label[S_GEN] == frozenset({"p1", "ok"})
    assert g.label[S_TR] == frozenset({"p2", "ok"})
    assert g.label[S_ERR] == frozenset()
    assert g.label[S_LB] == frozenset({"ok"})
    # agent 3 sees everything
    assert all(len(b) == 1 for b in g.obs[3])
    # agents 1/2 split the states by their proposition only
    assert sorted(map(len, g.obs[1])) == [1, 21]
    assert sorted(map(len, g.obs[2])) == [1, 21]


def test_classify_history():
    assert classify_history((S_INIT,)) == ROOT
    assert classify_history((S_INIT, S_INIT2, S_LB)) == TYPE1
    assert classify_history((S_INIT, S_GEN, S_TR, S_GEN, "s_B")) == type2_open(2)
    assert classify_history((S_INIT, S_GEN, "s_B")) == type2_open(1)
    assert classify_history((S_INIT, S_GEN, S_TR)) == type2_closed(1)
    assert classify_history((S_INIT, S_GEN, S_TR, S_TR2, "s_q0,q1,R")) == type2_closed(1)
    assert classify_history((S_LB,)) == OTHER
    assert classify_history((S_INIT, S_LB)) == OTHER
    # a spawn state in the tail disqualifies the refined shapes
    assert classify_history((S_INIT, S_GEN, "s_B", S_GEN)) == OTHER


def test_classify_history_matches_reference_on_simulation_trees():
    seen = set()
    for m in SIX_MACHINES.values():
        t = simulation_tree(build_cgs(m), 21)
        for v in t.nodes():
            h = t.history(v)
            assert classify_history(h) == reference_classify_history(h), h
            seen.add(classify_history(h).kind)
    # simulation trees grow only the shapes the construction predicts
    assert seen == {"root", "type1", "type2_open", "type2_closed"}


def _random_state_sequences(rng, states, count):
    """State sequences that start at s_init or elsewhere, may enter the
    reference branch, then run an alternating spawn prefix that is broken
    at a random place half the time, and end in a random tail."""
    breakers = (S_GEN, S_TR, S_TR2, S_LB2)
    for _ in range(count):
        h = [S_INIT if rng.random() < 0.8 else rng.choice(states)]
        if rng.random() < 0.15:
            h.append(S_INIT2)
        spawns = [(S_GEN, S_TR)[k % 2] for k in range(rng.randint(0, 9))]
        if spawns and rng.random() < 0.5:
            spawns[rng.randrange(len(spawns))] = rng.choice(breakers)
        tail = [rng.choice(states) for _ in range(rng.randint(0, 3))]
        yield tuple(h + spawns + tail)


def test_classify_history_matches_reference_on_random_sequences():
    states = list(build_cgs(LOOP3).cgs.states)
    rng = random.Random(2000)
    kinds = []
    for h in _random_state_sequences(rng, states, 2000):
        assert classify_history(h) == reference_classify_history(h), h
        kinds.append((h[0] == S_INIT, classify_history(h).kind))
    # every shape is met, from s_init and elsewhere
    assert {k for start, k in kinds if start} == {
        "root",
        "type1",
        "type2_open",
        "type2_closed",
        "other",
    }
    assert any(not start for start, _ in kinds)
    for bad in ((), []):
        with pytest.raises(ValueError):
            classify_history(bad)
        with pytest.raises(ValueError):
            reference_classify_history(bad)


def test_strategy_setup_clauses(rc5):
    team = simulating_strategy(rc5)
    s1, s2 = team.strategies[1], team.strategies[2]
    g = rc5.cgs
    assert s2.action(g, (S_INIT, S_INIT2, S_LB)) == rc5.init_action
    assert s2.action(g, (S_INIT, S_GEN, "s_B")) == rc5.init_action
    assert s1.action(g, (S_INIT,)) == IDLE
    assert s2.action(g, (S_INIT,)) == IDLE
    assert s1.action(g, (S_INIT, S_INIT2, S_LB, S_LB2)) == IDLE


def test_strategy_simulation_clauses(rc5):
    team = simulating_strategy(rc5)
    s1, s2 = team.strategies[1], team.strategies[2]
    g = rc5.cgs
    # scanned cell of the initial configuration steps right
    assert s1.action(g, (S_INIT, S_GEN, "s_B", "s_q0,B")) == rc5.move_actions[("q0", "q1", "R")]
    # the separator right of it plays the same (it cannot tell them apart)
    assert s1.action(g, (S_INIT, S_GEN, S_TR, S_TR2)) == rc5.move_actions[("q0", "q1", "R")]
    # agent 2 discharges the carrier one level later
    assert (
        s2.action(g, (S_INIT, S_GEN, S_TR, S_TR2, "s_q0,q1,R"))
        == rc5.move_actions[("q0", "q1", "R")]
    )
    # and hands the head to the fresh blank cell
    assert s2.action(g, (S_INIT, S_GEN, S_TR, S_GEN, "s_B")) == rc5.move_actions[("q0", "q1", "R")]
    # the left move one round later, initiated by agent 2 at the scanned cell
    assert (
        s2.action(g, (S_INIT, S_GEN, S_TR, S_GEN, "s_B", "s_q1,B"))
        == rc5.move_actions[("q1", "q2", "L")]
    )
    # and received by cell 1 through agent 1
    assert (
        s1.action(g, (S_INIT, S_GEN, "s_B", "s_q0,B", "s_a", "s_a", "s_a"))
        == rc5.move_actions[("q1", "q2", "L")]
    )


def test_strategy_is_uniform_to_depth_seven(rc5):
    team = simulating_strategy(rc5)
    assert is_uniform(rc5.cgs, team.strategies[1], S_INIT, 7)
    assert is_uniform(rc5.cgs, team.strategies[2], S_INIT, 7)


def test_decode_levels(rc5):
    t = simulation_tree(rc5, 7)
    assert "".join(decode_level(rc5, t, 3)) == "q0B"
    assert "".join(decode_level(rc5, t, 5)) == "aq1B"
    assert "".join(decode_level(rc5, t, 7)) == "q2ab"


def test_decode_requires_complete_level(rc5):
    t = simulation_tree(rc5, 3)
    with pytest.raises(IncompleteLevel):
        decode_level(rc5, t, 5)


def test_decode_initial_configuration_everywhere():
    for m in FIVE_MACHINES.values():
        rc = build_cgs(m)
        t = simulation_tree(rc, 3)
        assert "".join(decode_level(rc, t, 3)) == m.q0 + m.blank


def test_simulation_tree_has_no_err_for_nonhalting(rc_ext):
    t = simulation_tree(rc_ext, 8)
    assert all(
        t.label(v) != S_ERR for n in range(9) for v in t.nodes_at_depth(n)
    )


def test_err_appears_after_halting_frontier(rc5):
    t = simulation_tree(rc5, 8)
    labels8 = [t.label(v) for v in t.nodes_at_depth(8)]
    assert S_ERR in labels8
    t7 = simulation_tree(rc5, 7)
    assert all(
        t7.label(v) != S_ERR for n in range(8) for v in t7.nodes_at_depth(n)
    )


def test_horizon_soundness():
    for name, m in FIVE_MACHINES.items():
        for depth in (3, 5, 7, 9):
            if not halts_within(m, horizon(depth)):
                rc = build_cgs(m)
                t = simulation_tree(rc, depth)
                assert all(
                    t.label(v) != S_ERR
                    for n in range(depth + 1)
                    for v in t.nodes_at_depth(n)
                ), f"{name} at depth {depth}"


def test_verify_construction_nonhalting(rc_ext):
    report = verify_construction(rc_ext, 9)
    assert report.all_pass, report.failures()[:5]
    assert report.checked_levels == 9


def test_verify_construction_m5_depth7(rc5):
    report = verify_construction(rc5, 7)
    assert report.all_pass, report.failures()[:5]
    # decoding rows are present for the odd configuration levels
    rows = [e for e in report.entries if e.claim == 4 and e.subclaim == "4.2"]
    assert sorted(e.level for e in rows) == [3, 5]


def test_verify_construction_reports_halting_frontier(rc5):
    report = verify_construction(rc5, 8)
    assert not report.all_pass
    noted = [e for e in report.entries if e.claim == 0]
    assert noted and noted[0].level == 8
    # everything before the frontier still passes
    assert all(e.passed for e in report.entries if e.claim != 0)


def test_verify_construction_depth_guard(rc5):
    with pytest.raises(ValueError):
        verify_construction(rc5, 2)


def test_pair_equivalence_properties(rc_ext):
    # reference-branch histories never look like generator-branch ones
    # to agent 1; shape census per level stays within one of each kind
    report = verify_construction(rc_ext, 9)
    by_sub = {}
    for e in report.entries:
        by_sub.setdefault(e.subclaim, []).append(e)
    for sub in ("1.1", "1.2", "1.3", "1.4", "2.3", "3.3"):
        assert by_sub[sub] and all(e.passed for e in by_sub[sub])


def test_lint_surfaced_for_reentrant_machines():
    m = TuringMachine(
        {"q0"}, {"B"}, "q0", "B", {("q0", "B"): ("q0", "B", "R")}
    )
    rc = build_cgs(m)
    assert rc.lint
    # compilation still succeeds and validates
    assert validate_cgs(rc.cgs) == []


def test_loop3_claims_hold_deeper():
    rc = build_cgs(LOOP3)
    report = verify_construction(rc, 11)
    assert report.all_pass, report.failures()[:5]


def test_loop3_claims_hold_at_depth_61():
    report = verify_construction(build_cgs(LOOP3), 61)
    assert report.all_pass, report.failures()[:5]
    assert report.checked_levels == 61
    # ok-states, 13 rows on each of levels 1..61, form succession on
    # 1..60, decoding on the odd levels 3..61 and stepping on 3..59
    assert len(report.entries) == 1 + 13 * 61 + 60 + 30 + 29


def test_blank_writing_zigzag_decodes_correctly():
    # writes blanks in both directions and then rides right over them,
    # exercising the padding-stripping on every kind of level
    zigzag = TuringMachine(
        states={"q0", "q1", "q2", "q3", "q4", "q5"},
        alphabet={"B", "x", "y"},
        q0="q0",
        blank="B",
        delta={
            ("q0", "B"): ("q1", "x", "R"),
            ("q1", "B"): ("q2", "y", "R"),
            ("q2", "B"): ("q3", "B", "L"),
            ("q3", "y"): ("q4", "B", "L"),
            ("q4", "x"): ("q5", "x", "R"),
            ("q5", "B"): ("q5", "B", "R"),
        },
    )
    rc = build_cgs(zigzag)
    report = verify_construction(rc, 15)
    assert report.all_pass, report.failures()[:5]
    t = simulation_tree(rc, 11)
    decoded = ["".join(decode_level(rc, t, n)) for n in (3, 5, 7, 9, 11)]
    assert decoded == ["q0B", "xq1B", "xyq2B", "xq3y", "q4x"]


def test_loop3_claims_hold_at_depth_101(monkeypatch):
    decoded = []
    read_word = reduction._read_word

    def counted(rc, t, ordered):
        decoded.append(len(ordered) - 1)  # a complete level n has n + 1 nodes
        return read_word(rc, t, ordered)

    monkeypatch.setattr(reduction, "_read_word", counted)
    report = verify_construction(build_cgs(LOOP3), 101)
    assert report.all_pass, report.failures()[:5]
    assert report.checked_levels == 101
    assert len(report.entries) == 1 + 13 * 101 + 100 + 50 + 49 == 1513
    # each odd level 3..101 is decoded once, for claims 4.1 and 4.2 alike
    assert decoded == list(range(3, 102, 2))
    digest = hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()
    assert digest == "3476e0fd21194491ff32b32fd516dcf79d0d46de8c4cd90c19583302a26ccd16"


@pytest.mark.parametrize("name, depth", [("three_state_loop", 101), ("single_rule_halter", 21)])
def test_construction_orders_each_checked_level_once(monkeypatch, name, depth):
    ordered = []

    def counted(t, n, last_labels=frozenset()):
        ordered.append(n)
        return level(t, n, last_labels)

    monkeypatch.setattr(reduction, "level", counted)
    report = verify_construction(build_cgs(SIX_MACHINES[name]), depth)
    # claims 2, 3 and 4 all read the one order of each level
    assert ordered == list(range(report.checked_levels + 1))


def test_loop3_claims_hold_at_depth_201():
    report = verify_construction(build_cgs(LOOP3), 201)
    assert sum(e.passed for e in report.entries) == len(report.entries) == 3013
    digest = hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()
    assert digest == "90b584faf68e147c479a44e87f7d0664707fddd5a0f59b336ce566a8b33e92e2"


# -- differential tests against the reference construction checks -------------


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_transition_map_matches_reference_fill(name):
    # the same transitions, in the same key order
    rc = build_cgs(SIX_MACHINES[name])
    assert list(rc.cgs.delta.items()) == list(reference_reduction_delta(rc).items())


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_simulation_tree_matches_reference(name):
    rc = build_cgs(SIX_MACHINES[name])
    t = simulation_tree(rc, 41)
    want = reference_saturate(rc.cgs, S_INIT, reference_simulating_strategy(rc), 41)
    assert t == want
    # the depth index and child lists that saturate hands over ready-made
    assert t.max_depth == want.max_depth
    for n in range(43):
        assert t.nodes_at_depth(n) == want.nodes_at_depth(n)
    assert all(t.children(v) == want.children(v) for v in want.nodes())


@pytest.mark.parametrize("depth", [21, 61])
def test_simulation_tree_strategy_work_is_one_step_per_node(monkeypatch, depth):
    """Each expanded node costs each member one memory update and one
    action, whatever its depth, and no strategy reads a whole history."""
    rc = build_cgs(LOOP3)
    want = simulation_tree(rc, depth)
    calls = Counter()

    def counted(st):
        def update(g, memory, s):
            calls["update", st.agent] += 1
            return st.update(g, memory, s)

        def act(memory):
            calls["act", st.agent] += 1
            return st.act(memory)

        return AgentStrategy(st.agent, st.start, update, act)

    def from_history(self, g, history):
        raise AssertionError("a strategy was played on a whole history")

    team = simulating_strategy(rc)
    monkeypatch.setattr(
        reduction,
        "simulating_strategy",
        lambda rc: TeamStrategy.of(*map(counted, team.strategies.values())),
    )
    monkeypatch.setattr(AgentStrategy, "action", from_history)
    t = simulation_tree(rc, depth)
    assert t == want
    expanded = len(t) - len(t.nodes_at_depth(depth))
    assert dict(calls) == {(kind, i): expanded for kind in ("update", "act") for i in (1, 2)}


@pytest.mark.parametrize(
    "name", sorted(n for n, m in SIX_MACHINES.items() if halts_within(m, 20))
)
def test_simulating_strategy_stops_stepping_once_the_machine_halts(monkeypatch, name):
    """Past the halting step a deeper tree costs no more machine steps."""
    rc = build_cgs(SIX_MACHINES[name])
    calls = Counter()

    def counted(f):
        def call(*args):
            calls[f.__name__] += 1
            return f(*args)

        return call

    for f in (reduction.split_configuration, reduction.step):
        monkeypatch.setattr(reduction, f.__name__, counted(f))
    per_depth = []
    for depth in (41, 61):
        calls.clear()
        simulation_tree(rc, depth)
        per_depth.append(dict(calls))
    assert per_depth[0]["step"] >= 1
    assert per_depth[0] == per_depth[1]


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_simulating_strategy_matches_reference_on_random_histories(name):
    rc = build_cgs(SIX_MACHINES[name])
    g = rc.cgs
    team, ref = simulating_strategy(rc), reference_simulating_strategy(rc)
    rng = random.Random(31)
    states = sorted(g.states) + [S_GEN, S_TR] * 8
    for _ in range(1500):
        if rng.random() < 0.5:
            # a spawn prefix, possibly broken, then a tail
            h = [S_INIT] + [(S_GEN, S_TR)[k % 2] for k in range(rng.randint(0, 8))]
        else:
            h = []
        tail = rng.randint(0 if h else 1, 9)
        h = tuple(h + [rng.choice(states) for _ in range(tail)])
        for i in (1, 2):
            assert team.strategies[i].action(g, h) == ref.strategies[i].action(g, h), (i, h)


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_verify_construction_matches_reference(name):
    rc = build_cgs(SIX_MACHINES[name])
    for depth in range(3, 42):
        got = verify_construction(rc, depth)
        want = reference_verify_construction(rc, depth)
        assert got.to_json() == want.to_json(), depth
        assert got.checked_levels == want.checked_levels


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_decoding_matches_reference_with_gaps_in_the_levels(name):
    """Claim group 4 against the reference when complete levels are
    missing, misordered or past the limit."""
    rc = build_cgs(SIX_MACHINES[name])
    t = simulation_tree(rc, 21)
    # levels from the error state on encode no configuration
    safe = next((n - 1 for n in range(22) if S_ERR in map(t.label, t.nodes_at_depth(n))), 21)
    full = {n for n in range(1, safe + 1) if len(t.nodes_at_depth(n)) == n + 1}
    rng = random.Random(name)
    for _ in range(40):
        complete = {n for n in full if rng.random() < 0.8}
        order_fail = {n: "misordered" for n in full if rng.random() < 0.15}
        limit = rng.randint(3, safe)
        orders = {n: level(t, n, RIGHTMOST_LABELS) for n in full if n not in order_fail}
        got, want = [], []
        _check_decoding(rc, t, complete, orders, limit, got)
        reference_check_decoding(rc, t, complete, order_fail, limit, want)
        assert got == want, (complete, sorted(order_fail), limit)


def _assert_facts_carried(g, t):
    """Each node's carried facts agree with its whole history."""
    facts = _node_facts(g, t, t.max_depth)
    for n in range(t.max_depth + 1):
        rows = []
        for v in t.nodes_at_depth(n):
            h, f = t.history(v), facts[v]
            assert f.shape == reference_classify_history(h), h
            assert f.gen == starts_generator_branch(h), h
            assert f.spawns == (h.count(S_GEN), h.count(S_TR)), h
            rows.append(((f.key1, f.key2), (g.obs_key(1, h), g.obs_key(2, h))))
        # ids are equal exactly when what they stand for is
        for ids, whole in rows:
            for ids2, whole2 in rows:
                assert [a == b for a, b in zip(ids, ids2)] == [
                    a == b for a, b in zip(whole, whole2)
                ]


# labels of the faulty trees: states of LOOP3's game, weighted to the
# states that decide branch shapes
FAULTY_LABELS = [S_INIT, S_LB, S_LB2, S_TR2, "s_B", "s_a", S_ERR] + [S_INIT2, S_GEN, S_TR] * 3


def _faulty_trees(rc, rng):
    """Random label trees rooted at s_init, and simulation trees with a
    few nodes relabelled."""
    base = simulation_tree(rc, 11)
    paths = sorted(base.labels())
    for _ in range(150):
        t = random_label_tree(rng, FAULTY_LABELS, max_depth=5)
        yield ComputationTree(S_INIT if rng.random() < 0.8 else t.root_label, t.labels())
        labels = base.labels()
        for v in rng.sample(paths, rng.randint(1, 3)):
            labels[v] = rng.choice(FAULTY_LABELS)
        yield ComputationTree(labels[()], labels)


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_carried_facts_match_whole_histories(name):
    rc = build_cgs(SIX_MACHINES[name])
    _assert_facts_carried(rc.cgs, simulation_tree(rc, 41))


def test_carried_facts_match_whole_histories_on_faulty_trees():
    rc = build_cgs(LOOP3)
    for t in _faulty_trees(rc, random.Random(41)):
        _assert_facts_carried(rc.cgs, t)


def test_claim_groups_1_and_2_match_reference_on_faulty_trees():
    rc = build_cgs(LOOP3)
    g = rc.cgs
    failed = set()
    for t in _faulty_trees(rc, random.Random(42)):
        limit = t.max_depth
        orders, order_fail = {}, {}
        for n in range(limit + 1):
            try:
                orders[n] = level(t, n, RIGHTMOST_LABELS)
            except OrderingNotTotal as exc:
                order_fail[n] = str(exc)
        got, want = [], []
        facts = _node_facts(g, t, limit)
        _check_pair_equivalences(t, facts, limit, got)
        _check_level_structure(t, facts, orders, order_fail, limit, got)
        ref = reference_node_facts(g, t, limit)
        reference_pair_equivalences(t, ref, limit, want)
        reference_level_structure(t, ref, orders, order_fail, limit, want)
        assert [e.to_json() for e in got] == [e.to_json() for e in want]
        # 2.4 on a level without a total order reports that, not a pair
        failed.update(
            e.subclaim for e in want if not e.passed and e.detail not in order_fail.values()
        )
    # every subclaim with a pair scan fails somewhere, but 1.1: a type-1
    # history and a generator-branch one differ for agent 1 at step one
    assert {"1.2", "1.3", "1.4", "2.4"} <= failed


def test_first_misordered_matches_a_pair_scan():
    # near-miss level orders: the right order with one position changed,
    # two swapped or one repeated, and random shape lists
    rng = random.Random(24)
    pool = [ROOT, TYPE1, OTHER] + [type2_open(i) for i in range(1, 5)]
    pool += [type2_closed(i) for i in range(1, 5)]
    right = [TYPE1] + [f(i) for i in range(1, 5) for f in (type2_open, type2_closed)]
    seen = set()
    for _ in range(4000):
        shapes = right[: rng.randint(0, len(right))]
        roll = rng.random()
        if shapes and roll < 0.3:
            shapes[rng.randrange(len(shapes))] = rng.choice(pool)
        elif len(shapes) > 1 and roll < 0.6:
            a, b = rng.sample(range(len(shapes)), 2)
            shapes[a], shapes[b] = shapes[b], shapes[a]
        elif shapes and roll < 0.8:
            k = rng.randrange(len(shapes))
            shapes.insert(k, shapes[k])
        elif roll >= 0.8:
            shapes = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        want = next(
            (
                (a, b)
                for a in range(len(shapes))
                for b in range(a + 1, len(shapes))
                if not _precedes(shapes[a], shapes[b]) or _precedes(shapes[b], shapes[a])
            ),
            None,
        )
        assert _first_misordered(shapes) == want, shapes
        seen.add(want is None)
    assert seen == {True, False}


# (level n of LOOP3's simulation tree, {position in the level's order:
# new label}) and the claim-3 entries of level n on the relabelled tree:
# one case per failure detail of 3.2, 3.3 and the level forms of 3.4
ANATOMY_FAULTS = [
    (
        1,
        {0: "s_B"},
        [("3.2", "position 1 is other"), ("3.4", "level 1 is ['s_B', 's_gen']")],
    ),
    (
        1,
        {0: "s_B", 1: S_TR},
        [
            ("3.2", "position 1 is other"),
            ("3.3", "positions 1,2 not alike for agent 2"),
            ("3.4", "level 1 is ['s_B', 's_tr']"),
        ],
    ),
    (
        2,
        {2: S_GEN},
        [
            ("3.2", "position 3 is other"),
            ("3.3", "positions 2,3 not alike for agent 1"),
            ("3.4", "level 2 is ['s_lb', 's_B', 's_gen']"),
        ],
    ),
    (
        3,
        {2: "s_B", 3: S_TR},
        [
            ("3.2", "position 4 is other"),
            ("3.3", "positions 3,4 not alike for agent 2"),
            ("3.4", "borders are s_lb', s_tr"),
        ],
    ),
    (3, {0: "s_B"}, [("3.4", "borders are s_B, s_gen")]),
    (3, {1: S_ERR}, [("3.4", "position 2 is s_err, not a cell")]),
    (3, {2: "s_B"}, [("3.4", "position 3 is s_B, not a separator")]),
    (3, {1: "s_B"}, [("3.4", "0 scanned cells, expected 1")]),
    (5, {1: "s_q0,a"}, [("3.4", "2 scanned cells, expected 1")]),
    (4, {0: "s_B"}, [("3.4", "border s_B, tail ['s_B', 's_tr']")]),
    (4, {1: S_ERR}, [("3.4", "position 2 is s_err, not a cell")]),
    (4, {2: "s_B"}, [("3.4", "position 3 is s_B")]),
    (4, {2: S_TR2}, [("3.4", "0 move carriers, expected 1")]),
    (6, {2: "s_q0,q1,R", 4: "s_q1,q1,R"}, [("3.4", "2 move carriers, expected 1")]),
]


@pytest.mark.parametrize("n, changes, failures", ANATOMY_FAULTS)
def test_level_anatomy_failure_details(n, changes, failures):
    rc = build_cgs(LOOP3)
    base = simulation_tree(rc, 9)
    labels = base.labels()
    ordered = level(base, n, RIGHTMOST_LABELS)
    for pos, label in changes.items():
        assert labels[base.path(ordered[pos])] != label
        labels[base.path(ordered[pos])] = label
    t = ComputationTree(S_INIT, labels)
    orders = {k: level(t, k, RIGHTMOST_LABELS) for k in range(n + 1)}
    complete = {k for k in range(1, n + 1) if is_complete_level(t, k)}
    assert n in complete
    entries = []
    _check_level_anatomy(rc, t, _node_facts(rc.cgs, t, n), orders, {}, complete, entries)
    got = [(e.subclaim, e.detail) for e in entries if e.level == n and not e.passed]
    assert got == failures
    # every other claim-3 entry of the level passes: 3.1 to 3.4 once each
    assert [e.subclaim for e in entries if e.level == n] == ["3.1", "3.2", "3.3", "3.4"]


def test_level_anatomy_flags_a_level_above_that_is_not_complete():
    # level 1 holds three nodes, one too many, and level 2 is complete
    # and totally ordered: the reference branch's cell, then the
    # generator's two children
    rc = build_cgs(LOOP3)
    x, y, z = (IDLE, IDLE, "x"), (IDLE, IDLE, "y"), (IDLE, IDLE, "z")
    t = ComputationTree(
        S_INIT,
        {
            (x,): S_INIT2,
            (y,): "s_a",
            (z,): S_GEN,
            (x, x): S_LB,
            (z, x): "s_B",
            (z, y): S_TR,
        },
    )
    assert [t.label(v) for v in level(t, 2, RIGHTMOST_LABELS)] == [S_LB, "s_B", S_TR]
    orders = {2: level(t, 2, RIGHTMOST_LABELS)}
    entries = []
    _check_level_anatomy(rc, t, _node_facts(rc.cgs, t, 2), orders, {}, {2}, entries)
    assert [(e.subclaim, e.passed) for e in entries if e.claim == 3][0] == ("3.1", False)
