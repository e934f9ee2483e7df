import random

import pytest

from machines import SIX_MACHINES
from oracles import random_label_tree, reference_level, reference_level_relation

from atlir.cgs import Cgs
from atlir.comptree import (
    DuplicateAction,
    IncompatibleAction,
    OrderingNotTotal,
    TreeError,
    UndefinedSuccessor,
    _level_relation,
    extend,
    is_complete_level,
    level,
    levels_to_json,
    saturate,
    single_node,
    to_dot,
)
from atlir.reduction import (
    BR1,
    BR2,
    IDLE,
    RIGHTMOST_LABELS,
    S_GEN,
    S_INIT,
    S_TR2,
    build_cgs,
    simulating_strategy,
    simulation_tree,
)
from atlir.strategies import AgentStrategy, TeamStrategy


def test_extend_adds_leaf(rc5):
    team = simulating_strategy(rc5)
    t = single_node(S_INIT)
    t2 = extend(rc5.cgs, team, t, t.node(()), (IDLE, IDLE, BR2))
    assert t2.label(t2.node(((IDLE, IDLE, BR2),))) == S_GEN
    assert len(t2) == 2
    assert len(t) == 1  # persistent value, original untouched


def test_extend_duplicate_action(rc5):
    team = simulating_strategy(rc5)
    t = extend(rc5.cgs, team, single_node(S_INIT), 0, (IDLE, IDLE, BR2))
    with pytest.raises(DuplicateAction):
        extend(rc5.cgs, team, t, t.node(()), (IDLE, IDLE, BR2))


def test_extend_incompatible_action(rc5):
    team = simulating_strategy(rc5)
    with pytest.raises(IncompatibleAction):
        extend(rc5.cgs, team, single_node(S_INIT), 0, (rc5.init_action, IDLE, BR1))


def test_extend_undefined_successor():
    # 'b' is available at x but the (invalid) structure has no transition
    g = Cgs(
        agents=1,
        states=["r", "x"],
        props=["p"],
        label={},
        obs={1: [["r", "x"]]},
        actions=["a", "b"],
        avail={1: {"r": ["a", "b"], "x": ["a", "b"]}},
        delta={("r", ("a",)): "x", ("r", ("b",)): "x", ("x", ("a",)): "x"},
    )
    team = TeamStrategy.of(AgentStrategy.from_procedure(1, lambda h: "b"))
    with pytest.raises(UndefinedSuccessor):
        extend(g, team, single_node("x"), 0, ("b",))


def test_extend_head_step(rc5):
    # scanned-cell nodes step by the machine's move action
    team = simulating_strategy(rc5)
    t = simulation_tree(rc5, 3)
    leaf = next(v for v in t.nodes_at_depth(3) if t.label(v) == "s_q0,B")
    act = (rc5.move_actions[("q0", "q1", "R")], IDLE, IDLE)
    t2 = extend(rc5.cgs, team, t, leaf, act)
    assert t2.label(t2.node(t.path(leaf) + (act,))) == "s_a"


@pytest.mark.parametrize("method", ["label", "children", "history", "path"])
def test_node_methods_reject_values_that_are_not_nodes(rc5, method):
    t = simulation_tree(rc5, 3)
    for bad in (-1, len(t), True, False, 1.0, "0", None, ()):
        assert bad not in t
        with pytest.raises(TreeError, match=r"^node .* not in the tree$"):
            getattr(t, method)(bad)
    getattr(t, method)(len(t) - 1)


def test_path_and_node_are_inverse(rc5):
    t = simulation_tree(rc5, 7)
    paths = t.labels()
    assert [t.path(v) for v in t.nodes()] == sorted(paths, key=lambda p: (len(p), p))
    for v in t.nodes():
        assert t.node(t.path(v)) == v
        assert paths[t.path(v)] == t.label(v)
        assert [t.path(c)[:-1] for c in t.children(v)] == [t.path(v)] * len(t.children(v))
    for missing in (((IDLE, IDLE, IDLE),), t.path(len(t) - 1) + ((IDLE, IDLE, IDLE),)):
        with pytest.raises(TreeError, match=r"^path .* not in the tree$"):
            t.node(missing)


def test_parents_at_depth_follow_the_paths():
    t = random_label_tree(random.Random(3), ["s", "t", "u"], max_depth=5)
    assert t.parents_at_depth(0) == [-1]
    for n in range(1, t.max_depth + 1):
        want = [t.node(t.path(v)[:-1]) for v in t.nodes_at_depth(n)]
        assert t.parents_at_depth(n) == want
    assert t.parents_at_depth(-1) == t.parents_at_depth(t.max_depth + 1) == []


def test_saturate_depth_zero(rc5):
    t = saturate(rc5.cgs, S_INIT, simulating_strategy(rc5), 0)
    assert len(t) == 1 and t.root_label == S_INIT


def test_saturate_matches_fig5_shape(rc5):
    t = simulation_tree(rc5, 7)
    for n in range(8):
        assert len(t.nodes_at_depth(n)) == n + 1
    by_label = sorted(t.label(v) for v in t.nodes_at_depth(7))
    assert by_label == sorted(
        ["s_lb'", "s_q2,a", "s_tr'", "s_b", "s_tr'", "s_B", "s_tr'", "s_gen"]
    )


def test_level_ordering_fig5(rc5):
    t = simulation_tree(rc5, 7)
    ordered = [t.label(v) for v in level(t, 3, RIGHTMOST_LABELS)]
    assert ordered == ["s_lb'", "s_q0,B", "s_tr'", "s_gen"]
    ordered7 = [t.label(v) for v in level(t, 7, RIGHTMOST_LABELS)]
    assert ordered7 == [
        "s_lb'", "s_q2,a", "s_tr'", "s_b", "s_tr'", "s_B", "s_tr'", "s_gen"
    ]


def test_level_returns_a_list_the_caller_owns(rc5):
    t = simulation_tree(rc5, 7)
    want = level(t, 7, RIGHTMOST_LABELS)
    got = level(t, 7, RIGHTMOST_LABELS)
    got.reverse()
    got.append(0)
    assert level(t, 7, RIGHTMOST_LABELS) == want


def test_level_beyond_depth_is_empty(rc5):
    t = simulation_tree(rc5, 3)
    assert level(t, 9, RIGHTMOST_LABELS) == []


def test_level_ordering_not_total_without_rightmost_labels():
    # two siblings, neither carrying a rightmost label: incomparable
    from atlir.comptree import ComputationTree

    t = ComputationTree("r", {(("a",),): "x", (("b",),): "y"})
    with pytest.raises(
        OrderingNotTotal, match=r"^level 1: nodes labeled 'x' and 'y' are incomparable$"
    ):
        level(t, 1)
    assert [t.label(v) for v in level(t, 1, {"y"})] == ["x", "y"]


def test_level_ordering_not_total_with_two_rightmost_siblings():
    # both siblings carry a rightmost label: each must follow the other
    from atlir.comptree import ComputationTree

    t = ComputationTree("r", {(("a",),): "x", (("b",),): "y"})
    with pytest.raises(
        OrderingNotTotal, match=r"^level 1: nodes labeled 'x' and 'y' are ordered both ways$"
    ):
        level(t, 1, {"x", "y"})


def test_is_complete_level(rc5):
    t = simulation_tree(rc5, 7)
    assert is_complete_level(t, 3)
    assert is_complete_level(t, 1)
    t0 = _single_path_tree()
    assert not is_complete_level(t0, 1)


def _single_path_tree():
    from atlir.comptree import ComputationTree

    return ComputationTree("r", {(("a",),): "x", (("a",), ("a",)): "x"})


def test_confluence_random_extension_order(rc5):
    g = rc5.cgs
    team = simulating_strategy(rc5)
    want = simulation_tree(rc5, 4)
    rng = random.Random(7)
    for _ in range(3):
        t = single_node(S_INIT)
        pending = [()]
        while pending:
            rng.shuffle(pending)
            v = pending.pop()
            if len(v) >= 4:
                continue
            from atlir.strategies import compatible_in_order

            tuples = sorted(set(compatible_in_order(g, team, t.history(t.node(v)))))
            rng.shuffle(tuples)
            for a in tuples:
                if g.delta.get((t.label(t.node(v)), a)) is None:
                    continue
                t = extend(g, team, t, t.node(v), a)
                pending.append(v + (a,))
        assert t == want


def test_trees_embed_in_saturation(rc5):
    g = rc5.cgs
    team = simulating_strategy(rc5)
    big = simulation_tree(rc5, 5)
    big_labels = big.labels()
    t = single_node(S_INIT)
    from atlir.strategies import compatible_in_order

    for v in list(big_labels):
        if len(v) < 3:
            for a in sorted(set(compatible_in_order(g, team, big.history(big.node(v)))))[:1]:
                child = v + (a,)
                here = t.labels()
                if child in big_labels and child not in here and v in here:
                    t = extend(g, team, t, t.node(v), a)
    assert all(v in big_labels and big_labels[v] == x for v, x in t.labels().items())


def test_dot_export(rc5):
    t = simulation_tree(rc5, 1)
    dot = to_dot(rc5.cgs, t)
    assert dot.startswith("digraph")
    assert "s_init | ok" in dot
    assert "(idle,idle,br1)" in dot


def test_levels_json(rc5):
    t = simulation_tree(rc5, 3)
    doc = levels_to_json(t, RIGHTMOST_LABELS)
    assert doc["level_0"] == [S_INIT]
    assert doc["level_3"] == ["s_lb'", "s_q0,B", "s_tr'", "s_gen"]


def _level_outcome(fn, t, n, last_labels):
    try:
        return "ok", fn(t, n, last_labels)
    except OrderingNotTotal as exc:
        return "raise", str(exc)


def _assert_levels_match(t, last_labels, seen):
    for n in range(t.max_depth + 2):
        want = _level_outcome(reference_level, t, n, last_labels)
        assert _level_outcome(level, t, n, last_labels) == want, (n, last_labels)
        if want[0] == "raise":
            seen.add(want[1].rsplit(" are ", 1)[1])
        elif len(want[1]) >= 2:
            seen.add("total")


@pytest.mark.parametrize("name", sorted(SIX_MACHINES))
def test_level_matches_reference_on_simulation_trees(name):
    t = simulation_tree(build_cgs(SIX_MACHINES[name]), 15)
    seen = set()
    for last_labels in (RIGHTMOST_LABELS, frozenset(), {S_GEN}, {S_TR2}):
        _assert_levels_match(t, last_labels, seen)
    assert "total" in seen and "incomparable" in seen


def test_level_matches_reference_on_random_trees():
    rng = random.Random(20)
    seen = set()
    for _ in range(2000):
        t = random_label_tree(rng, "abcd", max_depth=4)
        last_labels = frozenset(rng.sample("abcd", rng.randint(0, 2)))
        _assert_levels_match(t, last_labels, seen)
    assert seen == {"total", "incomparable", "ordered both ways"}


def _assert_relations_match(t, last_labels, seen):
    """Equal closed rows at every level; ``seen`` collects (level above
    total, level total) for levels of two or more nodes."""
    want = reference_level_relation(t, last_labels, t.max_depth)
    for n, rows in enumerate(want):
        assert _level_relation(t, last_labels, n)[0] == rows, (n, last_labels)
        if n and len(rows) >= 2:
            seen.add((_total(want[n - 1]), _total(rows)))


def _total(rows):
    size = len(rows)
    return not any(row >> i & 1 for i, row in enumerate(rows)) and (
        sum(map(int.bit_count, rows)) == size * (size - 1) // 2
    )


def test_level_relation_matches_warshall_on_simulation_trees():
    seen = set()
    for name in sorted(SIX_MACHINES):
        t = simulation_tree(build_cgs(SIX_MACHINES[name]), 41)
        for last_labels in (RIGHTMOST_LABELS, frozenset(), frozenset({S_GEN}), frozenset({S_TR2})):
            _assert_relations_match(t, last_labels, seen)
    assert (True, True) in seen and (True, False) in seen


def test_level_relation_matches_warshall_on_random_trees():
    rng = random.Random(21)
    seen = set()
    for _ in range(2000):
        t = random_label_tree(rng, "abcd", max_depth=4)
        last_labels = frozenset(rng.sample("abcd", rng.randint(0, 2)))
        _assert_relations_match(t, last_labels, seen)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
