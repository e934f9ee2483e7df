import copy
import itertools
import json
import random
from collections import Counter

import pytest

from machines import FIVE_MACHINES, M_HALT
from oracles import random_cgs, reference_delta, reference_validate

from atlir.cgs import (
    Cgs,
    CgsError,
    InvalidCgs,
    UnknownAction,
    UnknownAgent,
    UnknownState,
    cgs_from_json,
    cgs_to_json,
    load_cgs,
    obs_equiv_histories,
    obs_equiv_states,
    save_cgs,
    successor,
    validate_cgs,
)
from atlir.reduction import IDLE, BR1, S_GEN, S_INIT, S_LB, S_TR, build_cgs


def tiny(delta=None, avail=None, obs=None):
    return Cgs(
        agents=1,
        states=["s", "t"],
        props=["p"],
        label={"s": ["p"]},
        obs=obs or {1: [["s", "t"]]},
        actions=["a", "b"],
        avail=avail or {1: {"s": ["a"], "t": ["a"]}},
        delta=delta if delta is not None else {("s", ("a",)): "t", ("t", ("a",)): "t"},
    )


def test_validate_clean():
    assert validate_cgs(tiny()) == []


def test_validate_reduction_output_is_clean(rc5):
    assert validate_cgs(rc5.cgs) == []


def test_partial_on_available_tuple():
    g = tiny(delta={("t", ("a",)): "t"})
    kinds = [v.kind for v in validate_cgs(g)]
    assert kinds == ["PartialOnAvailableTuple"]


def test_avail_not_uniform():
    g = tiny(avail={1: {"s": ["a"], "t": ["b"]}}, delta={("s", ("a",)): "t", ("t", ("b",)): "t"})
    kinds = [v.kind for v in validate_cgs(g)]
    assert "AvailNotUniform" in kinds


def test_empty_avail_and_bad_partition():
    g = tiny(avail={1: {"s": ["a"]}}, obs={1: [["s"]]}, delta={("s", ("a",)): "t"})
    kinds = {v.kind for v in validate_cgs(g)}
    assert "EmptyAvail" in kinds
    assert "BadPartition" in kinds


def test_delta_on_unavailable_tuple():
    g = tiny(delta={("s", ("a",)): "t", ("t", ("a",)): "t", ("s", ("b",)): "s"})
    kinds = [v.kind for v in validate_cgs(g)]
    assert kinds == ["DeltaOnUnavailableTuple"]


def test_constructor_rejects_undeclared():
    with pytest.raises(UnknownState):
        tiny(delta={("nope", ("a",)): "t"})
    with pytest.raises(UnknownAction):
        tiny(delta={("s", ("zzz",)): "t"})


def test_successor_reduction_edges(rc5):
    g = rc5.cgs
    assert successor(g, S_INIT, (IDLE, IDLE, BR1)) == "s_init'"
    assert successor(g, "s_lb'", (IDLE, IDLE, IDLE)) == "s_lb'"
    # branching is not available to agent 1, so the transition is undefined
    assert successor(g, S_INIT, (BR1, IDLE, IDLE)) is None
    with pytest.raises(UnknownState):
        successor(g, "nowhere", (IDLE, IDLE, IDLE))
    with pytest.raises(UnknownAction):
        successor(g, S_INIT, (IDLE, IDLE, "mystery"))


def test_obs_equiv_states(rc5):
    g = rc5.cgs
    assert obs_equiv_states(g, 1, S_GEN, S_GEN)
    assert not obs_equiv_states(g, 1, S_GEN, S_TR)
    assert obs_equiv_states(g, 1, S_TR, S_LB)


def test_obs_equiv_histories(rc5):
    g = rc5.cgs
    assert obs_equiv_histories(g, 1, (S_INIT,), (S_INIT,))
    assert not obs_equiv_histories(g, 1, (S_INIT,), (S_INIT, S_INIT))
    # the two branches that write the initial head look alike to agent 2
    assert obs_equiv_histories(
        g, 2, (S_INIT, S_GEN, "s_B"), (S_INIT, "s_init'", S_LB)
    )
    assert not obs_equiv_histories(
        g, 1, (S_INIT, S_GEN, "s_B"), (S_INIT, "s_init'", S_LB)
    )


def test_obs_equiv_is_equivalence(rc5):
    g = rc5.cgs
    states = sorted(g.states)
    for i in (1, 2, 3):
        for s in states:
            assert obs_equiv_states(g, i, s, s)
        for s, t in itertools.combinations(states, 2):
            assert obs_equiv_states(g, i, s, t) == obs_equiv_states(g, i, t, s)
        for s, t, u in itertools.islice(itertools.permutations(states, 3), 500):
            if obs_equiv_states(g, i, s, t) and obs_equiv_states(g, i, t, u):
                assert obs_equiv_states(g, i, s, u)


def test_obs_equiv_congruence(rc5):
    g = rc5.cgs
    h1, h2 = (S_INIT, S_GEN, "s_B"), (S_INIT, "s_init'", S_LB)
    assert obs_equiv_histories(g, 2, h1, h2)
    for s, t in itertools.product(["s_a", "s_tr'", "s_lb'"], repeat=2):
        if obs_equiv_states(g, 2, s, t):
            assert obs_equiv_histories(g, 2, h1 + (s,), h2 + (t,))


def test_valid_cgs_has_total_delta_on_avail(rc5):
    g = rc5.cgs
    assert validate_cgs(g) == []
    for s in g.states:
        for a in g.joint_choices(s):
            assert successor(g, s, a) is not None


def test_save_load_round_trip(tmp_path, rc5):
    path = tmp_path / "game.json"
    save_cgs(rc5.cgs, path)
    loaded = load_cgs(path)
    assert loaded == rc5.cgs
    # byte stability after one normalisation pass
    path2 = tmp_path / "game2.json"
    save_cgs(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_invalid(tmp_path):
    g = tiny(delta={("t", ("a",)): "t"})
    path = tmp_path / "bad.json"
    save_cgs(g, path)
    with pytest.raises(InvalidCgs):
        load_cgs(path)
    loaded = load_cgs(path, allow_invalid=True)
    assert validate_cgs(loaded) != []


@pytest.mark.parametrize("name", sorted(FIVE_MACHINES) + ["halting"])
def test_compiled_game_round_trip(tmp_path, name):
    g = build_cgs(dict(FIVE_MACHINES, halting=M_HALT)[name]).cgs
    assert cgs_from_json(cgs_to_json(g)) == g
    path = tmp_path / "game.json"
    save_cgs(g, path)
    assert load_cgs(path) == g


def _edit(doc, path, value):
    doc = copy.deepcopy(doc)
    *keys, last = path
    node = doc
    for k in keys:
        node = node[k]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("states",), ["s", 3], "states holds 3, which is not a string"),
        (("states",), "st", "states must be a list, not str"),
        (("label", "s"), "p", "label of 's' must be a list, not str"),
        (("obs", "1"), [["s", "t"], "u"], "obs block of agent 1 must be a list, not str"),
        (("obs", "one"), [["s", "t"]], "obs key 'one' is not an agent number"),
        (("avail", "1", "t"), "a", "avail of agent 1 at 't' must be a list, not str"),
        (("delta", 1), ["t", "a", "t"], "delta row ['t', 'a', 't'] must be [state, [actions], state]"),
        (("delta", 1), ["t", ["a"], 3], "delta row ['t', ['a'], 3] must be [state, [actions], state]"),
        (
            ("delta", 1),
            ["t", [["a"]], "t"],
            "delta row ['t', [['a']], 't'] names an action that is not a string",
        ),
        (("delta", 1), ["t", ["a"]], "delta row ['t', ['a']] must be [state, [actions], state]"),
        (("delta", 1), ["s", ["a"], "s"], "delta has two rows for ('s', ['a'])"),
        (("agents",), "1", "agents must be an integer, not str"),
        (("props",), None, "props must be a list, not NoneType"),
    ],
)
def test_load_rejects_mistyped_fields(path, value, message):
    doc = _edit(cgs_to_json(tiny()), path, value)
    with pytest.raises(CgsError) as exc:
        cgs_from_json(doc)
    assert str(exc.value) == f"malformed game structure document: {message}"


@pytest.mark.parametrize(
    "path, value, error, message",
    [
        (("agents",), 0, CgsError, "agent count must be at least 1"),
        (("states",), [], CgsError, "state set must be non-empty"),
        (("actions",), [], CgsError, "action set must be non-empty"),
        (("label", "x"), [], UnknownState, "labeling mentions undeclared state 'x'"),
        (("label", "s"), ["q"], CgsError, "labeling of 's' uses undeclared proposition 'q'"),
        (("obs", "2"), [["s"]], UnknownAgent, "observation partition for undeclared agent 2"),
        (("obs", "1"), [["s", "x"]], UnknownState, "observation partition of agent 1 mentions 'x'"),
        (("avail", "0"), {}, UnknownAgent, "availability for undeclared agent 0"),
        (("avail", "1", "x"), ["a"], UnknownState, "availability of agent 1 mentions state 'x'"),
        (("avail", "1", "s"), ["z"], UnknownAction, "availability of agent 1 at 's' uses 'z'"),
    ],
)
def test_load_rejects_undeclared_names_and_empty_sets(path, value, error, message):
    doc = _edit(cgs_to_json(tiny()), path, value)
    with pytest.raises(error) as exc:
        cgs_from_json(doc)
    assert str(exc.value) == message


def test_load_rejects_missing_field():
    doc = cgs_to_json(tiny())
    del doc["delta"]
    with pytest.raises(CgsError, match="missing field 'delta'"):
        cgs_from_json(doc)


# -- differential tests of the load path ---------------------------------------


def _drop_rows(doc, rng):
    for _ in range(rng.randint(1, 3)):
        if doc["delta"]:
            doc["delta"].pop(rng.randrange(len(doc["delta"])))


def _unavailable_row(doc, rng):
    s = rng.choice(doc["states"])
    i = rng.randint(1, doc["agents"])
    spare = sorted(set(doc["actions"]) - set(doc["avail"][str(i)].get(s, [])))
    if not spare:
        spare = [f"z{len(doc['actions'])}"]
        doc["actions"].append(spare[0])
    joint = [rng.choice(doc["actions"]) for _ in range(doc["agents"])]
    joint[i - 1] = rng.choice(spare)
    if all((row[0], row[1]) != (s, joint) for row in doc["delta"]):
        doc["delta"].insert(rng.randint(0, len(doc["delta"])), [s, joint, rng.choice(doc["states"])])


def _nonuniform(doc, rng):
    i = str(rng.randint(1, doc["agents"]))
    big = [b for b in doc["obs"][i] if len(b) > 1]
    if big:
        s = rng.choice(rng.choice(big)[1:])
        doc["avail"][i][s] = sorted(rng.sample(doc["actions"], rng.randint(1, len(doc["actions"]))))


def _overlap(doc, rng):
    blocks = doc["obs"][str(rng.randint(1, doc["agents"]))]
    if len(blocks) > 1:
        src, dst = rng.sample(range(len(blocks)), 2)
        blocks[dst].append(rng.choice(blocks[src]))


def _missing(doc, rng):
    blocks = doc["obs"][str(rng.randint(1, doc["agents"]))]
    b = rng.choice(blocks)
    b.remove(rng.choice(b))
    if not b:
        blocks.remove(b)


def _empty_avail(doc, rng):
    per = doc["avail"][str(rng.randint(1, doc["agents"]))]
    s = rng.choice(doc["states"])
    if rng.random() < 0.5:
        per[s] = []
    else:
        per.pop(s, None)


FAULTS = (_drop_rows, _unavailable_row, _nonuniform, _overlap, _missing, _empty_avail)


def test_validate_matches_reference_on_faulty_structures():
    rng = random.Random(4242)
    kinds = Counter()
    for _ in range(600):
        doc = cgs_to_json(random_cgs(rng, max_states=5, max_actions=3))
        for fault in rng.sample(FAULTS, rng.randint(1, 3)):
            fault(doc, rng)
        g = cgs_from_json(doc)
        got = validate_cgs(g)
        assert got == reference_validate(g)
        kinds.update({v.kind for v in got})
        kinds["clean"] += not got
    assert set(kinds) == {
        "clean",
        "BadPartition",
        "AvailNotUniform",
        "EmptyAvail",
        "PartialOnAvailableTuple",
        "DeltaOnUnavailableTuple",
    }


@pytest.mark.parametrize("name", sorted(FIVE_MACHINES) + ["halting"])
def test_compiled_games_validate_clean(name):
    g = build_cgs(dict(FIVE_MACHINES, halting=M_HALT)[name]).cgs
    assert validate_cgs(g) == reference_validate(g) == []


@pytest.mark.parametrize(
    "row, error, message",
    [
        (["s", ["a", "a"], "t"], CgsError, "joint action ('a', 'a') has length 2, expected 1"),
        (["s", [], "t"], CgsError, "joint action () has length 0, expected 1"),
        (["s", ["zzz"], "t"], UnknownAction, "transition at 's' uses undeclared action 'zzz'"),
        (["nope", ["a"], "t"], UnknownState, "transition from undeclared state 'nope'"),
        (["s", ["b"], "nowhere"], UnknownState, "transition into undeclared state 'nowhere'"),
    ],
)
def test_bad_delta_row_after_good_ones(row, error, message):
    # the first bad row is reported, whatever follows it
    doc = cgs_to_json(tiny())
    doc["delta"] += [row, ["nope2", ["a"], "t"]]
    with pytest.raises(error) as exc:
        cgs_from_json(doc)
    assert type(exc.value) is error
    assert str(exc.value) == message
    # the constructor reports the same row when given the mapping directly
    delta = {(s, tuple(a)): t for s, a, t in doc["delta"]}
    with pytest.raises(error) as exc:
        tiny(delta=delta)
    assert str(exc.value) == message


def test_constructor_normalises_joint_actions():
    # a joint action given as any iterable of actions is stored as a tuple
    g = tiny(delta={("s", "a"): "t", ("t", ("a",)): "t"})
    assert g.delta == {("s", ("a",)): "t", ("t", ("a",)): "t"}


# -- differential test of the constructor's row checks --------------------------


class _Joint:
    """A hashable joint action that is not a tuple."""

    def __init__(self, acts):
        self.acts = tuple(acts)

    def __iter__(self):
        return iter(self.acts)

    def __hash__(self):
        return hash(self.acts)

    def __eq__(self, other):
        return isinstance(other, _Joint) and self.acts == other.acts


def _row_fault(kind, g, delta, actions, rng):
    """Inject one row fault of ``kind`` into ``delta`` (and ``actions``)."""
    (s, a), t = rng.choice(sorted(delta.items()))
    if kind == "source":
        delta[("nowhere", a)] = t
    elif kind == "target":
        delta[(s, a)] = "nowhere"
    elif kind == "action":
        i = rng.randrange(g.agents)
        delta[(s, a[:i] + ("zzz",) + a[i + 1 :])] = t
    elif kind == "arity":
        delta[(s, a + a[:1] if rng.random() < 0.5 else a[:-1])] = t
    elif kind == "unavailable":
        i = rng.randrange(g.agents)
        spare = sorted(set(actions) - g.available(i + 1, s)) or [f"z{len(actions)}"]
        actions.update(spare)
        delta[(s, a[:i] + (rng.choice(spare),) + a[i + 1 :])] = rng.choice(sorted(g.states))
    elif kind == "key":
        # in place, so the walk meets it where the row was
        rows = list(delta.items())
        delta.clear()
        for key, target in rows:
            if key == (s, a):
                key = (s, _Joint(a) if rng.random() < 0.7 else "".join(a))
            delta[key] = target


ROW_FAULTS = ("source", "target", "action", "arity", "unavailable", "key", None)


def test_constructor_rows_match_reference_walk():
    rng = random.Random(2201)
    seen = Counter()
    for _ in range(600):
        g = random_cgs(rng, max_states=5, max_actions=3)
        delta, actions = dict(g.delta), set(g.actions)
        kind = rng.choice(ROW_FAULTS)
        _row_fault(kind, g, delta, actions, rng)
        avail = {i: {s: acts for (j, s), acts in g.avail.items() if j == i} for i in (1, 2)}
        try:
            want = reference_delta(g.agents, g.states, actions, delta)
        except CgsError as exc:
            with pytest.raises(CgsError) as got:
                Cgs(g.agents, g.states, g.props, g.label, g.obs, actions, avail, delta)
            assert type(got.value) is type(exc) and str(got.value) == str(exc), kind
            seen[kind, "raised"] += 1
            continue
        h = Cgs(g.agents, g.states, g.props, g.label, g.obs, actions, avail, delta)
        assert h.delta == want, kind
        got = validate_cgs(h)
        assert got == reference_validate(h), kind
        seen[kind, "clean" if not got else "invalid"] += 1
    assert set(seen) == {
        ("source", "raised"),
        ("target", "raised"),
        ("action", "raised"),
        ("arity", "raised"),
        ("key", "raised"),
        ("key", "clean"),
        ("unavailable", "invalid"),
        (None, "clean"),
    }
