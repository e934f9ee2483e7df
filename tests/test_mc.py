import itertools
import random

import pytest

from oracles import (
    backward_induction_safe,
    brute_force_safety_refuted,
    check_box_atomic,
    random_cgs,
    reference_check,
)
from machines import FIVE_MACHINES, M5_EXT, M_HALT

from atlir.cgs import Cgs, cgs_from_json, cgs_to_json
from atlir.formulas import MAX_NESTING, parse_formula
from atlir.mc import BoundTooSmall, Truth, UnknownProposition, _Search, check
from atlir.reduction import S_INIT, build_cgs
from atlir.strategies import AgentStrategy, TeamStrategy, table_dump


def singleton(label_p=True):
    return Cgs(
        agents=1,
        states=["s"],
        props=["ok"],
        label={"s": ["ok"] if label_p else []},
        obs={1: [["s"]]},
        actions=["a"],
        avail={1: {"s": ["a"]}},
        delta={("s", ("a",)): "s"},
    )


def test_atom():
    g = singleton()
    v = check(g, "s", parse_formula("ok"), 1)
    assert v.value is Truth.TRUE and v.witness == ["s"]
    v = check(g, "s", parse_formula("!ok"), 1)
    assert v.value is Truth.FALSE and v.counterexample == ["s"]


def test_and_three_valued():
    g = singleton()
    assert check(g, "s", parse_formula("ok & ok"), 2).value is Truth.TRUE
    assert check(g, "s", parse_formula("ok & !ok"), 2).value is Truth.FALSE
    # globally is never True, so the conjunction stays open
    assert check(g, "s", parse_formula("ok & <<1>> G ok"), 2).value is Truth.UNKNOWN


def test_negation_duality():
    g = singleton()
    for text in ("ok", "!ok", "<<1>> G ok", "<<1>> ok U ok"):
        f = parse_formula(text)
        inner = check(g, "s", f, 3).value
        outer = check(g, "s", parse_formula(f"!({text})"), 3).value
        flip = {Truth.TRUE: Truth.FALSE, Truth.FALSE: Truth.TRUE, Truth.UNKNOWN: Truth.UNKNOWN}
        assert outer is flip[inner]


def test_next_exact():
    g = Cgs(
        agents=2,
        states=["s", "t", "u"],
        props=["p"],
        label={"t": ["p"]},
        obs={1: [["s", "t", "u"]], 2: [["s", "t", "u"]]},
        actions=["a", "b"],
        avail={1: {"s": ["a", "b"], "t": ["a"], "u": ["a"]}, 2: {"s": ["a"], "t": ["a"], "u": ["a"]}},
        delta={
            ("s", ("a", "a")): "t",
            ("s", ("b", "a")): "u",
            ("t", ("a", "a")): "t",
            ("u", ("a", "a")): "u",
        },
    )
    v = check(g, "s", parse_formula("<<1>> X p"), 1)
    assert v.value is Truth.TRUE
    assert v.witness == {"actions": {1: "a"}}
    v = check(g, "s", parse_formula("<<2>> X p"), 1)
    assert v.value is Truth.FALSE  # agent 1 may pick b, reaching u
    v = check(g, "s", parse_formula("<<2>> X !p"), 1)
    assert v.value is Truth.FALSE  # ... or a, reaching t


def test_box_false_at_root():
    g = singleton(label_p=False)
    v = check(g, "s", parse_formula("<<1>> G ok"), 1)
    assert v.value is Truth.FALSE and v.counterexample == ["s"]


def test_box_never_true():
    g = singleton()
    for bound in (1, 3, 5):
        assert check(g, "s", parse_formula("<<1>> G ok"), bound).value is Truth.UNKNOWN


def test_until_witness_at_root():
    g = singleton()
    v = check(g, "s", parse_formula("<<1>> ok U ok"), 1)
    assert v.value is Truth.TRUE


def test_until_one_step_force():
    g = Cgs(
        agents=1,
        states=["s", "t"],
        props=["p", "q"],
        label={"s": ["p"], "t": ["q"]},
        obs={1: [["s", "t"]]},
        actions=["a"],
        avail={1: {"s": ["a"], "t": ["a"]}},
        delta={("s", ("a",)): "t", ("t", ("a",)): "t"},
    )
    v = check(g, "s", parse_formula("<<1>> p U q"), 2)
    assert v.value is Truth.TRUE
    assert v.witness["table"] == [{"agent": 1, "obs_history": [0], "action": "a"}]


def test_until_witness_rows_are_the_table_dump():
    # the witness rows are those of the team strategy built from them
    rng = random.Random(8)
    witnessed = 0
    for _ in range(300):
        doc = cgs_to_json(random_cgs(rng, max_states=5, max_actions=3))
        doc["props"].append("q")
        for props in doc["label"].values():
            if rng.random() < 0.3:
                props.append("q")
        g = cgs_from_json(doc)
        s = rng.choice(doc["states"])
        members = rng.choice([(1,), (2,), (1, 2)])
        coalition = ",".join(map(str, members))
        v = check(g, s, parse_formula(f"<<{coalition}>> p U q"), rng.randint(1, 4))
        if v.value is not Truth.TRUE:
            continue
        rows = v.witness["table"]
        tables = {m: {} for m in members}
        for row in rows:
            tables[row["agent"]][tuple(row["obs_history"])] = row["action"]
        team = TeamStrategy.of(*(AgentStrategy.from_table(m, t) for m, t in tables.items()))
        assert table_dump(team) == rows
        witnessed += bool(rows)
    assert witnessed >= 20


def test_until_never_false():
    g = singleton(label_p=False)
    assert check(g, "s", parse_formula("<<1>> ok U ok"), 3).value is Truth.UNKNOWN


def test_bound_too_small():
    g = singleton()
    with pytest.raises(BoundTooSmall):
        check(g, "s", parse_formula("ok"), 0)
    with pytest.raises(BoundTooSmall):
        check_box_atomic(g, "s", {1}, "ok", 0)


def test_unknown_proposition():
    g = singleton()
    with pytest.raises(UnknownProposition):
        check(g, "s", parse_formula("mystery"), 1)
    with pytest.raises(UnknownProposition):
        check_box_atomic(g, "s", {1}, "mystery", 1)


def test_halting_refutation(rc_halt):
    f = parse_formula("<<1,2>> G ok")
    v = check(rc_halt.cgs, S_INIT, f, 6)
    assert v.value is Truth.FALSE
    assert v.counterexample[-1] == "s_err"


def test_nonhalting_unknown(rc_ext):
    f = parse_formula("<<1,2>> G ok")
    assert check(rc_ext.cgs, S_INIT, f, 5).value is Truth.UNKNOWN


def test_box_atomic_contract(rc_halt):
    v = check_box_atomic(rc_halt.cgs, S_INIT, {1, 2}, "ok", 6)
    assert v.value is Truth.FALSE
    assert v.counterexample[-1] == "s_err"
    g = singleton()
    assert check_box_atomic(g, "s", {1}, "ok", 4).value is Truth.UNKNOWN
    v = check_box_atomic(singleton(label_p=False), "s", {1}, "ok", 1)
    assert v.value is Truth.FALSE and v.counterexample == ["s"]


def test_monotone_verdicts():
    rng = random.Random(11)
    for _ in range(25):
        g = random_cgs(rng, max_states=4, max_actions=2)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        f = parse_formula("<<1>> G p")
        prev = None
        for bound in (1, 2, 3, 4):
            got = check(g, s, f, bound).value
            if prev is Truth.FALSE:
                assert got is Truth.FALSE
            prev = got


def test_agreement_with_tree_twin():
    rng = random.Random(12)
    for _ in range(40):
        g = random_cgs(rng, max_states=5, max_actions=2)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        team = rng.choice([{1}, {2}, {1, 2}])
        bound = rng.randint(1, 4)
        agents = frozenset(team)
        via_check = check(g, s, parse_formula(f"<<{','.join(map(str, sorted(team)))}>> G p"), bound)
        via_trees = check_box_atomic(g, s, team, "p", bound)
        assert via_check.value is via_trees.value


def test_identity_obs_matches_backward_induction():
    rng = random.Random(13)
    for _ in range(25):
        g = random_cgs(rng, max_states=3, max_actions=2, identity_obs=True)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        team = rng.choice([{1}, {2}, {1, 2}])
        safe = backward_induction_safe(g, team, "p")
        coalition = ",".join(map(str, sorted(team)))
        v = check(g, s, parse_formula(f"<<{coalition}>> G p"), len(g.states))
        if s in safe:
            assert v.value is Truth.UNKNOWN
        else:
            assert v.value is Truth.FALSE


def test_nested_coalitions_are_state_based():
    g = Cgs(
        agents=1,
        states=["s0", "s1", "s2"],
        props=["p"],
        label={"s1": ["p"]},
        obs={1: [["s0", "s1", "s2"]]},
        actions=["a"],
        avail={1: {s: ["a"] for s in ["s0", "s1", "s2"]}},
        delta={
            ("s0", ("a",)): "s1",
            ("s1", ("a",)): "s2",
            ("s2", ("a",)): "s2",
        },
    )
    assert check(g, "s0", parse_formula("<<1>> X p"), 2).value is Truth.TRUE
    # the inner goals re-evaluate from s1: the one-step goal fails there,
    # and the forced p-free sink even refutes the inner safety goal
    assert check(g, "s0", parse_formula("<<1>> X <<1>> X p"), 2).value is Truth.FALSE
    assert check(g, "s0", parse_formula("<<1>> X <<1>> G p"), 2).value is Truth.FALSE
    # with the sink labeled too, the inner safety goal stays open, and
    # openness propagates through the outer step
    g2 = Cgs(
        agents=1,
        states=["s0", "s1", "s2"],
        props=["p"],
        label={"s1": ["p"], "s2": ["p"]},
        obs={1: [["s0", "s1", "s2"]]},
        actions=["a"],
        avail={1: {s: ["a"] for s in ["s0", "s1", "s2"]}},
        delta={
            ("s0", ("a",)): "s1",
            ("s1", ("a",)): "s2",
            ("s2", ("a",)): "s2",
        },
    )
    assert check(g2, "s0", parse_formula("<<1>> X <<1>> G p"), 2).value is Truth.UNKNOWN


def test_unknown_agent_in_coalition():
    from atlir.cgs import UnknownAgent

    g = singleton()
    with pytest.raises(UnknownAgent):
        check(g, "s", parse_formula("<<7>> G ok"), 1)


def test_box_matches_brute_force_table_enumeration():
    # every uniform table enumerated outright, replayed through the
    # outcome machinery: the strongest oracle for the bounded semantics
    rng = random.Random(14)
    compared = 0
    while compared < 30:
        g = random_cgs(rng, max_states=3, max_actions=2)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        team = rng.choice([{1}, {2}, {1, 2}])
        bound = rng.randint(1, 3)
        refuted = brute_force_safety_refuted(g, team, "p", s, bound)
        if refuted is None:
            continue
        coalition = ",".join(map(str, sorted(team)))
        v = check(g, s, parse_formula(f"<<{coalition}>> G p"), bound)
        assert (v.value is Truth.FALSE) == refuted
        compared += 1


def test_memoised_verdicts_are_deterministic(rc_halt):
    f = parse_formula("<<1,2>> G ok")
    v1 = check(rc_halt.cgs, S_INIT, f, 6)
    v2 = check(rc_halt.cgs, S_INIT, f, 6)
    assert v1.to_json() == v2.to_json()


# Formula shapes for the differential tests; {c} and {d} are coalitions.
RANDOM_SHAPES = (
    "<<{c}>> G p",
    "<<{c}>> G !p",
    "<<{c}>> p U !p",
    "<<{c}>> !p U p",
    "<<{c}>> X p",
    "!<<{c}>> G p",
    "!<<{c}>> p U <<{d}>> X !p",
    "<<{c}>> G <<{d}>> X p",
    "<<{c}>> X <<{d}>> G p",
    "<<{c}>> G (p & !<<{d}>> G p)",
    "<<{c}>> G <<{d}>> p U !p",
    "<<{c}>> (p & <<{d}>> X p) U !<<{d}>> G p",
)


def test_search_matches_reference_on_random_structures():
    # verdicts and evidence, byte for byte, against whole-table enumeration
    rng = random.Random(15)
    for _ in range(1000):
        g = random_cgs(rng, max_states=5, max_actions=3, identity_obs=rng.random() < 0.3)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        c, d = (rng.choice(["1", "2", "1,2"]) for _ in range(2))
        f = parse_formula(rng.choice(RANDOM_SHAPES).format(c=c, d=d))
        bound = rng.randint(1, 3)
        assert check(g, s, f, bound).to_json() == reference_check(g, s, f, bound).to_json()


def test_counterexample_is_the_first_refuted_tables_failure():
    # Seeds at which the search first cuts on a history that a full scan
    # of the refuted table does not reach first, or at which the table's
    # unassigned classes matter; the evidence must be the full scan's.
    for seed in (573, 901, 3369, 5734):
        rng = random.Random(seed)
        g = random_cgs(rng, max_states=6, max_actions=3)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        f = parse_formula(f"<<{rng.choice(['1', '2', '1,2'])}>> G p")
        v = check(g, s, f, 3)
        assert v.value is Truth.FALSE
        assert v.to_json() == reference_check(g, s, f, 3).to_json()


# Top bound per machine at which the reference still answers `<<1,2>> G ok`
# at s_init within about a second and a half.
REFERENCE_BOUNDS = {
    "two_rule": 7,
    "right_forever": 7,
    "right_two_symbol": 6,
    "left_bouncing_halter": 6,
    "three_state_loop": 5,
    "halting": 8,
}
GAME_FORMULAS = (
    "<<1>> G ok",
    "<<3>> G ok",
    "<<1,2>> ok U p1",
    "<<1,2>> ok U !ok",
    "<<1,2>> G (ok & !<<3>> X p2)",
)


@pytest.mark.parametrize("name", sorted(REFERENCE_BOUNDS))
def test_search_matches_reference_on_compiled_games(name):
    g = build_cgs(dict(FIVE_MACHINES, halting=M_HALT)[name]).cgs
    cases = [("<<1,2>> G ok", b) for b in range(1, REFERENCE_BOUNDS[name] + 1)]
    cases += [(text, b) for text in GAME_FORMULAS for b in (1, 2, 3)]
    for text, bound in cases:
        f = parse_formula(text)
        got = check(g, S_INIT, f, bound).to_json()
        assert got == reference_check(g, S_INIT, f, bound).to_json(), (text, bound)


def test_nonhalting_unknown_at_bound_12():
    f = parse_formula("<<1,2>> G ok")
    assert check(build_cgs(M5_EXT).cgs, S_INIT, f, 12).value is Truth.UNKNOWN


@pytest.mark.parametrize(
    "opener, levels",
    [("<<1>> G ", 1), ("<<1>> ok U ", 1), ("!<<1>> X ", 2), ("ok & <<1>> G ", 2)],
)
def test_deepest_formula_evaluates(opener, levels):
    # The checker's recursion is bounded by the parser's nesting limit.
    # On a line of states each nested modality first meets a fresh state
    # inside the search of the one above it, which recurses the deepest.
    n = MAX_NESTING + 5
    states = [f"c{i}" for i in range(n)]
    line = Cgs(
        agents=1,
        states=states,
        props=["ok"],
        label={s: ["ok"] for s in states},
        obs={1: [[s] for s in states]},
        actions=["a"],
        avail={1: {s: ["a"] for s in states}},
        delta={(s, ("a",)): states[min(i + 1, n - 1)] for i, s in enumerate(states)},
    )
    f = parse_formula(opener * (MAX_NESTING // levels) + "ok")
    assert check(line, "c0", f, 2).value in set(Truth)


def test_bound_does_not_deepen_recursion():
    f = parse_formula("<<1>> G ok")
    assert check(singleton(), "s", f, 1500).value is Truth.UNKNOWN


def _plain_assignments(g, members, classify, frontier):
    """One depth of the slot search by plain enumeration: every action
    assignment of the slots, in order, that no frontier history fails."""
    keys = [tuple(g.obs_key(m, h) for m in members) for h in frontier]
    rep = {}
    for h, ks in zip(frontier, keys):
        for m, k in zip(members, ks):
            rep.setdefault((m, k), h[-1])
    slots = sorted(rep, key=lambda mk: (mk[0], len(mk[1]), mk[1]))
    options = [g.available_sorted(m, rep[(m, k)]) for m, k in slots]
    search = _Search(g, members, classify)
    out = []
    for acts in itertools.product(*options):
        table = dict(zip(slots, acts))
        nxt = []
        for h, ks in zip(frontier, keys):
            bad, cont = search.classified(h[-1], tuple(table[mk] for mk in zip(members, ks)))
            if bad is not None:
                break
            nxt += [(h + (t,), ks) for t in cont]
        else:
            out.append((tuple(nxt), (slots, acts)))
    return out


def _slot_case(seed):
    """A random structure, team, classifier and frontier for one depth."""
    rng = random.Random(f"slots/{seed}")
    g = random_cgs(rng, max_states=8, max_actions=3)
    members = rng.choice([[1], [2], [1, 2], [1, 2]])
    p = rng.uniform(0.1, 0.6)

    def classify(succs):
        # a fixed verdict per successor set, whatever the order of calls
        if random.Random(f"slots/{seed}/{succs}").random() < p:
            return succs[0], ()
        return None, succs

    states = sorted(g.states)
    depth = rng.randint(1, 3)
    frontier = sorted(
        {
            tuple([states[0]] + [rng.choice(states) for _ in range(depth - 1)])
            for _ in range(rng.randint(1, 8))
        }
    )
    return g, members, classify, frontier


# 218, 1425, 1683 and 1847 need a backjump's conflict set passed on to
# the slot it lands on; a search that drops it misses tables there
@pytest.mark.parametrize("seeds", [range(300), [218, 1425, 1683, 1847]])
def test_slot_search_yields_what_plain_enumeration_accepts(seeds):
    # Backjumping skips only assignments that extend to no table, so one
    # depth yields the same tables, frontiers and order as a plain scan.
    yields = 0
    for seed in seeds:
        g, members, classify, frontier = _slot_case(seed)
        entries = tuple((h, tuple(g.obs_key(m, h[:-1]) for m in members)) for h in frontier)
        got = list(_Search(g, members, classify)._assignments(entries))
        assert got == _plain_assignments(g, members, classify, frontier)
        yields += len(got)
    assert yields > 0
