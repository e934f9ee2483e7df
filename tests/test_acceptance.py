"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Budgets are wall-clock assertions, generous on fast
machines but real: the strategy searches are exponential and stay at
desk scale.
"""

import random
import time

from machines import FIVE_MACHINES, M5, M5_EXT, M_HALT

from hypothesis import given, settings, strategies as st

from oracles import backward_induction_safe, check_box_atomic, random_cgs

from atlir.cgs import load_cgs, save_cgs
from atlir.formulas import parse_formula, render_formula
from atlir.mc import Truth, check
from atlir.reduction import (
    S_ERR,
    S_INIT,
    build_cgs,
    decode_level,
    simulating_strategy,
    simulation_tree,
    verify_construction,
)
from atlir.strategies import is_uniform
from atlir.turing import Configuration, parse_configuration, step

# Regression value: the exhaustive search refutes the halting machine's
# safety objective at exactly this bound.
HALT_REFUTING_BOUND = 6


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_fig5_reproduction():
    started = time.perf_counter()
    rc = build_cgs(M5)
    tree = simulation_tree(rc, 7)
    decoded = ["".join(decode_level(rc, tree, n)) for n in (3, 5, 7)]
    elapsed = time.perf_counter() - started
    ok = decoded == ["q0B", "aq1B", "q2ab"] and elapsed < 1.0
    report(1, ok, f"two-rule machine decodes {decoded} in {elapsed:.2f}s")


def test_criterion_2_step_correspondence():
    started = time.perf_counter()
    depth = 11
    checked = 0
    ok = True
    for name, m in FIVE_MACHINES.items():
        rc = build_cgs(m)
        tree = simulation_tree(rc, depth)
        err_frontier = next(
            (
                n
                for n in range(depth + 1)
                if any(tree.label(v) == S_ERR for v in tree.nodes_at_depth(n))
            ),
            depth + 1,
        )
        for n in range(3, depth - 1, 2):
            if n + 2 >= err_frontier:
                continue
            if len(tree.nodes_at_depth(n)) != n + 1:
                continue
            if len(tree.nodes_at_depth(n + 2)) != n + 3:
                continue
            word = decode_level(rc, tree, n)
            nxt = step(m, parse_configuration(m, word))
            got = decode_level(rc, tree, n + 2)
            if not (isinstance(nxt, Configuration) and nxt.word == got):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and checked >= 15 and elapsed < 10.0
    report(2, ok, f"{checked} level pairs across 5 machines match the step map in {elapsed:.1f}s")


def test_criterion_3_structural_suite():
    rep = verify_construction(build_cgs(M5_EXT), 9)
    structural = [
        e for e in rep.entries if e.subclaim in ("2.1", "2.4", "2.5", "3.2", "3.3", "3.4")
    ]
    ok = bool(structural) and all(e.passed for e in structural) and rep.all_pass
    report(3, ok, f"{len(structural)} structural checks pass on all levels to depth 9")


def test_criterion_4_uniformity():
    rc = build_cgs(M5_EXT)
    team = simulating_strategy(rc)
    ok = is_uniform(rc.cgs, team.strategies[1], S_INIT, 9) and is_uniform(
        rc.cgs, team.strategies[2], S_INIT, 9
    )
    report(4, ok, "simulating strategy uniform for both agents to depth 9")


def test_criterion_5_halting_refutation():
    started = time.perf_counter()
    rc = build_cgs(M_HALT)
    f = parse_formula("<<1,2>> G ok")
    found = None
    verdict = None
    for bound in range(1, 9):
        verdict = check(rc.cgs, S_INIT, f, bound)
        if verdict.value is Truth.FALSE:
            found = bound
            break
    elapsed = time.perf_counter() - started
    ok = (
        found == HALT_REFUTING_BOUND
        and isinstance(verdict.counterexample, list)
        and verdict.counterexample[-1] == S_ERR
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"halting machine refuted at bound {found} with an error-terminated "
        f"path in {elapsed:.1f}s",
    )


def test_criterion_6_nonhalting_consistency():
    rc = build_cgs(M5_EXT)
    f = parse_formula("<<1,2>> G ok")
    verdicts = {b: check(rc.cgs, S_INIT, f, b).value for b in range(4, 9)}
    tree = simulation_tree(rc, 8)
    no_err = all(
        tree.label(v) != S_ERR
        for n in range(9)
        for v in tree.nodes_at_depth(n)
    )
    ok = all(v is Truth.UNKNOWN for v in verdicts.values()) and no_err
    report(
        6,
        ok,
        "non-halting machine stays Unknown at bounds 4..8 while its "
        "simulation tree stays clear of the error state",
    )


def test_criterion_7_differential_oracle():
    rng = random.Random(20240809)
    total = 0
    disagreements = 0
    oracle_mismatches = 0
    identity_cases = 0
    while total < 200:
        identity = total % 2 == 1
        g = random_cgs(rng, max_states=5, max_actions=3, identity_obs=identity)
        s = sorted(g.states)[rng.randrange(len(g.states))]
        team = rng.choice([{1}, {2}, {1, 2}])
        bound = rng.randint(1, 3)
        coalition = ",".join(map(str, sorted(team)))
        f = parse_formula(f"<<{coalition}>> G p")
        v1 = check(g, s, f, bound)
        v2 = check_box_atomic(g, s, team, "p", bound)
        if v1.value is not v2.value:
            disagreements += 1
        if identity:
            identity_cases += 1
            safe = backward_induction_safe(g, team, "p")
            if v1.value is Truth.FALSE and s in safe:
                oracle_mismatches += 1
            # at a bound of |S| the refutation is exact for perfect information
            exact = check(g, s, f, len(g.states)).value
            if (exact is Truth.FALSE) != (s not in safe):
                oracle_mismatches += 1
        total += 1
    ok = disagreements == 0 and oracle_mismatches == 0 and identity_cases >= 90
    report(
        7,
        ok,
        f"{total} random structures: checker twins agree, "
        f"{identity_cases} perfect-information cases match backward induction",
    )


names = st.sampled_from(["p", "q", "r", "ok", "p1", "p2"])
agent_sets = st.frozensets(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


def _formulas():
    from atlir.formulas import And, Atom, Globally, Next, Not, Until

    return st.recursive(
        st.builds(Atom, names),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Next, agent_sets, sub),
            st.builds(Globally, agent_sets, sub),
            st.builds(Until, agent_sets, sub, sub),
        ),
        max_leaves=10,
    )


@settings(max_examples=1000, deadline=None)
@given(_formulas())
def _round_trip_law(f):
    assert parse_formula(render_formula(f)) == f


def test_criterion_8_round_trips(tmp_path):
    _round_trip_law()
    path = tmp_path / "m5.cgs.json"
    save_cgs(build_cgs(M5).cgs, path)
    once = path.read_bytes()
    path2 = tmp_path / "again.json"
    save_cgs(load_cgs(path), path2)
    stable = once == path2.read_bytes()
    report(8, stable, "1000 formula round trips and byte-stable structure files")
