"""The paper's theorem, in its bounded form, on machines nobody picked.

``tnf.py`` enumerates the machines and states the law; the full
three-state sweep runs as a script (``python tests/tnf.py``).
"""

import random
from collections import Counter

import pytest

from tnf import (
    NONHALTING_BOUND,
    STEP_LIMIT,
    construction_violations,
    expected_verdicts,
    halting_step,
    law_violations,
    tnf_machines,
)

from atlir.mc import Truth
from atlir.turing import halts_within


@pytest.fixture(scope="module")
def two_state():
    return tnf_machines(2)


@pytest.fixture(scope="module")
def three_state():
    return tnf_machines(3)


def test_two_state_census(two_state):
    steps = [halting_step(m) for m in two_state]
    halting = [t for t in steps if t is not None]
    assert (len(two_state), len(halting), max(halting)) == (105, 50, 7)


def test_three_state_census(three_state):
    steps = [halting_step(m) for m in three_state]
    halting = [t for t in steps if t is not None]
    assert len(three_state) == 9033
    assert (len(halting), steps.count(None), max(halting)) == (3633, 5400, 25)
    assert sum(t >= 20 for t in halting) == 15


def test_tree_normal_form_machines_are_distinct(three_state):
    tables = Counter(frozenset(m.delta.items()) for m in three_state)
    assert max(tables.values()) == 1


def test_law_verdicts_follow_the_halting_step():
    two = tnf_machines(2)
    m = next(m for m in two if halting_step(m) == 7)
    assert expected_verdicts(m) == {15: Truth.UNKNOWN, 16: Truth.FALSE}
    m = next(m for m in two if halting_step(m) is None)
    assert not halts_within(m, STEP_LIMIT)
    assert expected_verdicts(m) == {NONHALTING_BOUND: Truth.UNKNOWN}


def test_law_on_every_two_state_machine(two_state):
    bad = [line for m in two_state for line in law_violations(m)]
    assert bad == []


def test_law_on_the_longest_three_state_runs(three_state):
    longest = [m for m in three_state if (halting_step(m) or 0) >= 20]
    assert len(longest) == 15
    bad = [line for m in longest for line in law_violations(m)]
    assert bad == []


def test_law_on_a_sample_of_running_three_state_machines(three_state):
    running = [m for m in three_state if halting_step(m) is None]
    sample = random.Random("tnf-3/running").sample(running, 40)
    bad = [line for m in sample for line in law_violations(m)]
    assert bad == []


def test_construction_law_on_the_same_machines(two_state, three_state):
    longest = [m for m in three_state if (halting_step(m) or 0) >= 20]
    running = [m for m in three_state if halting_step(m) is None]
    machines = two_state + longest + random.Random("tnf-3/running").sample(running, 40)
    assert len(machines) == 160
    bad = [line for m in machines for line in construction_violations(m)]
    assert bad == []
