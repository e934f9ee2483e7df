"""Shared machine definitions used across the test suite."""

from atlir.turing import TuringMachine

# Two-rule machine: writes a, steps right, writes b, steps left, halts
# with no rule for (q2, a).  Trace: q0B => aq1B => q2ab.
M5 = TuringMachine(
    states={"q0", "q1", "q2"},
    alphabet={"B", "a", "b"},
    q0="q0",
    blank="B",
    delta={("q0", "B"): ("q1", "a", "R"), ("q1", "B"): ("q2", "b", "L")},
)

# Runs right forever writing a: q0B => aq1B => aaq1B => ...
M5_EXT = TuringMachine(
    states={"q0", "q1"},
    alphabet={"B", "a"},
    q0="q0",
    blank="B",
    delta={("q0", "B"): ("q1", "a", "R"), ("q1", "B"): ("q1", "a", "R")},
)

# Single rule; halts at step 2 with no rule for (q1, B).
M_HALT = TuringMachine(
    states={"q0", "q1"},
    alphabet={"B", "a"},
    q0="q0",
    blank="B",
    delta={("q0", "B"): ("q1", "a", "R")},
)

# Two-symbol right mover that alternates writing x and blank.
RIGHT2 = TuringMachine(
    states={"q0", "q1", "q2"},
    alphabet={"B", "x"},
    q0="q0",
    blank="B",
    delta={
        ("q0", "B"): ("q1", "x", "R"),
        ("q1", "B"): ("q2", "B", "R"),
        ("q2", "B"): ("q1", "x", "R"),
    },
)

# Steps right, bounces left, and halts by falling off the left edge at
# step 3: q0B => aq1B => q2ab => left-edge.
LBOUNCE = TuringMachine(
    states={"q0", "q1", "q2", "q3"},
    alphabet={"B", "a", "b", "c"},
    q0="q0",
    blank="B",
    delta={
        ("q0", "B"): ("q1", "a", "R"),
        ("q1", "B"): ("q2", "b", "L"),
        ("q2", "a"): ("q3", "c", "L"),
    },
)

# Three-state loop that bounces between the written zone's edge and the
# cell left of it, forever.
LOOP3 = TuringMachine(
    states={"q0", "q1", "q2"},
    alphabet={"B", "a"},
    q0="q0",
    blank="B",
    delta={
        ("q0", "B"): ("q1", "a", "R"),
        ("q1", "B"): ("q2", "a", "L"),
        ("q1", "a"): ("q1", "a", "R"),
        ("q2", "a"): ("q1", "a", "R"),
    },
)

FIVE_MACHINES = {
    "two_rule": M5,
    "right_forever": M5_EXT,
    "right_two_symbol": RIGHT2,
    "left_bouncing_halter": LBOUNCE,
    "three_state_loop": LOOP3,
}

SIX_MACHINES = {**FIVE_MACHINES, "single_rule_halter": M_HALT}
