"""Small machines in tree normal form, and the paper's theorem on them.

Tree normal form (Brady 1983) defines a rule only when the run from the
blank tape first reaches its (state, symbol) pair, and it names new
states in order of first use.  Each leaf of that tree is one machine:
it halts, or it runs past the step limit.

The law checked here is the sharp form of the paper's theorem that the
bounded checker can show.  A machine that halts at step t (the step of
``turing.run``) gives ``<<1,2>> G ok`` at ``s_init`` of its compiled
game as False at bound 2t+2 and Unknown at 2t+1; one that runs past the
limit gives Unknown at NONHALTING_BOUND.  Each check has a time limit,
since a broken compiler can make a check run for a long time.

The construction side of the law: the tree of the simulating strategy
first reaches ``s_err`` at level 2t+2 of a machine that halts at step t,
and never within NONHALTING_BOUND for one that runs past the limit, and
its odd levels from 3 on decode to the machine's run.

Run as a script for the full three-state sweep of both sides (about 9000
machines and three and a half minutes)::

    PYTHONPATH=src python tests/tnf.py
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager

from atlir.formulas import parse_formula
from atlir.mc import Truth, check
from atlir.reduction import S_INIT, build_cgs, verify_construction
from atlir.turing import (
    LEFT,
    NO_RULE,
    RIGHT,
    Halted,
    HaltedAt,
    TuringMachine,
    initial_configuration,
    run,
    split_configuration,
    step,
    trajectory,
)

SAFE_OK = parse_formula("<<1,2>> G ok")
SYMBOLS = ("B", "a")
STEP_LIMIT = 30
NONHALTING_BOUND = 24
CHECK_SECONDS = 5.0
# a machine that runs past the limit halts, if at all, at step t > limit,
# so Unknown at NONHALTING_BOUND <= 2t+1 is what the law says of it
assert NONHALTING_BOUND <= 2 * STEP_LIMIT + 1


def tnf_machines(n_states: int) -> list[TuringMachine]:
    """Every tree-normal-form machine with states q0..q{n_states-1} and
    symbols B (the blank) and a, run for at most STEP_LIMIT steps, in
    depth-first order of the tree.

    A machine whose run reaches an undefined pair is a leaf that halts
    there, and each rule for that pair makes a child that runs on from
    the same configuration.  Moves off the left edge halt too.
    """
    states = tuple(f"q{i}" for i in range(n_states))
    out: list[TuringMachine] = []

    def grow(delta, used, c, j):
        m = TuringMachine(states, SYMBOLS, states[0], SYMBOLS[0], delta)
        while j < STEP_LIMIT:
            nxt = step(m, c)
            if isinstance(nxt, Halted):
                out.append(m)
                if nxt.reason == NO_RULE:
                    _, q, right = split_configuration(m, c)
                    for k in range(min(used + 1, n_states)):
                        for a in SYMBOLS:
                            for move in (LEFT, RIGHT):
                                rule = (states[k], a, move)
                                grow({**delta, (q, right[0]): rule}, max(used, k + 1), c, j)
                return
            c, j = nxt, j + 1
        out.append(m)

    empty = TuringMachine(states, SYMBOLS, states[0], SYMBOLS[0], {})
    grow({}, 1, initial_configuration(empty), 0)
    return out


def halting_step(m: TuringMachine) -> int | None:
    """The step at which ``m`` halts, or None if it runs past STEP_LIMIT."""
    r = run(m, STEP_LIMIT)
    return r.step if isinstance(r, HaltedAt) else None


class CheckTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise :class:`CheckTimeout` in the block once ``seconds`` pass."""

    def expire(signum, frame):
        raise CheckTimeout

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def expected_verdicts(m: TuringMachine) -> dict[int, Truth]:
    """The law's verdicts for ``m``, per bound."""
    t = halting_step(m)
    if t is None:
        return {NONHALTING_BOUND: Truth.UNKNOWN}
    return {2 * t + 1: Truth.UNKNOWN, 2 * t + 2: Truth.FALSE}


def law_violations(m: TuringMachine) -> list[str]:
    """How ``m`` breaks the law, one line per failed check; empty if it
    does not."""
    g = build_cgs(m).cgs
    out = []
    for bound, want in expected_verdicts(m).items():
        try:
            with time_limit(CHECK_SECONDS):
                got = check(g, S_INIT, SAFE_OK, bound).value.value
        except CheckTimeout:
            got = f"no verdict within {CHECK_SECONDS} s"
        if got != want.value:
            out.append(f"{sorted(m.delta.items())}: bound {bound} gives {got}, not {want.value}")
    return out


def construction_violations(m: TuringMachine) -> list[str]:
    """How the construction checks on ``m``'s compiled game break the law,
    one line per failed check; empty if they do not.

    For a machine that halts at step t, ``verify_construction`` at depth
    2t+2 fails exactly one entry, ``ok-states`` at level 2t+2, and the
    odd levels 3..2t+1 are complete and decode (claim 4.1) to the t
    configurations of ``turing.trajectory``.  For one that runs past the
    limit, every entry passes at NONHALTING_BOUND, and the odd levels
    decode to the trajectory's first configurations.
    """
    t = halting_step(m)
    depth = NONHALTING_BOUND if t is None else 2 * t + 2
    try:
        with time_limit(CHECK_SECONDS):
            report = verify_construction(build_cgs(m), depth)
    except CheckTimeout:
        return [f"{sorted(m.delta.items())}: no report within {CHECK_SECONDS} s"]
    out = []
    failed = [(e.subclaim, e.level) for e in report.failures()]
    want = [] if t is None else [("ok-states", depth)]
    if failed != want:
        out.append(f"{sorted(m.delta.items())}: depth {depth} fails {failed}, not {want}")
    levels = range(3, depth, 2)
    words = [(e.level, e.detail) for e in report.entries if e.subclaim == "4.1"]
    run_words = [(n, str(c)) for n, c in zip(levels, trajectory(m, len(levels) - 1))]
    if words != run_words:
        out.append(f"{sorted(m.delta.items())}: levels decode to {words}, not {run_words}")
    return out


def main() -> int:
    machines = tnf_machines(3)
    bad = []
    for m in machines:
        bad += law_violations(m) + construction_violations(m)
    print(f"{len(machines)} three-state machines, {len(bad)} violations")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
