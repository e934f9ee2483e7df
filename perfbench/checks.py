"""Correctness of each op's output.

Two layers.  ``expected.json`` pins each op's exit code and a digest of
its standard output, so a wrong or changed payload fails.
``run.py --record`` writes that file and pins only the ops that pass
:func:`independent_failure`; every run applies those checks again on its
first pass.  They share no code with the program's search, tree or claim
routines:

* A ``G`` verdict is never True and a ``U`` verdict never False.
* Every counterexample path of a ``G`` refutation is replayed through
  ``atlir.cgs.successor``, and its labels must hold before the last
  state and fail at it.
* One-step goals are decided exactly by enumerating the members' action
  choices.  ``G`` and ``U`` goals whose members see every state apart
  are decided exactly by bounded backward induction, the finite-horizon
  form of ``tests/oracles.backward_induction_safe``.
* On compiled games, ``<<1,2>> G ok`` at s_init may be refuted only for
  machines that halt, and halting facts come from
  ``atlir.turing.halts_within``.
* ``verify-claims`` fails only the error-state claim, and only when the
  machine halts within the tree's horizon; ``simulate --decode`` prints
  the machine's own configurations, level by level.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product

from workloads import SAFE_OK, Op

EXIT_OF = {"True": 0, "False": 1, "Unknown": 5}
FLIP = {"True": "False", "False": "True", "Unknown": "Unknown"}

# A refutation of ``<<1,2>> G ok`` at s_init means the machine halts; every
# machine in the benchmark that halts does so within three steps.
HALT_HORIZON = 1000


def digest(code, stdout: str) -> str:
    return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()[:16]}"


def holds(literals: str, labels) -> bool:
    """Whether a conjunction of literals such as ``p&!q`` holds."""
    return all(
        (lit[1:] not in labels) if lit.startswith("!") else (lit in labels)
        for lit in literals.split("&")
    )


def _forces(g, members, s, targets) -> bool:
    """Whether the members have one action each at ``s`` that keeps every
    successor inside ``targets``."""
    for combo in product(*(g.available_sorted(m, s) for m in members)):
        chosen = dict(zip(members, combo))
        options = [
            (chosen[i],) if i in chosen else g.available_sorted(i, s)
            for i in range(1, g.agents + 1)
        ]
        if all(g.delta.get((s, joint)) in targets for joint in product(*options)):
            return True
    return False


def bounded_safe(g, members, keep: str, bound: int) -> set:
    """States from which the members keep ``keep`` for ``bound`` steps."""
    safe = {s for s in g.states if holds(keep, g.label[s])}
    for _ in range(bound):
        safe = {s for s in safe if _forces(g, members, s, safe)}
    return safe


def bounded_attractor(g, members, keep: str, goal: str, bound: int) -> set:
    """States from which the members reach ``goal`` within ``bound``
    steps, with ``keep`` holding strictly before."""
    reach = {s for s in g.states if holds(goal, g.label[s])}
    for _ in range(bound):
        reach |= {
            s for s in g.states
            if holds(keep, g.label[s]) and _forces(g, members, s, reach)
        }
    return reach


def exact_verdict(op: Op) -> str | None:
    """The verdict the bounded checker must give on the op's modality,
    when an exact oracle covers it."""
    t, g = op.template, op.game
    members = sorted(t.members)
    if t.operands is None:
        return None
    if t.shape == "X":
        goal = {s for s in g.states if holds(t.operands[0], g.label[s])}
        return "True" if _forces(g, members, op.state, goal) else "False"
    if not all(len(block) == 1 for m in members for block in g.obs[m]):
        return None
    if t.shape == "G":
        safe = bounded_safe(g, members, t.operands[0], op.bound)
        return "Unknown" if op.state in safe else "False"
    reach = bounded_attractor(g, members, *t.operands, op.bound)
    return "True" if op.state in reach else "Unknown"


def replay(g, state: str, path, bound: int, keep: str | None) -> str | None:
    """Why ``path`` is not a valid refutation of a safety goal, if it is not."""
    from atlir.cgs import successor

    if not isinstance(path, list) or not path or path[0] != state:
        return f"counterexample {path!r} does not start at {state}"
    if len(path) - 1 > bound:
        return f"counterexample of {len(path) - 1} steps exceeds bound {bound}"
    for u, v in zip(path, path[1:]):
        joints = product(*(g.available_sorted(i, u) for i in range(1, g.agents + 1)))
        if not any(successor(g, u, a) == v for a in joints):
            return f"counterexample step {u} -> {v} is not a transition"
    if keep is not None:
        if not all(holds(keep, g.label[u]) for u in path[:-1]):
            return f"counterexample {path} leaves {keep!r} before its end"
        if holds(keep, g.label[path[-1]]):
            return f"counterexample {path} ends where {keep!r} holds"
    return None


def _check_verdict(op: Op, code, out: str) -> str | None:
    from atlir.turing import halts_within

    try:
        payload = json.loads(out)
        value = payload["verdict"]
        bound = payload["bound"]
    except (ValueError, KeyError, TypeError):
        return "payload is not a verdict"
    if code != EXIT_OF.get(value):
        return f"exit code {code} for verdict {value}"
    if bound != op.bound:
        return f"payload bound {bound}, asked for {op.bound}"
    t = op.template
    inner = FLIP[value] if t.negated else value
    if t.shape == "G" and inner == "True":
        return "safety goal answered True"
    if t.shape == "U" and inner == "False":
        return "until goal answered False"
    if t.shape == "G" and inner == "False":
        path = payload["witness" if t.negated else "counterexample"]
        keep = t.operands[0] if t.operands else None
        why = replay(op.game, op.state, path, op.bound, keep)
        if why:
            return why
    exact = exact_verdict(op)
    if exact is not None and inner != exact:
        return f"verdict {inner}, exact oracle says {exact}"
    if t == SAFE_OK and op.state == "s_init" and op.tm is not None:
        if inner == "False" and not halts_within(op.tm, HALT_HORIZON):
            return "safety refuted on a machine that does not halt"
    return None


def _check_claims(op: Op, code, out: str) -> str | None:
    from atlir.reduction import horizon
    from atlir.turing import halts_within

    lines = out.splitlines()
    rows = [line.split() for line in lines[1:-1]]
    failed = {row[0] for row in rows if len(row) > 3 and row[3] == "FAIL"}
    if not lines or not lines[-1].endswith(f"checks passed to depth {op.depth}"):
        return "no claim summary"
    if halts_within(op.tm, horizon(op.depth)):
        if code != 1 or failed != {"0"}:
            return f"halting machine: exit {code}, failed claims {sorted(failed)}"
    elif code != 0 or failed:
        return f"exit {code}, failed claims {sorted(failed)}"
    return None


def _check_simulation(op: Op, code, out: str) -> str | None:
    from atlir.reduction import horizon
    from atlir.turing import halts_within, trajectory

    m = op.tm
    halts = halts_within(m, horizon(op.depth))
    if code != (4 if halts else 0):
        return f"exit {code}, machine halts within horizon: {halts}"
    configs = trajectory(m, (op.depth - 3) // 2)
    decoded = {}
    for line in out.splitlines():
        if line.startswith("level "):
            n, word = line[len("level "):].split(": ")
            decoded[int(n)] = word
    for n, word in decoded.items():
        k = (n - 3) // 2
        if n % 2 == 0 or k >= len(configs) or word != "".join(configs[k].word):
            return f"level {n} decodes to {word}, not the machine's configuration"
    if not halts and sorted(decoded) != list(range(3, op.depth + 1, 2)):
        return f"decoded levels {sorted(decoded)}"
    return None


def independent_failure(op: Op, code, out: str) -> str | None:
    """Why the op's output is wrong, or None when every check passes."""
    if op.kind == "check":
        return _check_verdict(op, code, out)
    if op.kind == "verify-claims":
        return _check_claims(op, code, out)
    return _check_simulation(op, code, out)
