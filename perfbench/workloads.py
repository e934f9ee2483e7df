"""The benchmark's inputs: machines, compiled games and check jobs.

Every workload is a fixed list of ``atlir`` command lines (ops).  The
seed decides the order of the ops and, for ``job_batch``, which member
of each pair of pool jobs runs.  The pool itself is generated from a
fixed seed, so every op any seed can produce has a pinned answer in
``expected.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from time import perf_counter

# Machine files in atlir's machine format.  LOOP3, M5_EXT and RIGHT2 run
# forever; M_HALT, M5 and LBOUNCE halt within three steps.
MACHINES = {
    "M_HALT": {
        "states": ["q0", "q1"], "alphabet": ["B", "a"], "q0": "q0", "blank": "B",
        "delta": [["q0", "B", "q1", "a", "R"]],
    },
    "M5": {
        "states": ["q0", "q1", "q2"], "alphabet": ["B", "a", "b"], "q0": "q0", "blank": "B",
        "delta": [["q0", "B", "q1", "a", "R"], ["q1", "B", "q2", "b", "L"]],
    },
    "M5_EXT": {
        "states": ["q0", "q1"], "alphabet": ["B", "a"], "q0": "q0", "blank": "B",
        "delta": [["q0", "B", "q1", "a", "R"], ["q1", "B", "q1", "a", "R"]],
    },
    "LOOP3": {
        "states": ["q0", "q1", "q2"], "alphabet": ["B", "a"], "q0": "q0", "blank": "B",
        "delta": [
            ["q0", "B", "q1", "a", "R"], ["q1", "B", "q2", "a", "L"],
            ["q1", "a", "q1", "a", "R"], ["q2", "a", "q1", "a", "R"],
        ],
    },
    "LBOUNCE": {
        "states": ["q0", "q1", "q2", "q3"], "alphabet": ["B", "a", "b", "c"], "q0": "q0",
        "blank": "B",
        "delta": [
            ["q0", "B", "q1", "a", "R"], ["q1", "B", "q2", "b", "L"],
            ["q2", "a", "q3", "c", "L"],
        ],
    },
    "RIGHT2": {
        "states": ["q0", "q1", "q2"], "alphabet": ["B", "x"], "q0": "q0", "blank": "B",
        "delta": [
            ["q0", "B", "q1", "x", "R"], ["q1", "B", "q2", "B", "R"],
            ["q2", "B", "q1", "x", "R"],
        ],
    },
}


@dataclass(frozen=True)
class Template:
    """A formula with what the independent checks need to know about it.

    ``shape`` is the outermost coalition modality (G, U or X) under an
    optional negation.  ``operands`` are its arguments as conjunctions of
    literals such as ``"p&!q"``; ``None`` marks a nested modality, which
    only the soundness checks cover.
    """

    text: str
    shape: str
    members: tuple[int, ...]
    operands: tuple[str, ...] | None
    negated: bool = False


SAFE_OK = Template("<<1,2>> G ok", "G", (1, 2), ("ok",))

RANDOM_TEMPLATES = (
    Template("<<1>> G p", "G", (1,), ("p",)),
    Template("<<2>> G p", "G", (2,), ("p",)),
    Template("<<1,2>> G p", "G", (1, 2), ("p",)),
    Template("<<1>> G !q", "G", (1,), ("!q",)),
    Template("<<1,2>> G (p & !q)", "G", (1, 2), ("p&!q",)),
    Template("<<1>> p U q", "U", (1,), ("p", "q")),
    Template("<<1,2>> p U q", "U", (1, 2), ("p", "q")),
    Template("<<2>> !q U (p & q)", "U", (2,), ("!q", "p&q")),
    Template("<<1>> X p", "X", (1,), ("p",)),
    Template("<<1,2>> X q", "X", (1, 2), ("q",)),
    Template("<<2>> X !p", "X", (2,), ("!p",)),
    Template("!<<1>> G p", "G", (1,), ("p",), negated=True),
    Template("!<<2>> X q", "X", (2,), ("q",), negated=True),
    Template("!<<1>> p U q", "U", (1,), ("p", "q"), negated=True),
    Template("<<1>> X <<2>> G p", "X", (1,), None),
    Template("<<1>> G <<2>> X p", "G", (1,), None),
    Template("<<1,2>> p U <<1>> X q", "U", (1, 2), None),
    Template("<<2>> G (p & !<<1>> X q)", "G", (2,), None),
)

GAME_TEMPLATES = (
    SAFE_OK,
    Template("<<1>> G ok", "G", (1,), ("ok",)),
    Template("<<3>> G ok", "G", (3,), ("ok",)),
    Template("<<1,2>> X ok", "X", (1, 2), ("ok",)),
    Template("!<<3>> X p2", "X", (3,), ("p2",), negated=True),
    Template("<<1,2>> ok U p1", "U", (1, 2), ("ok", "p1")),
)

# deep_search: the safety objective at s_init, a ladder of bounds per game.
SEARCH_LADDER = {
    "M_HALT": (5, 6, 7),
    "M5": (5, 6, 7),
    "M5_EXT": (5, 6, 7),
    "LOOP3": (4, 5),
    "LBOUNCE": (4, 5, 6),
    "RIGHT2": (4,),
}

# deep_claims: (subcommand, machine, depth).
CLAIM_OPS = (
    ("verify-claims", "LOOP3", 31),
    ("verify-claims", "M5_EXT", 31),
    ("simulate", "LOOP3", 31),
    ("verify-claims", "LOOP3", 25),
    ("verify-claims", "RIGHT2", 21),
    ("verify-claims", "LOOP3", 15),
    ("simulate", "M5_EXT", 21),
    ("verify-claims", "M5", 31),
    ("simulate", "RIGHT2", 21),
)

# Ops that fail on a known program defect.  They are not timed, since a
# workload's ops must all pass; ``run.py --record`` runs them, reports
# them and exits 1 until the defect is fixed.  ``simulate --decode`` on
# a halting machine prints decoded levels past the error state: the
# ``S_ERR`` filter in ``cli.cmd_simulate`` tests decoded symbols, and the
# decoding has dropped that state.
DEFECT_OPS = (("simulate", "LBOUNCE", 21),)

# job_batch: pool entry 2k and 2k+1 share formula, bound and information
# kind; the workload seed picks one of each pair, so every seed runs the
# same mix.
POOL_SEED = "atlir-job-pool-1"
POOL_SIZE = 2 * len(RANDOM_TEMPLATES) * 2 * 3 * 12
GAME_BOUNDS = (1, 2, 3, 4)

WORKLOADS = ("deep_search", "deep_claims", "job_batch")


@dataclass
class Op:
    """One ``atlir`` call and the facts its output is checked against."""

    id: str
    argv: list[str]
    kind: str  # "check", "verify-claims" or "simulate"
    tm: object = None  # the machine, for ops on compiled games and machines
    game: object = None
    state: str | None = None
    template: Template | None = None
    bound: int | None = None
    depth: int | None = None


def random_structure(rng: random.Random, perfect: bool):
    """A valid two-agent structure: 1..5 states, 1..3 actions, props p, q.

    Availability is drawn per observation block, so it is uniform by
    construction; ``perfect`` gives every agent singleton blocks.
    """
    from atlir.cgs import Cgs

    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    actions = [f"a{i}" for i in range(rng.randint(1, 3))]
    label = {
        s: [p for p, share in (("p", 0.7), ("q", 0.35)) if rng.random() < share]
        for s in states
    }

    def partition():
        if perfect:
            return [[s] for s in states]
        blocks: list[list[str]] = []
        for s in states:
            if blocks and rng.random() < 0.5:
                rng.choice(blocks).append(s)
            else:
                blocks.append([s])
        return blocks

    obs = {1: partition(), 2: partition()}
    avail: dict[int, dict[str, list[str]]] = {1: {}, 2: {}}
    for agent in (1, 2):
        for block in obs[agent]:
            acts = sorted(rng.sample(actions, rng.randint(1, len(actions))))
            for s in block:
                avail[agent][s] = acts
    delta = {
        (s, (a1, a2)): rng.choice(states)
        for s in states
        for a1, a2 in product(avail[1][s], avail[2][s])
    }
    return Cgs(2, states, ["p", "q"], label, obs, actions, avail, delta)


# Seconds spent writing input files.  Set-up reports this part as
# measured: the host-speed calibration tracks the CPU, not the file system.
write_seconds = 0.0


def _write(path: Path, text: str) -> None:
    global write_seconds
    start = perf_counter()
    path.write_text(text, encoding="utf-8")
    write_seconds += perf_counter() - start


def _write_json(path: Path, doc) -> None:
    _write(path, json.dumps(doc))


def _save_cgs(g, path: Path) -> None:
    """``atlir.cgs.save_cgs``, with the write timed."""
    from atlir.cgs import cgs_to_json

    _write(path, json.dumps(cgs_to_json(g), indent=2) + "\n")


def _machines(work: Path):
    """Write the machine files and compiled games; return name -> facts."""
    from atlir.reduction import build_cgs
    from atlir.turing import load_tm

    out = {}
    for name, doc in MACHINES.items():
        tm_path = work / f"{name}.tm.json"
        _write_json(tm_path, doc)
        m = load_tm(tm_path)
        g = build_cgs(m).cgs
        game_path = work / f"{name}.game.json"
        _save_cgs(g, game_path)
        out[name] = (m, g, str(tm_path), str(game_path))
    return out


def deep_search_ops(work: Path) -> list[Op]:
    machines = _machines(work)
    ops = []
    for name, bounds in SEARCH_LADDER.items():
        m, g, _, game_path = machines[name]
        for b in bounds:
            argv = ["check", game_path, "--state", "s_init", "--formula", SAFE_OK.text,
                    "-b", str(b)]
            ops.append(Op(f"search/{name}/b{b}", argv, "check", tm=m, game=g, state="s_init",
                          template=SAFE_OK, bound=b))
    return ops


def deep_claims_ops(work: Path, claim_ops=CLAIM_OPS) -> list[Op]:
    machines = _machines(work)
    ops = []
    for cmd, name, depth in claim_ops:
        m, _, tm_path, _ = machines[name]
        argv = [cmd, tm_path, "-d", str(depth)] + (["--decode"] if cmd == "simulate" else [])
        ops.append(Op(f"claims/{cmd}/{name}/d{depth}", argv, cmd, tm=m, depth=depth))
    return ops


def _job_op(work: Path, op_id: str, game_path: str, g, state, template, bound, **kw) -> Op:
    job_path = work / f"job-{op_id.replace('/', '-')}.json"
    _write_json(job_path, {"cgs": game_path, "state": state, "formula": template.text,
                           "bound": bound})
    return Op(op_id, ["check", "--job", str(job_path)], "check", game=g, state=state,
              template=template, bound=bound, **kw)


def game_job_ops(work: Path) -> list[Op]:
    """The fixed compiled-game share of ``job_batch``: every game,
    template and bound at s_init."""
    ops = []
    for name, (m, g, _, game_path) in _machines(work).items():
        for template, bound in product(GAME_TEMPLATES, GAME_BOUNDS):
            op_id = f"game/{name}/{template.text}/b{bound}"
            ops.append(_job_op(work, op_id, game_path, g, "s_init", template, bound,
                               tm=m))
    return ops


def pool_op(work: Path, i: int) -> Op:
    """Pool job ``i``: its formula, information kind and bound follow from
    ``i``; its structure and state come from a generator seeded by ``i``."""
    per_kind = len(RANDOM_TEMPLATES)
    slot = i // 2
    template = RANDOM_TEMPLATES[slot % per_kind]
    perfect = (slot // per_kind) % 2 == 0
    bound = 1 + (slot // (2 * per_kind)) % 3
    rng = random.Random(f"{POOL_SEED}/{i}")
    g = random_structure(rng, perfect)
    game_path = work / f"pool-{i:04d}.json"
    _save_cgs(g, game_path)
    state = rng.choice(sorted(g.states))
    return _job_op(work, f"pool/{i:04d}", str(game_path), g, state, template, bound)


def job_batch_ops(work: Path, rng: random.Random) -> list[Op]:
    picked = [2 * k + rng.randrange(2) for k in range(POOL_SIZE // 2)]
    return game_job_ops(work) + [pool_op(work, i) for i in picked]


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Generate ``workload`` from ``seed`` into the new directory ``work``
    and return its ops in run order."""
    work.mkdir(parents=True)
    rng = random.Random(seed)
    if workload == "deep_search":
        ops = deep_search_ops(work)
    elif workload == "deep_claims":
        ops = deep_claims_ops(work)
    elif workload == "job_batch":
        ops = job_batch_ops(work, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def build_all(work: Path) -> list[Op]:
    """Every op any seed can produce, for recording expected answers."""
    work.mkdir(parents=True)
    return (
        deep_search_ops(work)
        + deep_claims_ops(work, CLAIM_OPS + DEFECT_OPS)
        + game_job_ops(work)
        + [pool_op(work, i) for i in range(POOL_SIZE)]
    )
